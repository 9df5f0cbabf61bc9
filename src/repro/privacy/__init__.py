"""Differential-privacy machinery: Laplace mechanism, divisible noise,
budget-concentration strategies and the (ε, δ)-probabilistic calculus of
Appendix B.
"""

from .accountant import BudgetOverrun, PrivacyAccountant
from .budget import (
    BudgetExhausted,
    BudgetStrategy,
    Greedy,
    GreedyFloor,
    UniformFast,
    strategy_from_name,
)
from .collusion import CollusionAnalysis
from .laplace import (
    LaplaceMechanism,
    joint_sensitivity,
    laplace_scale,
    sum_sensitivity,
)
from .noise_shares import (
    gen_noise_share,
    gen_noise_shares,
    surplus_correction,
)
from .probabilistic import (
    GossipPrivacyPlan,
    delta_atom,
    lemma2_noise_inflation,
    lemma2_scale,
    newscast_exchanges,
)

__all__ = [
    "BudgetExhausted",
    "BudgetOverrun",
    "BudgetStrategy",
    "CollusionAnalysis",
    "GossipPrivacyPlan",
    "Greedy",
    "GreedyFloor",
    "LaplaceMechanism",
    "PrivacyAccountant",
    "UniformFast",
    "delta_atom",
    "gen_noise_share",
    "gen_noise_shares",
    "joint_sensitivity",
    "laplace_scale",
    "lemma2_noise_inflation",
    "lemma2_scale",
    "newscast_exchanges",
    "strategy_from_name",
    "sum_sensitivity",
    "surplus_correction",
]
