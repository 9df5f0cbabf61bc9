"""Differential-privacy machinery: Laplace mechanism, divisible noise,
budget-concentration strategies and the (ε, δ)-probabilistic calculus of
Appendix B.
"""

from .. import lazy

__all__, __getattr__ = lazy.exports(__name__, {
    ".accountant": ("BudgetOverrun", "PrivacyAccountant"),
    ".budget": (
        "BudgetExhausted",
        "BudgetStrategy",
        "Greedy",
        "GreedyFloor",
        "UniformFast",
        "strategy_from_name",
    ),
    ".collusion": ("CollusionAnalysis",),
    ".laplace": (
        "LaplaceMechanism",
        "joint_sensitivity",
        "laplace_scale",
        "sum_sensitivity",
    ),
    ".noise_shares": ("gen_noise_share", "gen_noise_shares", "surplus_correction"),
    ".probabilistic": (
        "GossipPrivacyPlan",
        "delta_atom",
        "lemma2_noise_inflation",
        "lemma2_scale",
        "newscast_exchanges",
    ),
})
