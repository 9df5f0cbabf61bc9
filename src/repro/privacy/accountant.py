"""Privacy-budget ledger with sequential-composition accounting.

(ε, δ)-probabilistic differential privacy composes like the paper states
(Sec. 3.3.2): ``n`` independent aggregates with budgets ``ε_i`` and
probability ``δ`` each satisfy ``(Σ ε_i, δ^n)``-probabilistic DP.  The
accountant enforces a hard ceiling on ``Σ ε_i`` and counts the released
aggregates (``releases``, the δ exponent ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .budget import BudgetExhausted, BudgetStrategy

__all__ = ["PrivacyAccountant", "BudgetOverrun"]


class BudgetOverrun(RuntimeError):
    """Raised when a charge would push spent ε past the global budget."""


@dataclass
class PrivacyAccountant:
    """Tracks ε spending and the release count across released aggregates.

    ``tolerance`` absorbs float round-off in schedules that sum to exactly
    ε (e.g. UNIFORM_FAST's ``n · ε/n``).
    """

    epsilon_budget: float
    tolerance: float = 1e-9
    spent: float = field(default=0.0, init=False)
    releases: int = field(default=0, init=False)

    def charge(self, epsilon: float, n_values: int = 1) -> None:
        """Record the release of ``n_values`` aggregates at level ``epsilon`` each.

        Chiaroscuro charges ``k·(n+1)`` values per iteration — one Laplace
        variable per mean dimension plus one per count — but because one
        individual's series lands in exactly *one* cluster, the per-release
        ε here is the per-iteration budget, not ``k`` times it (parallel
        composition across clusters; sequential across iterations).
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if n_values < 1:
            raise ValueError("n_values must be >= 1")
        if self.spent + epsilon > self.epsilon_budget + self.tolerance:
            raise BudgetOverrun(
                f"charging ε={epsilon:.6g} would exceed budget "
                f"{self.epsilon_budget:.6g} (already spent {self.spent:.6g})"
            )
        self.spent += epsilon
        self.releases += n_values

    def charged_schedule(
        self,
        strategy: BudgetStrategy,
        max_iterations: int,
        start_iteration: int = 1,
    ) -> Iterator[tuple[int, float]]:
        """Algorithm 1's loop head: charge ``ε_i``, *then* yield ``(i, ε_i)``.

        Iterations ``1 .. start_iteration − 1`` (the prefix of a resumed
        run) are charged without being yielded, so ``spent`` is the same
        left-to-right sum an uninterrupted run holds at that point.  The
        schedule ends silently at ``max_iterations`` or at the strategy's
        own bound (Sec. 4.2.4); a slice that would overspend the budget
        still raises :class:`BudgetOverrun`.
        """
        for iteration in range(1, max_iterations + 1):
            try:
                epsilon_i = strategy.epsilon_for(iteration)
            except BudgetExhausted:
                return
            self.charge(epsilon_i)
            if iteration >= start_iteration:
                yield iteration, epsilon_i

    @property
    def remaining(self) -> float:
        """Budget still available (never negative)."""
        return max(0.0, self.epsilon_budget - self.spent)
