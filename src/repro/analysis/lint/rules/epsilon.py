"""epsilon-accounting: every noise draw is visible to the budget flow.

The differential-privacy guarantee is an *accounting* property: ε is
only meaningful if every Laplace/gamma perturbation a run performs was
charged to the :class:`~repro.privacy.accountant.PrivacyAccountant`.
A noise draw added in core/gossip/clustering code that never touches
the accountant flow is an unaccounted privacy spend — the run reports a
smaller ε than it actually consumed.

The check is necessarily module-granular (data flow through numpy is
out of AST reach): any protocol module containing a noise site — an
``rng.laplace``/``rng.gamma``/``rng.standard_gamma`` draw or a
``LaplaceMechanism``/``NoisePlan`` construction — must also reference the
budget flow (``PrivacyAccountant``, ``epsilon_for``, ``epsilon_charged``,
``charge``, ``BudgetExhausted``).  ``repro.privacy`` itself is exempt:
it *is* the mechanism layer the rest of the tree is charged through.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding, relative_path
from ..model import Module, Project
from ..registry import LintRule, register_rule
from ._util import scoped_modules

SCOPED_PACKAGES = (
    "repro.core",
    "repro.gossip",
    "repro.clustering",
    "repro.crypto",
)

#: Attribute draws on an RNG object that inject DP noise.
_NOISE_ATTRS = frozenset({"laplace", "gamma", "standard_gamma"})

#: Constructions that represent a planned noise draw.
_NOISE_CONSTRUCTORS = frozenset({"LaplaceMechanism", "NoisePlan"})

#: Names whose presence shows the module participates in ε accounting.
_BUDGET_NAMES = frozenset(
    {
        "PrivacyAccountant",
        "epsilon_for",
        "epsilon_charged",
        "charge",
        "BudgetExhausted",
    }
)


@register_rule("epsilon-accounting")
class EpsilonAccounting(LintRule):
    """Modules drawing DP noise must reference the privacy-budget flow."""

    def check(self, project: Project) -> Iterable[Finding]:
        for module in scoped_modules(project, SCOPED_PACKAGES):
            sites = _noise_sites(module)
            if not sites:
                continue
            if module.referenced_names() & _BUDGET_NAMES:
                continue
            for line, col, what in sites:
                yield Finding(
                    rule=self.key,
                    path=relative_path(module.path),
                    line=line,
                    col=col,
                    message=(
                        f"{what} draws DP noise but this module never "
                        f"references the budget flow "
                        f"({', '.join(sorted(_BUDGET_NAMES))}) — "
                        f"unaccounted ε spend"
                    ),
                )


def _noise_sites(module: Module) -> list[tuple[int, int, str]]:
    sites: list[tuple[int, int, str]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NOISE_ATTRS
            and not module.resolve_call(func).startswith("math.")
        ):
            sites.append((node.lineno, node.col_offset, f".{func.attr}()"))
        else:
            target = module.resolve_call(func)
            last = target.rsplit(".", maxsplit=1)[-1]
            if last in _NOISE_CONSTRUCTORS:
                sites.append((node.lineno, node.col_offset, f"{last}(...)"))
    return sites
