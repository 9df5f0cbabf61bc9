"""``repro lint`` — the AST-based invariant analyzer.

Eight PRs of growth rest on invariants that exist only by convention:
bit-identical outputs across bigint kernels and crypto backends, fault
injection strictly separated from protocol logic, and every noise draw
charged to ε.  This package makes those contracts *machine-checked*
(the lightweight-formal-checking tradition): stdlib-``ast`` only, one
parse per file shared by every rule, and the rules in a
``repro.api.registry.Registry`` like every other pluggable component.

Layout
------
* :mod:`~repro.analysis.lint.model`     — ``Module``/``Project``: the
  single-parse AST model (package inference, import resolution, alias
  maps, ``TYPE_CHECKING`` spans, suppression comments);
* :mod:`~repro.analysis.lint.findings`  — ``Finding`` and its stable
  content-based fingerprint (line-number independent);
* :mod:`~repro.analysis.lint.registry`  — ``RULES``/``@register_rule``;
* :mod:`~repro.analysis.lint.rules`     — the shipped invariants
  (determinism, bigint purity, layering, registry hygiene,
  ε-accounting);
* :mod:`~repro.analysis.lint.engine`    — ``run_lint``: drive every
  rule over a project and apply the inline suppressions;
* :mod:`~repro.analysis.lint.reporters` — text and JSON renditions
  (the JSON envelope, ``chiaroscuro-lint/v1``, ingests into the
  warehouse's ``lint_findings`` table).

CLI::

    python -m repro lint src/repro
    python -m repro lint src/repro --format json > lint-findings.json
    python -m repro lint --list-rules
"""

from .engine import LintReport, run_lint
from .findings import Finding
from .model import Module, Project
from .registry import RULES, LintRule, register_rule
from .reporters import render_json, render_text

# Rule modules register themselves on import, exactly like
# repro.api.builtins populates the component registries.
from . import rules as _rules  # noqa: F401  (side-effect registration)

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "Module",
    "Project",
    "RULES",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
]
