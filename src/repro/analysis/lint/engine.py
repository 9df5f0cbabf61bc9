"""Drive the registered rules over a project and classify the findings.

The engine owns the finding lifecycle:

1. parse every file once (:class:`~repro.analysis.lint.model.Project`);
2. run each selected rule over the shared model;
3. mark findings covered by an inline ``# repro-lint: allow=`` comment
   as ``suppressed`` (justification attached);
4. everything else is ``new`` — the set that fails the build.

Malformed suppression comments (no ``-- justification``) are reported
under the reserved rule id ``suppression``: an unexplained waiver is
itself a violation, so the justification requirement is machine-enforced
like every other contract here.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace

from .findings import STATUSES, Finding, fingerprint_findings, relative_path
from .model import Module, Project
from .registry import RULES

__all__ = ["LintReport", "run_lint"]

#: Reserved rule id for malformed suppression comments.
SUPPRESSION_RULE = "suppression"


@dataclass
class LintReport:
    """Everything one lint run produced, pre-classified."""

    findings: list[Finding]  # every finding, status assigned
    files: int
    rules: list[str]  # rule keys that ran

    @property
    def new(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "new"]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "suppressed"]

    def by_rule(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for finding in self.findings:
            bucket = out.setdefault(finding.rule, dict.fromkeys(STATUSES, 0))
            bucket[finding.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0


def run_lint(
    paths: list[str | pathlib.Path],
    rules: list[str] | None = None,
) -> LintReport:
    """Lint ``paths`` with ``rules`` (default: all registered).

    Raises ``FileNotFoundError`` for a missing path and ``KeyError`` for
    an unknown rule key — the CLI maps both to exit code 2.
    """
    selected = list(rules) if rules is not None else RULES.keys()
    instances = [RULES.get(key) for key in selected]
    project = Project.load([pathlib.Path(p) for p in paths])

    findings: list[Finding] = []
    for rule in instances:
        findings.extend(rule.check(project))
    findings.extend(_suppression_findings(project))

    # Anchor each finding to its source line text for the fingerprint
    # and attach inline suppressions.
    modules = {relative_path(m.path): m for m in project.modules}
    findings = [_classify_inline(modules.get(f.path), f) for f in findings]
    findings = fingerprint_findings(findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(
        findings=findings, files=len(project.modules), rules=selected
    )


def _suppression_findings(project: Project) -> list[Finding]:
    out: list[Finding] = []
    for module in project.modules:
        for line, text in module.bad_suppressions:
            out.append(
                Finding(
                    rule=SUPPRESSION_RULE,
                    path=relative_path(module.path),
                    line=line,
                    message=(
                        "suppression comment has no justification — use "
                        "'# repro-lint: allow=<rule> -- <why this is fine>'"
                    ),
                    snippet=text,
                )
            )
    return out


def _classify_inline(module: Module | None, finding: Finding) -> Finding:
    """Fill the snippet and apply inline suppressions to one finding."""
    if module is None:
        return finding
    snippet = finding.snippet or module.line_text(finding.line).strip()
    finding = replace(finding, snippet=snippet)
    if finding.rule == SUPPRESSION_RULE:
        return finding  # the meta-rule cannot be waived by itself
    for suppression in module.suppressions.get(finding.line, []):
        if finding.rule in suppression.rules:
            return replace(
                finding,
                status="suppressed",
                justification=suppression.justification,
            )
    return finding
