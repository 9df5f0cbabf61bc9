"""Render a :class:`~repro.analysis.lint.engine.LintReport`.

Two formats, mirroring the rest of the toolchain:

* ``text`` — human-readable, one line per finding, grouped summary;
* ``json`` — a ``chiaroscuro-lint/v1`` envelope with the same
  provenance block the benchmark records carry (git revision,
  timestamps), so the warehouse can ingest lint runs alongside bench
  records and plot the violation trajectory over commits.
"""

from __future__ import annotations

import json
import subprocess
import time

from .engine import LintReport
from .findings import STATUSES

__all__ = ["REPORT_SCHEMA", "render_json", "render_text"]

REPORT_SCHEMA = "chiaroscuro-lint/v1"


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
            ).stdout.strip()
            or "unknown"
        )
    except OSError:
        return "unknown"


def render_text(report: LintReport, verbose: bool = False) -> str:
    """One line per actionable finding, then a per-rule summary."""
    out: list[str] = []
    shown = report.findings if verbose else report.new
    for finding in shown:
        tag = "" if finding.status == "new" else f" [{finding.status}]"
        out.append(
            f"{finding.path}:{finding.line}: {finding.rule}{tag}: "
            f"{finding.message}"
        )
        if finding.snippet:
            out.append(f"    {finding.snippet}")
        if finding.justification:
            out.append(f"    justification: {finding.justification}")
    if shown:
        out.append("")
    for rule, counts in sorted(report.by_rule().items()):
        parts = [
            f"{counts[status]} {status}"
            for status in STATUSES
            if counts[status]
        ]
        out.append(f"{rule}: {', '.join(parts)}")
    new = len(report.new)
    out.append(
        f"{report.files} file(s), {len(report.rules)} rule(s): "
        f"{new} new, {len(report.suppressed)} suppressed"
    )
    return "\n".join(out) + "\n"


def render_json(report: LintReport) -> str:
    """The ``chiaroscuro-lint/v1`` envelope (warehouse ingest format)."""
    now = time.time()
    payload = {
        "schema": REPORT_SCHEMA,
        "provenance": {
            "git_rev": _git_rev(),
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
            ),
            "unix_time": now,
        },
        "files": report.files,
        "rules": report.rules,
        "counts": {
            "new": len(report.new),
            "suppressed": len(report.suppressed),
        },
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2) + "\n"
