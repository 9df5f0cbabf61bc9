"""Render warehouse analytics as text or markdown tables.

The ``repro report`` surface: a report is a row of :data:`REPORTS` — the
analytics shape it fetches, what to say when that is empty, and one
``(header, key-or-callable, digits)`` spec per column — rendered by the one
:meth:`Report.render`, so the CLI (and the CI smoke job grepping its
output) get stable, diffable tables without a plotting dependency — the
same spirit as the benchmark suite's ``record_report`` text renditions.
The CLI generates ``repro report <name>`` and its filter flags from the
table, so adding a report is adding its row.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Callable

from . import analytics

__all__ = [
    "REPORTS",
    "Report",
    "render_table",
    "report_attacks",
    "report_bench",
    "report_fig2",
    "report_fig3",
    "report_latency",
]


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_table(
    headers: list[str],
    rows: list[list[str]],
    fmt: str = "text",
) -> list[str]:
    """Lay out one table; ``fmt`` is ``text`` (aligned) or ``markdown``."""
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return lines
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in rows), 1)
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                      for i, cell in enumerate(row))
        )
    return lines


@dataclass(frozen=True)
class Report:
    """One ``repro report`` leaf, as data."""

    #: ``fetch(con, **filters)`` → the rows, one dict each
    fetch: Callable[..., list[dict]]
    #: what to print instead of a table when there are no rows
    empty: str
    #: per column: header, row key (or a callable of the row) and, where a
    #: float wants other than ``_fmt``'s two, its digits
    columns: tuple[tuple, ...]
    help: str
    #: keyword of ``fetch`` → argparse options of the ``--<keyword>``
    #: flag that sets it (every filter is an optional string)
    filters: dict[str, dict[str, str]] = field(default_factory=dict)

    def render(
        self, con: sqlite3.Connection, fmt: str = "text", **filters: str | None
    ) -> str:
        rows = self.fetch(con, **filters)
        if not rows:
            return self.empty
        table = [
            [
                _fmt(key(row) if callable(key) else row[key], *digits)
                for _, key, *digits in self.columns
            ]
            for row in rows
        ]
        headers = [column[0] for column in self.columns]
        return "\n".join(render_table(headers, table, fmt))


REPORTS: dict[str, Report] = {
    # Fig. 2: mean inertia trajectory per strategy over iterations.
    "fig2": Report(
        analytics.fig2_trajectories,
        "no iterations ingested — run `repro db ingest` first",
        (
            ("strategy", "strategy"),
            ("iter", "iteration"),
            ("runs", "runs"),
            ("pre-inertia", "pre_inertia"),
            ("sma3", "pre_inertia_sma3"),
            ("post-inertia", "post_inertia"),
            ("eps-total", "epsilon_spent_total", 4),
        ),
        "inertia trajectories per strategy (Fig. 2)",
        {"strategy": {"help": "only this budget strategy (e.g. G, UF6)"}},
    ),
    # Fig. 3: per-deployment final quality vs. the baseline run.
    "fig3": Report(
        analytics.fig3_quality,
        "no runs ingested — run `repro db ingest` first",
        (
            ("deployment", lambda row: row["name"] or row["run_key"]),
            ("plane", "plane"),
            ("strategy", "strategy"),
            ("churn", "churn"),
            ("final pre-inertia", "final_pre_inertia", 1),
            ("vs base", "vs_baseline"),
            ("iters", "iterations"),
            ("detections", "detections"),
            ("detectors", lambda row: (row["detectors"] or "-")
             + (" ABORTED" if row["aborted"] else "")),
        ),
        "quality per deployment vs. baseline (Fig. 3 / quality under attack)",
        {"like": {"metavar": "PATTERN",
                  "help": "only runs whose name matches this SQL LIKE "
                          "pattern (e.g. 'attack-%%')"}},
    ),
    # Detector counts per fault class — the countermeasure scoreboard.
    "attacks": Report(
        analytics.detector_counts,
        "no detections ingested",
        (
            ("fault", lambda row: row["fault"] or "-"),
            ("detector", lambda row: row["detector"] or "-"),
            ("detections", "detections"),
            ("runs", "runs"),
        ),
        "detector counts per fault class",
    ),
    # Per-plane iteration-latency percentiles.  The crypto-share column
    # separates protocol time from bigint time on planes that report
    # ``crypto_ms`` (the real-ciphertext planes); planes without the field
    # show ``-``.
    "latency": Report(
        analytics.latency_percentiles,
        "no iteration events ingested — run `repro db ingest` first",
        (
            ("plane", "plane"),
            ("iters", "iterations"),
            ("p50", "p50", 3),
            ("p90", "p90", 3),
            ("p99", "p99", 3),
            ("max", "max", 3),
            ("crypto-mean", "crypto_mean", 3),
            ("crypto-share", "crypto_share"),
        ),
        "per-plane iteration latency percentiles with the crypto_ms split",
    ),
    # Bench trajectory over git revisions: latest value vs. previous.
    "bench": Report(
        analytics.bench_trajectory,
        "no bench points ingested — ingest the BENCH_*.json files",
        (
            ("bench", "bench"),
            ("metric", "metric"),
            ("rev", "git_rev"),
            ("value", "value", 4),
            ("prev", "prev_value", 4),
            ("delta", "delta", 4),
            ("points", "points"),
        ),
        "bench metric trajectory over git revisions",
        {"bench": {"help": "only this bench (e.g. fig3_attack_quality)"},
         "metric": {"metavar": "PATTERN",
                    "help": "only metrics matching this SQL LIKE pattern"}},
    ),
}

report_fig2 = REPORTS["fig2"].render
report_fig3 = REPORTS["fig3"].render
report_attacks = REPORTS["attacks"].render
report_latency = REPORTS["latency"].render
report_bench = REPORTS["bench"].render
