"""Render warehouse analytics as text or markdown tables.

The ``repro report`` surface: each ``report_*`` function pulls one
analytics shape and returns a printable string, so the CLI (and the CI
smoke job grepping its output) get stable, diffable tables without a
plotting dependency — the same spirit as the benchmark suite's
``record_report`` text renditions.  :data:`REPORTS` at the bottom is the
one list of them: the CLI generates ``repro report <name>`` and its
filter flags from it, so adding a report is a renderer plus its row.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, NamedTuple

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
    "report_lint",
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


def report_fig2(
    con: sqlite3.Connection, strategy: str | None = None, fmt: str = "text"
) -> str:
    """Fig. 2: mean inertia trajectory per strategy over iterations."""
    rows = analytics.fig2_trajectories(con, strategy=strategy)
    if not rows:
        return "no iterations ingested — run `repro db ingest` first"
    table = [
        [
            row["strategy"],
            str(row["iteration"]),
            str(row["runs"]),
            _fmt(row["pre_inertia"]),
            _fmt(row["pre_inertia_sma3"]),
            _fmt(row["post_inertia"]),
            _fmt(row["epsilon_spent_total"], 4),
        ]
        for row in rows
    ]
    return "\n".join(render_table(
        ["strategy", "iter", "runs", "pre-inertia", "sma3",
         "post-inertia", "eps-total"],
        table,
        fmt,
    ))


def report_fig3(
    con: sqlite3.Connection, like: str | None = None, fmt: str = "text"
) -> str:
    """Fig. 3: per-deployment final quality vs. the baseline run."""
    rows = analytics.fig3_quality(con, like=like)
    if not rows:
        return "no runs ingested — run `repro db ingest` first"
    table = []
    for row in rows:
        flags = " ABORTED" if row["aborted"] else ""
        table.append(
            [
                row["name"] or row["run_key"],
                row["plane"],
                row["strategy"],
                _fmt(row["churn"]),
                _fmt(row["final_pre_inertia"], 1),
                _fmt(row["vs_baseline"]),
                str(row["iterations"]),
                str(row["detections"]),
                (row["detectors"] or "-") + flags,
            ]
        )
    return "\n".join(render_table(
        ["deployment", "plane", "strategy", "churn", "final pre-inertia",
         "vs base", "iters", "detections", "detectors"],
        table,
        fmt,
    ))


def report_latency(con: sqlite3.Connection, fmt: str = "text") -> str:
    """Per-plane iteration-latency percentiles with the crypto split.

    The ``crypto-share`` column separates protocol time from bigint
    time on planes that report ``crypto_ms`` (the real-ciphertext
    planes); planes without the field show ``-``.
    """
    rows = analytics.latency_percentiles(con)
    if not rows:
        return "no iteration events ingested — run `repro db ingest` first"
    table = [
        [
            row["plane"],
            str(row["iterations"]),
            _fmt(row["p50"], 3),
            _fmt(row["p90"], 3),
            _fmt(row["p99"], 3),
            _fmt(row["max"], 3),
            _fmt(row["crypto_mean"], 3),
            _fmt(row["crypto_share"]),
        ]
        for row in rows
    ]
    return "\n".join(render_table(
        ["plane", "iters", "p50", "p90", "p99", "max",
         "crypto-mean", "crypto-share"],
        table,
        fmt,
    ))


def report_attacks(con: sqlite3.Connection, fmt: str = "text") -> str:
    """Detector counts per fault class — the countermeasure scoreboard."""
    rows = analytics.detector_counts(con)
    if not rows:
        return "no detections ingested"
    table = [
        [
            row["fault"] or "-",
            row["detector"] or "-",
            str(row["detections"]),
            str(row["runs"]),
        ]
        for row in rows
    ]
    return "\n".join(render_table(
        ["fault", "detector", "detections", "runs"], table, fmt
    ))


def report_bench(
    con: sqlite3.Connection,
    bench: str | None = None,
    metric: str | None = None,
    fmt: str = "text",
) -> str:
    """Bench trajectory over git revisions: latest value vs. previous."""
    rows = analytics.bench_trajectory(con, bench=bench, metric=metric)
    if not rows:
        return "no bench points ingested — ingest the BENCH_*.json files"
    table = [
        [
            row["bench"],
            row["metric"],
            row["git_rev"],
            _fmt(row["value"], 4),
            _fmt(row["prev_value"], 4),
            _fmt(row["delta"], 4),
            str(row["points"]),
        ]
        for row in rows
    ]
    return "\n".join(render_table(
        ["bench", "metric", "rev", "value", "prev", "delta", "points"],
        table,
        fmt,
    ))


def report_lint(
    con: sqlite3.Connection, rule: str | None = None, fmt: str = "text"
) -> str:
    """Lint-finding trajectory: per-rule counts at the latest report."""
    rows = analytics.lint_trajectory(con, rule=rule)
    if not rows:
        return (
            "no lint findings ingested — ingest a "
            "`repro lint --format json` report"
        )
    table = [
        [
            row["rule"],
            row["git_rev"],
            str(row["findings"]),
            str(row["new"]),
            str(row["suppressed"]),
            str(row["baselined"]),
            _fmt(row["delta"], 0),
            str(row["points"]),
        ]
        for row in rows
    ]
    return "\n".join(render_table(
        ["rule", "rev", "findings", "new", "suppressed", "baselined",
         "delta", "reports"],
        table,
        fmt,
    ))


class Report(NamedTuple):
    """One ``repro report`` leaf: renderer, help line, filter flags."""

    render: Callable[..., str]
    help: str
    #: keyword of ``render`` → argparse options of the ``--<keyword>``
    #: flag that sets it (every filter is an optional string)
    filters: dict[str, dict[str, str]] = {}


REPORTS: dict[str, Report] = {
    "fig2": Report(
        report_fig2,
        "inertia trajectories per strategy (Fig. 2)",
        {"strategy": {"help": "only this budget strategy (e.g. G, UF6)"}},
    ),
    "fig3": Report(
        report_fig3,
        "quality per deployment vs. baseline (Fig. 3 / quality under attack)",
        {"like": {"metavar": "PATTERN",
                  "help": "only runs whose name matches this SQL LIKE "
                          "pattern (e.g. 'attack-%%')"}},
    ),
    "attacks": Report(report_attacks, "detector counts per fault class"),
    "latency": Report(
        report_latency,
        "per-plane iteration latency percentiles with the crypto_ms split",
    ),
    "bench": Report(
        report_bench,
        "bench metric trajectory over git revisions",
        {"bench": {"help": "only this bench (e.g. fig3_attack_quality)"},
         "metric": {"metavar": "PATTERN",
                    "help": "only metrics matching this SQL LIKE pattern"}},
    ),
    "lint": Report(
        report_lint,
        "lint-finding trajectory over git revisions",
        {"rule": {"help": "only this lint rule (e.g. determinism-rng)"}},
    ),
}
