"""Window-function analytics over the warehouse.

Every function takes an open warehouse connection and returns plain
list-of-dict rows, so the CLI renderers, tests and any notebook consume
the same shapes.  The heavy lifting happens inside the migration-2 SQL
views (``v_inertia_trajectories``, ``v_bench_trajectory``, …) — sqlite's
window functions do the running sums, lags and moving averages; Python
only shapes the output, except for :func:`latency_percentiles`.
"""

from __future__ import annotations

import sqlite3
from bisect import bisect_left

from .ingest import table_counts

__all__ = [
    "bench_trajectory",
    "detector_counts",
    "fig2_trajectories",
    "fig3_quality",
    "latency_percentiles",
    "run_query",
    "stats",
    "table_counts",
]


def _rows(cursor: sqlite3.Cursor) -> list[dict]:
    names = [column[0] for column in cursor.description]
    return [dict(zip(names, row)) for row in cursor.fetchall()]


# --------------------------------------------------------------- fig. 2


def fig2_trajectories(
    con: sqlite3.Connection, strategy: str | None = None
) -> list[dict]:
    """Mean inertia trajectory per strategy (the Fig. 2 comparison).

    One row per (strategy, iteration): mean pre-/post-perturbation
    inertia and mean running ε spend across every ingested run of that
    strategy, plus the smoothed (3-point SMA) curve the paper plots.
    """
    where = "WHERE strategy = ?" if strategy else ""
    args = (strategy,) if strategy else ()
    return _rows(
        con.execute(
            f"""
            SELECT strategy,
                   iteration,
                   COUNT(*)                  AS runs,
                   AVG(pre_inertia)          AS pre_inertia,
                   AVG(post_inertia)         AS post_inertia,
                   AVG(pre_inertia_sma3)     AS pre_inertia_sma3,
                   AVG(epsilon_spent_total)  AS epsilon_spent_total
            FROM v_inertia_trajectories
            {where}
            GROUP BY strategy, iteration
            ORDER BY strategy, iteration
            """,
            args,
        )
    )


# --------------------------------------------------------------- fig. 3


def fig3_quality(
    con: sqlite3.Connection, like: str | None = None
) -> list[dict]:
    """Per-deployment quality comparison (Fig. 3 / quality-under-attack).

    One row per run: final pre-perturbation inertia, its ratio against
    the group's baseline run (a run whose name contains ``baseline``,
    within the same source/bench group — collusion-style legs on a
    different dataset get no ratio), iterations, churn, and what the
    countermeasures detected.
    """
    where = "WHERE r.name LIKE ?" if like else ""
    args = (like,) if like else ()
    rows = _rows(
        con.execute(
            f"""
            SELECT r.run_key,
                   r.source,
                   COALESCE(r.bench, '')    AS bench,
                   r.name,
                   r.strategy,
                   r.plane,
                   r.dataset,
                   r.churn,
                   r.iterations,
                   r.final_pre_inertia,
                   MAX(r.aborted, EXISTS(
                       SELECT 1 FROM events e
                       WHERE e.job_id = r.job_id
                         AND e.type = 'run_aborted'
                   ))                        AS aborted,
                   COALESCE((
                       SELECT SUM(d.count) FROM detections d
                       WHERE d.run_key = r.run_key
                   ), 0)                     AS detections,
                   COALESCE((
                       SELECT GROUP_CONCAT(detector, ',') FROM (
                           SELECT DISTINCT d.detector FROM detections d
                           WHERE d.run_key = r.run_key
                           ORDER BY d.detector
                       )
                   ), '')                    AS detectors
            FROM runs r
            {where}
            ORDER BY r.source, bench, r.name, r.run_key
            """,
            args,
        )
    )
    # Ratio vs. the group's baseline, computed on the comparable rows
    # only (same dataset as the baseline run).
    baselines: dict[tuple, tuple[float, str]] = {}
    for row in rows:
        group = (row["source"], row["bench"])
        if "baseline" in row["name"] and row["final_pre_inertia"]:
            baselines[group] = (row["final_pre_inertia"], row["dataset"])
    for row in rows:
        base = baselines.get((row["source"], row["bench"]))
        if (
            base
            and row["final_pre_inertia"] is not None
            and row["dataset"] == base[1]
        ):
            row["vs_baseline"] = row["final_pre_inertia"] / base[0]
        else:
            row["vs_baseline"] = None
    return rows


# -------------------------------------------------------------- latency


#: ``v_iteration_latency``'s window order, narrowed before the sort (the
#: view's ``LAG()`` sorts whole payloads).  The arithmetic stays in SQL,
#: so a TEXT ``ts`` or ``crypto_ms`` decodes as it does through the view.
_LATENCY_SCAN = """
    SELECT e.job_id,
           COALESCE(r.plane, ''),
           e.ts + 0,
           json_extract(e.payload, '$.crypto_ms') / 1000.0
    FROM events e
    LEFT JOIN runs r ON r.job_id = e.job_id
    WHERE e.type = 'iteration_completed'
    ORDER BY e.job_id, e.ts, COALESCE(e.seq, 0)
"""


def latency_percentiles(con: sqlite3.Connection) -> list[dict]:
    """Per-plane iteration-latency percentiles from the event stream.

    Latency is the gap between consecutive ``iteration_completed``
    timestamps of one job (``v_iteration_latency``'s ``seconds``), read
    in one ordered scan off the cursor: no payload is sorted, no row is
    held.  Percentiles are nearest-rank, the rule ``CUME_DIST() >= q``.

    Planes reporting the ``crypto_ms`` split (real-ciphertext planes)
    additionally get ``crypto_p50``/``crypto_mean`` seconds and
    ``crypto_share`` — the fraction of mean iteration latency spent
    inside crypto batch calls, i.e. what separates protocol time from
    bigint time.  Planes without the field report ``None`` there.
    """
    by_plane: dict[str, tuple[list, list]] = {}
    previous_job = previous_ts = None
    for job_id, plane, ts, crypto_seconds in con.execute(_LATENCY_SCAN):
        if job_id == previous_job and ts is not None and previous_ts is not None:
            gaps, crypto = by_plane.setdefault(plane, ([], []))
            gaps.append(ts - previous_ts)
            if crypto_seconds is not None:
                crypto.append(crypto_seconds)
        previous_job, previous_ts = job_id, ts
    out: list[dict] = []
    for plane, (gaps, crypto) in sorted(by_plane.items()):
        # Sorted before summing: ascending order is the summation order
        # the report's digits are pinned to (the view's oracle test).
        gaps.sort()
        crypto.sort()
        n = len(gaps)
        entry = {"plane": plane, "iterations": n}
        for label, quantile in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            # index of the smallest rank k with k / n >= q
            index = bisect_left(range(1, n + 1), quantile, key=lambda k: k / n)
            entry[label] = gaps[index]
        entry["max"] = gaps[-1]
        entry["crypto_p50"] = entry["crypto_mean"] = entry["crypto_share"] = None
        if crypto:
            mean_seconds = sum(gaps) / n
            entry["crypto_p50"] = crypto[len(crypto) // 2]
            entry["crypto_mean"] = sum(crypto) / len(crypto)
            if mean_seconds > 0:
                entry["crypto_share"] = entry["crypto_mean"] / mean_seconds
        out.append(entry)
    return out


# ----------------------------------------------------------- detections


def detector_counts(con: sqlite3.Connection) -> list[dict]:
    """Detections per fault class per detector (the attack scoreboard)."""
    return _rows(
        con.execute(
            """
            SELECT fault, detector, detections, runs
            FROM v_detector_counts
            ORDER BY fault, detector
            """
        )
    )


# ---------------------------------------------------------------- bench


def bench_trajectory(
    con: sqlite3.Connection, bench: str | None = None, metric: str | None = None
) -> list[dict]:
    """Each bench metric's latest point, previous point, and delta.

    Ordered by the envelope's provenance timestamp (``unix_time``), so
    the trajectory is meaningful even when files were checked out fresh
    (mtimes say nothing); ``points`` counts the revisions seen.
    """
    where = ["point_index = spans.n"]
    args: list = []
    if bench:
        where.append("t.bench = ?")
        args.append(bench)
    if metric:
        where.append("t.metric LIKE ?")
        args.append(metric)
    return _rows(
        con.execute(
            f"""
            SELECT t.bench, t.metric, t.git_rev, t.recorded_at,
                   t.value, t.prev_value,
                   CASE WHEN t.prev_value IS NOT NULL
                        THEN t.value - t.prev_value END AS delta,
                   spans.n AS points
            FROM v_bench_trajectory t
            JOIN (
                SELECT bench, metric, COUNT(*) AS n
                FROM bench_points GROUP BY bench, metric
            ) spans ON spans.bench = t.bench AND spans.metric = t.metric
            WHERE {' AND '.join(where)}
            ORDER BY t.bench, t.metric
            """,
            args,
        )
    )


# ---------------------------------------------------------------- stats


def stats(con: sqlite3.Connection) -> dict:
    """The ``repro db stats`` payload: row counts plus source coverage."""
    counts = table_counts(con)
    version = int(con.execute("PRAGMA user_version").fetchone()[0])
    sources = {
        row[0]: row[1]
        for row in con.execute(
            "SELECT source, COUNT(*) FROM runs GROUP BY source ORDER BY source"
        )
    }
    event_types = {
        row[0]: row[1]
        for row in con.execute(
            "SELECT type, COUNT(*) FROM events GROUP BY type ORDER BY type"
        )
    }
    return {
        "schema_version": version,
        "tables": counts,
        "runs_by_source": sources,
        "events_by_type": event_types,
    }


def run_query(con: sqlite3.Connection, sql: str) -> list[dict]:
    """Execute one read-only SQL statement and return dict rows."""
    cursor = con.execute(sql)
    if cursor.description is None:
        return []
    return _rows(cursor)
