"""repro.warehouse — the queryable read side of the experiment service.

Every layer of the repo *emits* telemetry: the service bus appends
NDJSON run events per job, workers write ``chiaroscuro-run/v1`` records,
``repro cluster --json-out`` drops the same records standalone, and the
benchmark suite mirrors ``BENCH_*.json`` trajectories to the repo root.
This package makes all of it *queryable*:

* :mod:`~repro.warehouse.schema` — a versioned sqlite schema
  (``PRAGMA user_version`` migrations) of runs, iterations, events,
  detections, jobs and bench points, plus
  window-function views;
* :mod:`~repro.warehouse.ingest` — incremental, idempotent ingestion:
  per-file byte-offset watermarks, torn-tail tolerance, stable event
  keys — re-ingesting is a no-op, tailing a live fleet is a delta;
* :mod:`~repro.warehouse.analytics` — Fig. 2 inertia trajectories per
  strategy, Fig. 3 quality-under-churn/attack comparisons, ε-spend
  curves, per-plane iteration-latency percentiles, detector counts, and
  the bench trajectory across git revisions;
* :mod:`~repro.warehouse.report` — the table renderers behind
  ``repro report fig2|fig3|attacks|latency|bench``, listed once in
  its ``REPORTS`` table.

CLI: ``repro db ingest|query|stats`` and ``repro report …``::

    python -m repro db ingest service-root BENCH_fig3_attack_quality.json \
        --db warehouse.db
    python -m repro report fig3 --db warehouse.db
    python -m repro db ingest service-root --db warehouse.db --follow
"""

from .analytics import (
    bench_trajectory,
    detector_counts,
    fig2_trajectories,
    fig3_quality,
    latency_percentiles,
    run_query,
    stats,
    table_counts,
)
from .ingest import Ingester, follow_ingest, ingest_paths
from .report import (
    REPORTS,
    render_table,
    report_attacks,
    report_bench,
    report_fig2,
    report_fig3,
    report_latency,
)
from .schema import MIGRATIONS, connect, connect_readonly, schema_version

__all__ = [
    "Ingester",
    "MIGRATIONS",
    "REPORTS",
    "bench_trajectory",
    "connect",
    "connect_readonly",
    "detector_counts",
    "fig2_trajectories",
    "fig3_quality",
    "follow_ingest",
    "ingest_paths",
    "latency_percentiles",
    "render_table",
    "report_attacks",
    "report_bench",
    "report_fig2",
    "report_fig3",
    "report_latency",
    "run_query",
    "schema_version",
    "stats",
    "table_counts",
]
