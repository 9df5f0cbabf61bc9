"""Warehouse schema: versioned sqlite tables + window-function views.

The schema is migrated, never recreated: :func:`connect` applies every
migration the database has not seen yet, tracked through
``PRAGMA user_version`` (0 = empty file, N = migrations[0..N-1] applied).
A warehouse built by an older release is therefore upgraded in place the
next time any tool opens it — the ingester's watermarks and all ingested
rows survive the upgrade.

Tables (migration 1)
--------------------
``ingest_files``   per-source watermarks: NDJSON byte offsets and JSON
                   size/mtime fingerprints — the incremental-ingestion
                   cursor (re-ingestion starts where the last one ended,
                   never from byte 0).
``jobs``           mirrors of ``job.json`` records from service roots.
``runs``           one row per ``chiaroscuro-run/v1`` record, whatever
                   emitted it (service ``result.json``, a standalone
                   ``--json-out`` file, or a run embedded in a
                   ``BENCH_*.json``).
``iterations``     the per-iteration history of each run.
``events``         every bus NDJSON record, keyed stably (job + seq,
                   falling back to the line's byte offset for pre-seq
                   logs) so re-ingestion cannot duplicate.
``detections``     ``fault_detected`` events plus bench-summary detection
                   aggregates, joinable back to ``runs``.
``bench_points``   scalar metrics flattened out of root ``BENCH_*.json``
                   files — the cross-PR perf trajectory, ordered by the
                   envelope's provenance timestamp (never file mtimes).

Views (migration 2) — the window-function analytics surface
-----------------------------------------------------------
``v_inertia_trajectories``  per-run inertia curves with running ε spend
                            (``SUM() OVER``) and a 3-point moving average
                            (Fig. 2 smoothing).
``v_epsilon_spend``         cumulative ε per iteration per run.
``v_iteration_latency``     wall seconds between consecutive
                            ``iteration_completed`` events (``LAG() OVER``
                            per job), joined to the run's plane; since
                            migration 3 it also extracts the event's
                            ``crypto_ms`` field so the protocol/bigint
                            time split is queryable per iteration.
``v_detector_counts``       detections per fault class per detector.
``v_bench_trajectory``      each bench metric over git revisions with its
                            previous value (``LAG() OVER``) for deltas.

Migration 4 added ``lint_findings`` and ``v_lint_trajectory`` for
``chiaroscuro-lint/v1`` reports; migration 5 drops both, because the
invariants those reports tracked are tier-1 tests (``tests/invariants``).
"""

from __future__ import annotations

import pathlib
import sqlite3

__all__ = ["MIGRATIONS", "connect", "connect_readonly", "schema_version"]


_MIGRATION_1 = """
CREATE TABLE ingest_files (
    path        TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,              -- 'ndjson' | 'json'
    byte_offset INTEGER NOT NULL DEFAULT 0, -- ndjson watermark (complete lines)
    fingerprint TEXT NOT NULL DEFAULT '',   -- json files: "<size>:<mtime_ns>"
    ingested_at REAL NOT NULL
);

CREATE TABLE jobs (
    job_id       TEXT PRIMARY KEY,
    root         TEXT NOT NULL,
    name         TEXT NOT NULL DEFAULT '',
    state        TEXT NOT NULL,
    plane        TEXT NOT NULL DEFAULT '',
    strategy     TEXT NOT NULL DEFAULT '',
    submitted_at REAL,
    started_at   REAL,
    finished_at  REAL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    error        TEXT NOT NULL DEFAULT ''
);

CREATE TABLE runs (
    run_key          TEXT PRIMARY KEY,
    source           TEXT NOT NULL,         -- 'job' | 'record' | 'bench'
    job_id           TEXT,
    bench            TEXT,
    git_rev          TEXT NOT NULL DEFAULT '',
    recorded_at      TEXT NOT NULL DEFAULT '',
    name             TEXT NOT NULL DEFAULT '',
    label            TEXT NOT NULL DEFAULT '',
    strategy         TEXT NOT NULL DEFAULT '',
    plane            TEXT NOT NULL DEFAULT '',
    dataset          TEXT NOT NULL DEFAULT '',
    seed             INTEGER,
    churn            REAL,
    epsilon          REAL,
    k                INTEGER,
    key_bits         INTEGER,
    bigint_backend   TEXT NOT NULL DEFAULT '',
    crypto_backend   TEXT NOT NULL DEFAULT '',
    converged        INTEGER NOT NULL DEFAULT 0,
    aborted          INTEGER NOT NULL DEFAULT 0,
    iterations       INTEGER NOT NULL DEFAULT 0,
    final_pre_inertia REAL,
    wall_seconds     REAL
);
CREATE INDEX idx_runs_name ON runs (name);
CREATE INDEX idx_runs_job ON runs (job_id);

CREATE TABLE iterations (
    run_key       TEXT NOT NULL,
    iteration     INTEGER NOT NULL,
    pre_inertia   REAL,
    post_inertia  REAL,
    n_centroids   INTEGER,
    epsilon_spent REAL,
    PRIMARY KEY (run_key, iteration)
);

CREATE TABLE events (
    event_key TEXT PRIMARY KEY,  -- '<job>:<seq>' or '<job>:@<byte offset>'
    job_id    TEXT NOT NULL,
    seq       INTEGER,
    ts        REAL,
    type      TEXT NOT NULL,
    iteration INTEGER,
    payload   TEXT NOT NULL      -- the NDJSON line as written (NaN/±Infinity → null)
);
CREATE INDEX idx_events_job ON events (job_id, type);

CREATE TABLE detections (
    detection_key TEXT PRIMARY KEY,
    run_key       TEXT,
    job_id        TEXT,
    iteration     INTEGER,
    fault         TEXT NOT NULL DEFAULT '',
    detector      TEXT NOT NULL DEFAULT '',
    participants  INTEGER NOT NULL DEFAULT 0,
    count         INTEGER NOT NULL DEFAULT 1,
    detail        TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX idx_detections_run ON detections (run_key);

CREATE TABLE bench_points (
    bench       TEXT NOT NULL,
    git_rev     TEXT NOT NULL,
    recorded_at TEXT NOT NULL,
    unix_time   REAL,
    metric      TEXT NOT NULL,
    value       REAL NOT NULL,
    PRIMARY KEY (bench, git_rev, recorded_at, metric)
);
"""

_MIGRATION_2 = """
CREATE VIEW v_inertia_trajectories AS
SELECT
    r.run_key,
    r.source,
    r.name,
    r.label,
    r.strategy,
    r.plane,
    r.churn,
    i.iteration,
    i.pre_inertia,
    i.post_inertia,
    i.n_centroids,
    i.epsilon_spent,
    SUM(i.epsilon_spent) OVER (
        PARTITION BY i.run_key ORDER BY i.iteration
    ) AS epsilon_spent_total,
    AVG(i.pre_inertia) OVER (
        PARTITION BY i.run_key ORDER BY i.iteration
        ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
    ) AS pre_inertia_sma3
FROM iterations i
JOIN runs r USING (run_key);

CREATE VIEW v_epsilon_spend AS
SELECT
    run_key,
    name,
    strategy,
    iteration,
    epsilon_spent,
    epsilon_spent_total,
    epsilon_spent_total - epsilon_spent AS epsilon_before
FROM v_inertia_trajectories;

CREATE VIEW v_iteration_latency AS
SELECT
    e.job_id,
    COALESCE(r.plane, '') AS plane,
    e.iteration,
    e.ts,
    e.ts - LAG(e.ts) OVER (
        PARTITION BY e.job_id ORDER BY e.ts, COALESCE(e.seq, 0)
    ) AS seconds
FROM events e
LEFT JOIN runs r ON r.job_id = e.job_id
WHERE e.type = 'iteration_completed';

CREATE VIEW v_detector_counts AS
SELECT
    fault,
    detector,
    SUM(count) AS detections,
    COUNT(DISTINCT COALESCE(run_key, job_id, detection_key)) AS runs
FROM detections
GROUP BY fault, detector;

CREATE VIEW v_bench_trajectory AS
SELECT
    bench,
    metric,
    git_rev,
    recorded_at,
    value,
    LAG(value) OVER (
        PARTITION BY bench, metric
        ORDER BY COALESCE(unix_time, 0), recorded_at
    ) AS prev_value,
    ROW_NUMBER() OVER (
        PARTITION BY bench, metric
        ORDER BY COALESCE(unix_time, 0), recorded_at
    ) AS point_index
FROM bench_points;
"""

_MIGRATION_3 = """
DROP VIEW v_iteration_latency;
CREATE VIEW v_iteration_latency AS
SELECT
    e.job_id,
    COALESCE(r.plane, '') AS plane,
    e.iteration,
    e.ts,
    e.ts - LAG(e.ts) OVER (
        PARTITION BY e.job_id ORDER BY e.ts, COALESCE(e.seq, 0)
    ) AS seconds,
    json_extract(e.payload, '$.crypto_ms') AS crypto_ms
FROM events e
LEFT JOIN runs r ON r.job_id = e.job_id
WHERE e.type = 'iteration_completed';
"""

_MIGRATION_4 = """
CREATE TABLE lint_findings (
    report_key  TEXT NOT NULL,    -- '<git_rev>@<recorded_at>'
    fingerprint TEXT NOT NULL,    -- content hash from the lint envelope
    git_rev     TEXT NOT NULL,
    recorded_at TEXT NOT NULL,
    unix_time   REAL,
    rule        TEXT NOT NULL,
    path        TEXT NOT NULL,
    line        INTEGER NOT NULL DEFAULT 0,
    status      TEXT NOT NULL,    -- 'new' | 'suppressed' | 'baselined'
    message     TEXT NOT NULL DEFAULT '',
    snippet     TEXT NOT NULL DEFAULT '',
    justification TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (report_key, fingerprint)
);
CREATE INDEX idx_lint_rule ON lint_findings (rule, git_rev);

CREATE VIEW v_lint_trajectory AS
SELECT
    rule,
    git_rev,
    recorded_at,
    COUNT(*) AS findings,
    SUM(status = 'new') AS new,
    SUM(status = 'suppressed') AS suppressed,
    SUM(status = 'baselined') AS baselined,
    COUNT(*) - LAG(COUNT(*)) OVER w AS delta,
    ROW_NUMBER() OVER w AS point_index
FROM lint_findings
GROUP BY rule, git_rev, recorded_at
WINDOW w AS (
    PARTITION BY rule ORDER BY COALESCE(MIN(unix_time), 0), recorded_at
);
"""

_MIGRATION_5 = """
DROP VIEW v_lint_trajectory;
DROP INDEX idx_lint_rule;
DROP TABLE lint_findings;
"""

#: Ordered migration scripts; ``PRAGMA user_version`` counts how many of
#: these the database has applied.  Append-only — never edit a shipped one.
#: Migration 3 rebuilds ``v_iteration_latency`` with the per-iteration
#: ``crypto_ms`` split the real-crypto planes report (NULL for events
#: written before the field existed, and for planes without real crypto).
#: Migration 4 adds the static-analysis plane: ``lint_findings`` rows from
#: ``chiaroscuro-lint/v1`` envelopes and ``v_lint_trajectory``, the
#: per-rule violation count over revisions (same LAG shape as
#: ``v_bench_trajectory`` — the quality ratchet next to the perf one).
#: Migration 5 drops that plane again, rows included.
MIGRATIONS: tuple[str, ...] = (
    _MIGRATION_1,
    _MIGRATION_2,
    _MIGRATION_3,
    _MIGRATION_4,
    _MIGRATION_5,
)


def schema_version(con: sqlite3.Connection) -> int:
    return int(con.execute("PRAGMA user_version").fetchone()[0])


def connect(path: str | pathlib.Path) -> sqlite3.Connection:
    """Open (creating if needed) a warehouse and migrate it to current.

    Each pending migration is one transaction: a crash mid-migration
    leaves ``user_version`` pointing at the last fully-applied script.
    """
    con = sqlite3.connect(str(path))
    con.row_factory = sqlite3.Row
    con.execute("PRAGMA foreign_keys = ON")
    version = schema_version(con)
    if version > len(MIGRATIONS):
        raise ValueError(
            f"warehouse {path} has schema version {version}; this build "
            f"understands at most {len(MIGRATIONS)} — refusing to write"
        )
    for number in range(version, len(MIGRATIONS)):
        # ``executescript`` commits first and runs its script in autocommit,
        # so the transaction is opened and committed inside the script; a
        # statement that fails leaves it open, and it is rolled back.
        try:
            con.executescript(
                f"BEGIN;\n{MIGRATIONS[number]}\n"
                f"PRAGMA user_version = {number + 1};\nCOMMIT;"
            )
        except BaseException:
            if con.in_transaction:
                con.rollback()
            con.close()
            raise
    return con


def connect_readonly(path: str | pathlib.Path) -> sqlite3.Connection:
    """Open an existing warehouse without the ability to write.

    The ``repro db query`` surface: arbitrary SQL stays safe because the
    connection itself refuses writes (no migration happens here either —
    a too-old file is still queryable for whatever tables it has).
    """
    target = pathlib.Path(path)
    if not target.exists():
        raise FileNotFoundError(f"no warehouse at {target}")
    con = sqlite3.connect(f"file:{target}?mode=ro", uri=True)
    con.row_factory = sqlite3.Row
    return con
