"""Incremental, idempotent ingestion of the repo's telemetry surfaces.

Source shapes that feed the warehouse:

* **service roots** (``repro serve``'s ``--root``): every ``jobs/<id>/``
  contributes the fold of its lifecycle log ``job.ndjson`` (a legacy
  ``job.json`` as its first record; → ``jobs``), ``events.ndjson``
  (→ ``events`` + ``detections``) and ``result.json`` (→ ``runs`` +
  ``iterations``).  A root-level ``feed.ndjson`` (written by older
  servers) is skipped — it multiplexes the records the per-job logs
  already carry.
* **standalone JSON files**, dispatched on their ``schema`` field through
  the :data:`SHAPES` table (adding a shape is one handler function and
  its row there):

  - ``chiaroscuro-run/v1`` (``repro cluster --json-out``): one ``runs``
    row plus its history;
  - ``chiaroscuro-bench/v1`` (root ``BENCH_*.json`` mirrors): scalar
    metrics → ``bench_points`` (the cross-PR perf trajectory); any
    embedded ``chiaroscuro-run/v1`` runs → ``runs``/``iterations``; any
    ``summary`` detection aggregates → ``detections``.

  A file of any other shape is skipped inside a scanned directory and
  refused when named on its own.

Ingestion is a *delta*, never a rescan (the Berkholz-style discipline of
answering under updates): each NDJSON source keeps a byte-offset
watermark in ``ingest_files`` and only bytes past it are read — and only
up to the last complete line, so a torn tail from a SIGKILL mid-append
stays pending until its newline arrives.  JSON sources keep a
size+mtime fingerprint that is consulted *before* the file is opened: an
unchanged file is not read, a changed one is parsed exactly once.  Every
row insert is keyed stably (events by ``job:seq``, pre-``seq`` logs by
the line's byte offset; JSON-derived rows by their source identity and
upserted), so even a from-scratch re-read — watermarks dropped, same
files — converges to identical row counts.

One idiom throughout: *a handler builds rows, the ingester writes them*
with one ``executemany`` per table.  Event logs go through it in bounded
blocks (:func:`repro.ndjson.read_blocks`, the one NDJSON reader),
each line parsed once and stored as written.
"""

from __future__ import annotations

import calendar
import json
import pathlib
import sqlite3
import time
from typing import Callable, Iterable

from ..ndjson import fold, read_blocks

__all__ = [
    "Ingester",
    "SHAPES",
    "follow_ingest",
    "ingest_paths",
    "table_counts",
]

#: Tables whose row counts summarize an ingest pass.
TABLES = (
    "jobs",
    "runs",
    "iterations",
    "events",
    "detections",
    "bench_points",
    "ingest_files",
)


def table_counts(con: sqlite3.Connection) -> dict[str, int]:
    """Row count per warehouse table (the ``repro db stats`` core)."""
    return {
        table: con.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for table in TABLES
    }


_COMPACT = (",", ":")  # the separators `append_ndjson` writes with


def _fingerprint(path: pathlib.Path) -> str:
    st = path.stat()
    return f"{st.st_size}:{st.st_mtime_ns}"


def _parse_iso(timestamp: str) -> float | None:
    try:
        return float(
            calendar.timegm(time.strptime(timestamp, "%Y-%m-%dT%H:%M:%SZ"))
        )
    except (TypeError, ValueError):
        return None


def _provenance(envelope: dict) -> tuple[str, str, float | None]:
    """``(git_rev, recorded_at, unix_time)`` of a bench envelope.

    Read from the ``provenance`` block, else from the top-level fields
    envelopes carried before it existed; a missing ``unix_time`` is
    parsed from the ISO timestamp.
    """
    provenance = envelope.get("provenance", {})
    git_rev = provenance.get("git_rev") or envelope.get("git_rev", "")
    recorded_at = provenance.get("timestamp") or envelope.get("timestamp", "")
    unix_time = provenance.get("unix_time")
    if unix_time is None:
        unix_time = _parse_iso(recorded_at)
    return git_rev, recorded_at, unix_time


def _flatten_scalars(data, prefix: str = "") -> Iterable[tuple[str, float]]:
    """Dotted-path numeric leaves of a JSON tree, skipping run payloads."""
    if isinstance(data, dict):
        for key, value in data.items():
            if key in ("runs", "schema"):
                continue  # full run records live in `runs`, not as metrics
            yield from _flatten_scalars(value, f"{prefix}{key}.")
    elif isinstance(data, (list, tuple)):
        for index, value in enumerate(data):
            yield from _flatten_scalars(value, f"{prefix}{index}.")
    elif isinstance(data, bool):
        yield prefix.rstrip("."), 1.0 if data else 0.0
    elif isinstance(data, (int, float)):
        yield prefix.rstrip("."), float(data)


def _event_rows(
    records: list[tuple[int, str, dict]], default_job: str
) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """One block of log records as ``events`` rows, ``detections`` rows
    and the ``(job_id,)`` of every ``run_aborted`` among them."""
    events, detections, aborted = [], [], []
    for line_offset, line, record in records:
        job_id = str(record.get("job") or default_job or "?")
        seq = record.get("seq")
        # Stable key: the bus's monotonic per-job seq when present; for
        # pre-seq logs the line's byte offset in its file is just as
        # stable across re-reads (logs are append-only).
        if type(seq) is int:  # not bool
            event_key = f"{job_id}:{seq}"
        else:
            seq, event_key = None, f"{job_id}:@{line_offset}"
        kind = str(record.get("type", "?"))
        iteration = record.get("iteration")
        if type(iteration) is not int:  # a bool is no iteration either
            iteration = None
        events.append(
            (event_key, job_id, seq, record.get("ts"), kind, iteration, line)
        )
        if kind == "fault_detected":
            detections.append((
                event_key,
                f"job:{job_id}",
                job_id,
                iteration,
                record.get("fault", ""),
                record.get("detector", ""),
                len(record.get("participants") or []),
                json.dumps(record.get("detail") or {}, separators=_COMPACT),
            ))
        elif kind == "run_aborted":
            aborted.append((job_id,))
    return events, detections, aborted


class Ingester:
    """Drive incremental ingestion into one open warehouse connection."""

    def __init__(self, con: sqlite3.Connection) -> None:
        self.con = con

    # ------------------------------------------------------------ dispatch

    def ingest_path(self, path: str | pathlib.Path) -> None:
        """Ingest whatever ``path`` is: service root, log, or shaped JSON.

        Directories holding a ``jobs/`` subdirectory are service roots;
        any other directory is scanned for ``*.json`` files of a shape in
        :data:`SHAPES` (``BENCH_*.json`` mirrors first), skipping the rest.
        Commits once the path is in (the per-source methods below do not).
        """
        path = pathlib.Path(path)
        if (path / "jobs").is_dir():
            self.ingest_service_root(path)
        elif path.is_dir():
            benches = sorted(path.glob("BENCH_*.json"))
            others = sorted(set(path.glob("*.json")) - set(benches))
            found = [
                self._ingest_json_once(child, self._ingest_shaped)
                for child in benches + others
            ]
            if not any(found):
                raise ValueError(
                    f"{path}: not a service root (no jobs/) and no "
                    f"BENCH_*.json or run-record files inside"
                )
        elif not path.exists():
            raise FileNotFoundError(str(path))
        elif path.suffix == ".ndjson":
            self.ingest_events_file(path, job_id=path.parent.name)
        elif not self._ingest_json_once(path, self._ingest_shaped):
            raise ValueError(
                f"{path}: unrecognized telemetry file (expected a service "
                f"root, *.ndjson log, BENCH_*.json or chiaroscuro-run/v1 "
                f"record)"
            )
        self.con.commit()

    def _ingest_shaped(self, path: pathlib.Path) -> bool:
        """Parse one standalone JSON file and hand it to its shape's handler.

        Returns ``False`` for a file of no known shape.  A ``BENCH_*``
        name is a claim to be a bench envelope, so anything else under
        that name is an error rather than a skip.
        """
        named_bench = path.name.startswith("BENCH_")
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            if named_bench:
                raise
            return False
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if named_bench and schema != "chiaroscuro-bench/v1":
            raise ValueError(
                f"{path}: not a chiaroscuro-bench/v1 envelope "
                f"(schema={schema!r})"
            )
        handler = SHAPES.get(schema) if isinstance(schema, str) else None
        if handler is None:
            return False
        handler(self, path, payload)
        return True

    # ------------------------------------------------------- service roots

    def ingest_service_root(self, root: str | pathlib.Path) -> None:
        root = pathlib.Path(root)
        jobs_dir = root / "jobs"
        for job_dir in sorted(p for p in jobs_dir.iterdir() if p.is_dir()):
            job_id = job_dir.name
            # The log changes with every state change, a legacy job.json
            # never: the log's fingerprint gates the fold once it exists.
            log_path, legacy = job_dir / "job.ndjson", job_dir / "job.json"
            gate = next((p for p in (log_path, legacy) if p.exists()), None)
            if gate is not None:
                self._ingest_json_once(
                    gate, lambda p: self._ingest_job(log_path, legacy, root)
                )
            self.ingest_events_file(job_dir / "events.ndjson", job_id=job_id)
            result_path = job_dir / "result.json"
            if result_path.exists():
                self._ingest_json_once(
                    result_path,
                    lambda p: self._ingest_result_json(p, job_id),
                )

    def _ingest_json_once(
        self, path: pathlib.Path, handler: Callable[[pathlib.Path], object]
    ) -> bool:
        """Run ``handler`` only when the file changed since last ingest.

        Returns whether the file is ingested.  A handler that returns
        ``False`` declined the file: no watermark is kept for it.
        """
        fingerprint = _fingerprint(path)
        row = self.con.execute(
            "SELECT fingerprint FROM ingest_files WHERE path = ?",
            (str(path),),
        ).fetchone()
        if row is not None and row[0] == fingerprint:
            return True
        if handler(path) is False:
            return False
        self.con.execute(
            "INSERT OR REPLACE INTO ingest_files "
            "(path, kind, byte_offset, fingerprint, ingested_at) "
            "VALUES (?, 'json', 0, ?, ?)",
            (str(path), fingerprint, time.time()),
        )
        return True

    def _ingest_job(
        self, log_path: pathlib.Path, legacy: pathlib.Path, root: pathlib.Path
    ) -> bool:
        record = fold(log_path, legacy=legacy)
        if record is None:  # no complete first line yet: stays pending
            return False
        spec = record.get("spec", {})
        self.con.execute(
            "INSERT OR REPLACE INTO jobs (job_id, root, name, state, plane, "
            "strategy, submitted_at, started_at, finished_at, attempts, error) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record["job_id"],
                str(root),
                record.get("name", ""),
                record.get("state", ""),
                spec.get("plane", ""),
                spec.get("strategy", ""),
                record.get("submitted_at"),
                record.get("started_at"),
                record.get("finished_at"),
                int(record.get("attempts", 0)),
                record.get("error", ""),
            ),
        )
        return True

    def _ingest_result_json(self, path: pathlib.Path, job_id: str) -> None:
        record = json.loads(path.read_text())
        self._upsert_run(
            record, run_key=f"job:{job_id}", source="job", job_id=job_id
        )

    # -------------------------------------------------------------- events

    def ingest_events_file(
        self, path: str | pathlib.Path, job_id: str = ""
    ) -> None:
        """Consume new complete lines of one NDJSON log past its watermark.

        Each block of the log becomes one ``executemany`` per table, in
        the transaction that advances the watermark.
        """
        path = pathlib.Path(path)
        row = self.con.execute(
            "SELECT byte_offset FROM ingest_files WHERE path = ?",
            (str(path),),
        ).fetchone()
        offset = watermark = int(row[0]) if row is not None else 0
        for watermark, records in read_blocks(path, offset):
            events, detections, aborted = _event_rows(records, job_id)
            self.con.executemany(
                "INSERT OR IGNORE INTO events "
                "(event_key, job_id, seq, ts, type, iteration, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                events,
            )
            self.con.executemany(
                "INSERT OR IGNORE INTO detections (detection_key, run_key, "
                "job_id, iteration, fault, detector, participants, count, "
                "detail) VALUES (?, ?, ?, ?, ?, ?, ?, 1, ?)",
                detections,
            )
            # Order-independent abort marking: the run row may not exist
            # yet (result.json lands after the events); _upsert_run does
            # the reverse lookup for that case.
            self.con.executemany(
                "UPDATE runs SET aborted = 1 WHERE job_id = ?", aborted
            )
        if watermark != offset or row is None:
            self.con.execute(
                "INSERT OR REPLACE INTO ingest_files "
                "(path, kind, byte_offset, fingerprint, ingested_at) "
                "VALUES (?, 'ndjson', ?, '', ?)",
                (str(path), watermark, time.time()),
            )

    # ---------------------------------------------------------- run records

    def _ingest_run_record(self, path: pathlib.Path, record: dict) -> None:
        self._upsert_run(
            record, run_key=f"record:{path.resolve()}", source="record"
        )

    def _upsert_run(
        self,
        record: dict,
        run_key: str,
        source: str,
        job_id: str | None = None,
        bench: str | None = None,
        git_rev: str = "",
        recorded_at: str = "",
    ) -> None:
        spec = record.get("spec", {})
        params = spec.get("params", {})
        result = record.get("result", {})
        environment = record.get("environment", {})
        history = result.get("history", [])
        aborted = 0
        if job_id is not None:
            aborted = self.con.execute(
                "SELECT EXISTS(SELECT 1 FROM events "
                "WHERE job_id = ? AND type = 'run_aborted')",
                (job_id,),
            ).fetchone()[0]
        self.con.execute(
            "INSERT OR REPLACE INTO runs (run_key, source, job_id, bench, "
            "git_rev, recorded_at, name, label, strategy, plane, dataset, "
            "seed, churn, epsilon, k, key_bits, bigint_backend, "
            "crypto_backend, converged, aborted, iterations, "
            "final_pre_inertia, wall_seconds) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
            "?, ?, ?, ?, ?)",
            (
                run_key,
                source,
                job_id,
                bench,
                git_rev,
                recorded_at,
                spec.get("name", ""),
                result.get("label", ""),
                spec.get("strategy", ""),
                spec.get("plane", ""),
                spec.get("dataset", {}).get("kind", ""),
                spec.get("seed"),
                spec.get("churn"),
                params.get("epsilon"),
                params.get("k"),
                environment.get("key_bits"),
                environment.get("bigint_backend", ""),
                environment.get("crypto_backend", ""),
                1 if result.get("converged") else 0,
                int(aborted),
                len(history),
                history[-1]["pre_inertia"] if history else None,
                record.get("timings", {}).get("wall_seconds"),
            ),
        )
        self.con.execute(
            "DELETE FROM iterations WHERE run_key = ?", (run_key,)
        )
        self.con.executemany(
            "INSERT INTO iterations (run_key, iteration, pre_inertia, "
            "post_inertia, n_centroids, epsilon_spent) VALUES (?, ?, ?, ?, "
            "?, ?)",
            [
                (
                    run_key,
                    int(entry["iteration"]),
                    entry.get("pre_inertia"),
                    entry.get("post_inertia"),
                    entry.get("n_centroids"),
                    entry.get("epsilon_spent"),
                )
                for entry in history
            ],
        )

    # -------------------------------------------------------------- benches

    def _ingest_bench(self, path: pathlib.Path, envelope: dict) -> None:
        bench = envelope.get("bench") or path.stem.replace("BENCH_", "")
        git_rev, recorded_at, unix_time = _provenance(envelope)
        data = envelope.get("data", {})

        self.con.executemany(
            "INSERT OR REPLACE INTO bench_points "
            "(bench, git_rev, recorded_at, unix_time, metric, value) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [
                (bench, git_rev, recorded_at, unix_time, metric, value)
                for metric, value in _flatten_scalars(data)
            ],
        )

        runs = data.get("runs") if isinstance(data, dict) else None
        run_keys_by_name: dict[str, str] = {}
        if isinstance(runs, list):
            for index, record in enumerate(runs):
                if not (
                    isinstance(record, dict)
                    and record.get("schema") == "chiaroscuro-run/v1"
                ):
                    continue
                name = record.get("spec", {}).get("name", "")
                run_key = f"bench:{bench}:{git_rev}:{index:03d}:{name}"
                self._upsert_run(
                    record,
                    run_key=run_key,
                    source="bench",
                    bench=bench,
                    git_rev=git_rev,
                    recorded_at=recorded_at,
                )
                run_keys_by_name[name] = run_key

        summary = data.get("summary") if isinstance(data, dict) else None
        if isinstance(summary, dict):
            self._ingest_bench_summary(
                bench, git_rev, summary, run_keys_by_name
            )

    def _ingest_bench_summary(
        self,
        bench: str,
        git_rev: str,
        summary: dict,
        run_keys_by_name: dict[str, str],
    ) -> None:
        """Detection aggregates from a bench's summary block.

        Each deployment entry contributes one ``detections`` row per
        detector it lists; the first listed detector carries the count
        remainder so ``SUM(count)`` reproduces the entry's total exactly.
        """
        rows, aborted = [], []
        for deployment, entry in summary.items():
            if not isinstance(entry, dict):
                continue
            detections = entry.get("detections")
            if not isinstance(detections, int) or detections <= 0:
                continue
            detectors = [str(d) for d in entry.get("detectors", [])] or [""]
            run_key = self._match_summary_run(
                deployment, run_keys_by_name
            )
            if entry.get("aborted") and run_key:
                aborted.append((run_key,))
            fault = deployment
            for suffix in ("-mild", "-severe"):
                if fault.endswith(suffix):
                    fault = fault[: -len(suffix)]
            detail = json.dumps(entry.get("audit") or {}, separators=_COMPACT)
            remainder = detections - (len(detectors) - 1)
            rows += [
                (
                    f"bench:{bench}:{git_rev}:{deployment}:{detector}",
                    run_key,
                    fault,
                    detector,
                    remainder if position == 0 else 1,
                    detail,
                )
                for position, detector in enumerate(detectors)
            ]
        self.con.executemany(
            "UPDATE runs SET aborted = 1 WHERE run_key = ?", aborted
        )
        self.con.executemany(
            "INSERT OR REPLACE INTO detections (detection_key, run_key, "
            "job_id, iteration, fault, detector, participants, count, "
            "detail) VALUES (?, ?, NULL, NULL, ?, ?, 0, ?, ?)",
            rows,
        )

    @staticmethod
    def _match_summary_run(
        deployment: str, run_keys_by_name: dict[str, str]
    ) -> str | None:
        """Map a summary label to the bench run it summarizes.

        Labels are run names minus a common prefix (``"network-mild"``
        for a run named ``"attack-network-mild"``), so match exact name
        first, then unique suffix.
        """
        if deployment in run_keys_by_name:
            return run_keys_by_name[deployment]
        matches = [
            key
            for name, key in run_keys_by_name.items()
            if name.endswith(f"-{deployment}")
        ]
        return matches[0] if len(matches) == 1 else None


#: Standalone JSON telemetry shapes: ``schema`` field →
#: ``handler(ingester, path, payload)``, called once per changed file
#: with the parsed payload.
SHAPES: dict[str, Callable[[Ingester, pathlib.Path, dict], None]] = {
    "chiaroscuro-bench/v1": Ingester._ingest_bench,
    "chiaroscuro-run/v1": Ingester._ingest_run_record,
}


def ingest_paths(
    con: sqlite3.Connection, paths: Iterable[str | pathlib.Path]
) -> dict[str, int]:
    """One incremental pass over ``paths``; returns new-rows-per-table."""
    before = table_counts(con)
    ingester = Ingester(con)
    for path in paths:
        ingester.ingest_path(path)
    after = table_counts(con)
    return {table: after[table] - before[table] for table in after}


def follow_ingest(
    con: sqlite3.Connection,
    paths: Iterable[str | pathlib.Path],
    poll_interval: float = 0.5,
    should_stop: Callable[[], bool] | None = None,
    on_cycle: Callable[[dict[str, int]], None] | None = None,
) -> dict[str, int]:
    """Live tailing mode: repeat incremental passes until told to stop.

    Each cycle is exactly one :func:`ingest_paths` delta (so a running
    ``repro serve`` fleet's events stream in as their newlines land);
    ``on_cycle`` observes every cycle's new-row counts and
    ``should_stop`` is consulted *between* cycles.  Ctrl-C is the other
    stop request.  Either way returns the total new rows across all
    completed cycles.
    """
    paths = list(paths)
    totals: dict[str, int] = {}
    try:
        while True:
            delta = ingest_paths(con, paths)
            for table, count in delta.items():
                totals[table] = totals.get(table, 0) + count
            if on_cycle is not None:
                on_cycle(delta)
            if should_stop is not None and should_stop():
                break
            time.sleep(poll_interval)
    except KeyboardInterrupt:
        pass
    return totals
