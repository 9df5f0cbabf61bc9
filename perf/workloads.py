"""The six pinned workloads.  One *op* = set up once, run once, then check.

Every function takes the workload's config (``perf/specs/<name>.json``,
already scaled), the workload seed, a :class:`~perf.spans.Recorder` and a
scratch directory, and returns the op's measurements::

    ready_s       spec → ready (the caller adds the import time → setup_s)
    run_s         the timed run
    run_window    (start, end) perf_counter stamps of the run, for coverage
    spans_end     optional: later stamp up to which spans belong to the op
    iter_samples  seconds per repeated unit after the first
    peak_rss_mb   high-water RSS read right after the run, before the checks
    probes        calibration probes taken just before and just after the run
    attempted / failed / failures   the correctness checks' operation counts
    digest        sha256 of the decoded outputs (identical across repeats)
    layers        per-layer values the harness times itself

All timers exclude the correctness checks.  The program under test only
sees generated inputs: ``seed`` feeds ``RunSpec.seed`` and the synthetic
generators, never a code path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random
import resource
import statistics
import time

import numpy as np

from repro.api import (
    PLANES,
    Experiment,
    IterationCompleted,
    RunCompleted,
    RunSpec,
    RunStarted,
    atomic_write_text,
    run_record,
)
from repro.service import EventBus, JobState, JobStore, read_events, run_batch
from repro.warehouse import (
    connect,
    ingest_paths,
    report_attacks,
    report_bench,
    report_fig2,
    report_fig3,
    report_latency,
    table_counts,
)

from .calibration import probe
from .spans import Recorder

__all__ = ["WORKLOADS", "load_config", "result_digest"]

SPECS_DIR = pathlib.Path(__file__).resolve().parent / "specs"

#: ``max_workers`` of the service workload — the box has two cores.
BATCH_WORKERS = 2

#: Shape of the synthetic service root the warehouse workload ingests.
WAREHOUSE_SHAPE = {"jobs": 10, "lines_per_job": 1200, "slices": 4}

#: The replayed event mix, fixed so ingest work does not depend on how many
#: detections the seed's template run happened to raise.
REPLAY_PATTERN = ("iteration_completed",) * 8 + ("fault_detected",) * 2

#: Overrides that shrink each workload to a sub-second op (``--scale toy``:
#: the tests' size, never a measurement).
TOY = {
    "vcrypto_encrypt": {
        "strategy": "UF2",
        "dataset": {"params": {"points_per_cluster": 4, "duplications": 2}},
        "params": {"max_iterations": 2},
    },
    "vcrypto_gossip": {
        "strategy": "UF2",
        "dataset": {"params": {"points_per_cluster": 5, "duplications": 3}},
        "params": {"max_iterations": 2, "exchanges": 6},
    },
    "object_decrypt": {
        "strategy": "UF2",
        "dataset": {"params": {"points_per_cluster": 2}},
        "params": {"max_iterations": 2, "key_bits": 256, "exchanges": 3},
    },
    "vectorized_mock": {
        "strategy": "UF2",
        "dataset": {"params": {"points_per_cluster": 10, "duplications": 2}},
        "params": {"max_iterations": 2, "exchanges": 6},
    },
}
TOY_BATCH_JOBS = 2
TOY_WAREHOUSE_SHAPE = {"jobs": 4, "lines_per_job": 40, "slices": 2}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(workload: str, scale: str = "full"):
    """The workload's pinned spec(s), shrunk when ``scale == "toy"``."""
    config = json.loads((SPECS_DIR / f"{workload}.json").read_text())
    toy = scale == "toy"
    if workload == "warehouse_ingest":
        shape = TOY_WAREHOUSE_SHAPE if toy else WAREHOUSE_SHAPE
        return {"template": config, **shape}
    if workload == "service_batch":
        return config[:TOY_BATCH_JOBS] if toy else config
    return _merge(config, TOY[workload]) if toy else config


def result_digest(result: dict) -> str:
    """sha256 over decoded centroids + the pre-inertia history.

    Taken on the JSON form of a result (``ClusteringResult.to_dict`` or a
    stored record's ``result`` block) — floats round-trip exactly, so an
    inline run and a service job of the same spec hash alike.
    """
    payload = {
        "centroids": result["centroids"],
        "history": [
            [stats["centroids"], stats["pre_inertia"]]
            for stats in result["history"]
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ------------------------------------------------------ protocol workloads


def _check_protocol(spec: RunSpec, result: dict) -> tuple[int, list[str]]:
    """Relational checks every protocol workload shares.

    Operations attempted: one per Algorithm 1 iteration, plus the ε ledger.
    """
    failures = []
    iterations = spec.params.max_iterations
    history = result["history"]
    for index in range(iterations):
        if index >= len(history):
            failures.append(f"iteration {index + 1} not completed")
        elif history[index]["n_centroids"] != spec.params.k:
            failures.append(
                f"iteration {index + 1}: {history[index]['n_centroids']} "
                f"centroids, expected k={spec.params.k}"
            )
    spent = sum(stats["epsilon_spent"] for stats in history)
    if spent > spec.params.epsilon * (1 + 1e-9):
        failures.append(f"epsilon spent {spent} exceeds {spec.params.epsilon}")
    return iterations + 1, failures


def _matches_mock_plane(result: dict, mock: dict, mode: str) -> bool:
    """Real-ciphertext plane vs. the ``vectorized`` plane at the same seed.

    Relational, so a digest re-pin in ``src/`` cannot break it.  "exact" is
    the repo's pinned contract (bit-identical decoded centroids).  It only
    holds while 2·n_e + 24 fractional bits fit a double's mantissa: at the
    paper's n_e = 30 the *mock* plane's normalized floats round while the
    ciphertext plane stays exact, so "ulp" allows last-bit differences in
    the centroids and still wants the pre-inertia history identical.
    """
    if mode == "exact":
        return result_digest(result) == result_digest(mock)
    if len(result["history"]) != len(mock["history"]):
        return False
    return all(
        ours["pre_inertia"] == theirs["pre_inertia"]
        and np.shape(ours["centroids"]) == np.shape(theirs["centroids"])
        and np.allclose(ours["centroids"], theirs["centroids"], rtol=1e-12, atol=0)
        for ours, theirs in zip(result["history"], mock["history"])
    )


def _protocol_op(
    config: dict,
    seed: int,
    recorder: Recorder,
    workdir: pathlib.Path,
    reference: str | None = None,
) -> dict:
    """One spec through ``Experiment``; ``reference`` ("exact" | "ulp")
    also checks the decoded result against the mock plane's."""
    del workdir  # protocol ops touch no files
    spec = RunSpec.from_dict({**config, "seed": seed})

    started = time.perf_counter()
    experiment = Experiment.from_spec(spec)
    experiment.context  # dataset + initial centroids
    ready_s = time.perf_counter() - started
    probes = [probe()]

    result = None
    environment = {}
    marks = [time.perf_counter()]
    for event in experiment.run_iter():
        if isinstance(event, IterationCompleted):
            marks.append(time.perf_counter())
        elif isinstance(event, RunStarted):
            environment = {
                "crypto_backend": event.crypto_backend,
                "bigint_backend": event.bigint_backend,
                "key_bits": event.key_bits,
            }
        elif isinstance(event, RunCompleted):
            result = event.result
    record, _ = recorder.timed(
        "api.experiment.run_record",
        run_record,
        spec,
        result,
        {"wall_seconds": time.perf_counter() - marks[0]},
        None,
        environment,
    )
    finished = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()
    probes.append(probe())

    attempted, failures = _check_protocol(spec, record["result"])
    digest = result_digest(record["result"])
    if reference is not None:
        attempted += 1
        mock = Experiment.from_spec(spec.with_plane("vectorized")).run().to_dict()
        if not _matches_mock_plane(record["result"], mock, reference):
            failures.append(f"decoded result differs from the mock plane ({reference})")
    iteration_seconds = [b - a for a, b in zip(marks, marks[1:])]
    return {
        "ready_s": ready_s,
        "run_s": finished - marks[0],
        "run_window": (marks[0], finished),
        "iter_samples": iteration_seconds[1:],
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": digest,
        "bigint_backend": environment.get("bigint_backend", ""),
        "layers": {},
    }


# ----------------------------------------------------------- service_batch


def service_batch(config, seed, recorder, workdir):
    """Small specs through ``run_batch``: spawn/import/store/bus overhead."""
    started = time.perf_counter()
    specs = [
        RunSpec.from_dict({**entry, "seed": seed * 1000 + index})
        for index, entry in enumerate(config)
    ]
    root = workdir / "service-root"
    ready_s = time.perf_counter() - started
    probes = [probe()]

    run_start = time.perf_counter()
    try:
        records = run_batch(specs, root, max_workers=BATCH_WORKERS, timeout=150)
    except (RuntimeError, TimeoutError):
        records = []  # counted job by job from the store below
    finished = time.perf_counter()
    run_s = finished - run_start
    peak_rss_mb = max(_peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN))
    probes.append(probe())

    # Inline baseline of the same specs (checkpointing like a worker does):
    # the digests the jobs must reproduce, and Σ inline for job_overhead_s.
    inline_s = 0.0
    inline_digests = []
    for index, spec in enumerate(specs):
        checkpoint_dir = (
            str(workdir / "inline-checkpoints" / str(index))
            if PLANES.get(spec.plane).supports_checkpoint
            else None
        )
        inline_start = time.perf_counter()
        result = Experiment.from_spec(spec).run(checkpoint_dir=checkpoint_dir)
        inline_s += time.perf_counter() - inline_start
        inline_digests.append(result_digest(result.to_dict()))
    spans_end = time.perf_counter()  # the inline runs are part of the trace

    store = JobStore(root)
    jobs = store.jobs()
    failures = [
        f"job {job.job_id}: {job.state} {job.error}".strip()
        for job in jobs
        if job.state != JobState.COMPLETED
    ]
    failures += [f"{len(specs) - len(jobs)} job(s) never submitted"] * (
        len(jobs) < len(specs)
    )
    for index, record in enumerate(records):
        if result_digest(record["result"]) != inline_digests[index]:
            failures.append(f"job {index}: digest differs from the inline run")

    job_walls, first_event_waits = [], []
    for job in jobs:
        if job.started_at is None or job.finished_at is None:
            continue
        job_walls.append(job.finished_at - job.started_at)
        events = read_events(store.events_path(job.job_id))
        if events:
            first_event_waits.append(events[0]["ts"] - job.started_at)
    return {
        "ready_s": ready_s,
        "run_s": run_s,
        "run_window": (run_start, finished),
        "spans_end": spans_end,
        "iter_samples": job_walls,
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
        "attempted": len(specs),
        "failed": len(failures),
        "failures": failures,
        "digest": hashlib.sha256("".join(inline_digests).encode()).hexdigest(),
        "bigint_backend": "python",
        "layers": {
            "service.job_overhead_s": (run_s * BATCH_WORKERS - inline_s)
            / len(specs),
            "service.worker.job_wall_s": statistics.median(job_walls or [0.0]),
            "service.worker.spawn_to_first_event_s": statistics.median(
                first_event_waits or [0.0]
            ),
        },
    }


# -------------------------------------------------------- warehouse_ingest


def _run_real_job(store: JobStore, spec: RunSpec) -> tuple[list[dict], dict]:
    """Execute one job inline the way a worker does; returns its published
    event records and its ``chiaroscuro-run/v1`` record."""
    job = store.claim(store.submit(spec))
    bus = EventBus(store, job.job_id)
    started = time.perf_counter()
    result = None
    for event in Experiment.from_spec(spec).run_iter():
        bus.publish(event)
        if isinstance(event, RunCompleted):
            result = event.result
    record = run_record(
        spec, result, timings={"wall_seconds": time.perf_counter() - started}
    )
    atomic_write_text(
        store.result_path(job.job_id), json.dumps(record, indent=2) + "\n"
    )
    store.update(job.job_id, state=JobState.COMPLETED, finished_at=time.time())
    return read_events(store.events_path(job.job_id)), record


def _write_bench_points(directory: pathlib.Path) -> None:
    """Two revisions of one synthetic bench, so ``report_bench`` has a
    trajectory to render."""
    directory.mkdir()
    for index, rev in enumerate(("aaaaaaa", "bbbbbbb")):
        envelope = {
            "schema": "chiaroscuro-bench/v1",
            "bench": "perf_synthetic",
            "git_rev": rev,
            "timestamp": f"2026-01-0{index + 1}T00:00:00Z",
            "data": {"seconds": 1.0 + index, "points": 10 * (index + 1)},
        }
        (directory / f"BENCH_perf_synthetic_{rev}.json").write_text(
            json.dumps(envelope)
        )


REPORTS = {
    "fig2": report_fig2,
    "fig3": report_fig3,
    "latency": report_latency,
    "attacks": report_attacks,
    "bench": report_bench,
}


def warehouse_ingest(config, seed, recorder, workdir):
    """Bulk, incremental and no-op ingest of a synthetic fleet, then the
    five reports — writes beside reads, all sqlite/JSON."""
    n_jobs, lines_per_job, slices = (
        config["jobs"], config["lines_per_job"], config["slices"],
    )
    bulk_lines = lines_per_job * 9 // 10
    slice_lines = (lines_per_job - bulk_lines) // slices
    rng = random.Random(seed)

    started = time.perf_counter()
    root = workdir / "fleet"
    store = JobStore(root)
    spec = RunSpec.from_dict({**config["template"], "seed": seed})
    real_events, record = _run_real_job(store, spec)
    by_type: dict[str, list[dict]] = {}
    for event in real_events:
        by_type.setdefault(event["type"], []).append(event)
    missing = [kind for kind in set(REPLAY_PATTERN) if kind not in by_type]
    if missing:
        raise RuntimeError(f"template run raised no {missing} event")

    jobs = [store.claim(job) for job in store.submit_batch([spec] * n_jobs)]
    buses = [EventBus(store, job.job_id) for job in jobs]
    for job in jobs:
        atomic_write_text(
            store.result_path(job.job_id), json.dumps(record) + "\n"
        )
        store.update(
            job.job_id, state=JobState.COMPLETED, finished_at=time.time()
        )

    def replay(first_line: int, count: int) -> int:
        """Append ``count`` template events to every job's log."""
        for job, bus in zip(jobs, buses):
            for line in range(first_line, first_line + count):
                kind = REPLAY_PATTERN[line % len(REPLAY_PATTERN)]
                event = dict(rng.choice(by_type[kind]))
                del event["seq"]  # the bus stamps the job's own
                event["job"] = job.job_id
                bus.publish_record(event)
        return count * len(jobs)

    publish_start = time.perf_counter()
    published = published_bulk = replay(0, bulk_lines)
    publish_s = time.perf_counter() - publish_start
    bench_dir = workdir / "bench"
    _write_bench_points(bench_dir)
    con, _ = recorder.timed(
        "warehouse.schema.connect", connect, workdir / "warehouse.db"
    )
    ready_s = time.perf_counter() - started
    probes = [probe()]
    sources = [root, bench_dir]

    run_start = time.perf_counter()
    delta, bulk_s = recorder.timed(
        "warehouse.ingest.bulk", ingest_paths, con, sources
    )
    bulk_rows = delta["events"]
    incremental = []  # seconds per pass; appending the live tail is untimed
    incremental_rows = 0
    for index in range(slices):
        published += replay(bulk_lines + index * slice_lines, slice_lines)
        delta, seconds = recorder.timed(
            "warehouse.ingest.incremental", ingest_paths, con, sources
        )
        incremental_rows += delta["events"]
        incremental.append(seconds)
    before = table_counts(con)
    noop_delta, noop_s = recorder.timed(
        "warehouse.ingest.noop", ingest_paths, con, sources
    )
    after = table_counts(con)
    reports, report_seconds = {}, {}
    for name, render in REPORTS.items():
        reports[name], report_seconds[name] = recorder.timed(
            f"warehouse.report.{name}", render, con
        )
    finished = time.perf_counter()
    report_s = sum(report_seconds.values())
    run_s = bulk_s + sum(incremental) + noop_s + report_s
    peak_rss_mb = _peak_rss_mb()
    probes.append(probe())

    total_lines = published + len(real_events)
    event_rows = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    con.close()
    failures = []
    if before != after or any(noop_delta.values()):
        failures.append(f"no-op ingest changed the tables: {noop_delta}")
    failures += [
        f"report {name} is empty: {text[:60]!r}"
        for name, text in reports.items()
        if "\n" not in text  # a rendered table is a header plus >= 1 row
    ]
    failed = len(failures)
    if event_rows != total_lines:  # every lost (or doubled) line is a failed op
        failed += abs(total_lines - event_rows)
        failures.append(f"published {total_lines} lines, ingested {event_rows}")
    return {
        "ready_s": ready_s,
        "run_s": run_s,
        "run_window": (run_start, finished),
        # The repeated unit here is a thousand bulk-ingested event rows: an
        # incremental pass is ~15 ms around one fsync'd commit, which times
        # the disk's mood, not the ingest (it stays a per-layer metric).
        "iter_samples": [bulk_s / bulk_rows * 1000],
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
        "attempted": total_lines + 1 + len(reports),
        "failed": failed,
        "failures": failures,
        "digest": result_digest(record["result"]),
        "bigint_backend": record["environment"]["bigint_backend"],
        "layers": {
            "service.bus.publish_us": publish_s / published_bulk * 1e6,
            "warehouse.ingest.rows": bulk_rows + incremental_rows,
            "warehouse.events_per_s": bulk_rows / bulk_s,
            "warehouse.report_s": report_s,
        },
    }


WORKLOADS = {
    "vcrypto_encrypt": functools.partial(_protocol_op, reference="exact"),
    "vcrypto_gossip": functools.partial(_protocol_op, reference="ulp"),
    "object_decrypt": _protocol_op,
    "vectorized_mock": _protocol_op,
    "service_batch": service_batch,
    "warehouse_ingest": warehouse_ingest,
}
