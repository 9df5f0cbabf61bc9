"""Warehouse write side at scale — ingest events/s and report latency.

The layer point ROADMAP item 2 asks for: a synthetic service root of
``EVENTS`` event lines over ``JOBS`` jobs, written the way a fleet writes
it (``EventBus.publish_record``, one real job's events as the templates,
every job with its ``result.json``), then through the warehouse's public
API:

* **bulk** — one ``ingest_paths`` pass over 99 % of the lines into a
  fresh on-disk warehouse (median of ``REPEATS`` fresh warehouses);
* **incremental** — the remaining 1 % appended to the live logs, one pass;
* **no-op** — the pass after that, which must add nothing;
* **report** — ``report_latency`` over every ingested event: one ordered
  scan of ``events`` that reads ``crypto_ms`` out of each
  ``iteration_completed`` payload through ``json_extract``.

Every published line must land as exactly one ``events`` row.

The bench only uses the public API, so the *before* point of a change is
taken by copying this file and ``conftest.py`` into a checkout of the
parent revision and running it there.  Only the head's envelope is
committed (``BENCH_warehouse_ingest.json``, with its provenance); the
parent's numbers go into ``docs/PERFORMANCE.md`` beside it, not into a
second root file named after the revision.

``test_warehouse_ingest_smoke`` is CI's reduced, wall-clock-guarded size;
run with ``--basetemp`` its root stays on disk for the re-ingest gate.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import record_json, record_report
from repro.api import Experiment, RunCompleted, RunSpec, atomic_write_text, run_record
from repro.service import EventBus, JobState, JobStore, read_events
from repro.warehouse import connect, ingest_paths, report_latency, table_counts

EVENTS = 100_000
JOBS = 20
REPEATS = 3

TEMPLATE = RunSpec.from_dict({
    "name": "warehouse-bench",
    "plane": "vectorized",
    "seed": 1,
    "strategy": "G",
    "dataset": {"kind": "cer",
                "params": {"n_series": 100, "population_scale": 100}},
    "init": {"kind": "courbogen"},
    "params": {"k": 3, "max_iterations": 4, "epsilon": 50.0, "theta": 0.0,
               "exchanges": 10},
})


def build_root(root, jobs: int):
    """A fleet of ``jobs`` completed jobs (plus the real one their events
    are copied from).  Returns ``append(count)``, which publishes ``count``
    more template events to every job's log, and the lines already there."""
    store = JobStore(root)
    template_job = store.claim(store.submit(TEMPLATE))
    bus = EventBus(store, template_job.job_id)
    for event in Experiment.from_spec(TEMPLATE).run_iter():
        bus.publish(event)
        if isinstance(event, RunCompleted):
            record = run_record(TEMPLATE, event.result,
                                timings={"wall_seconds": 0.5})
    real_events = read_events(store.events_path(template_job.job_id))
    templates = [
        event for event in real_events if event["type"] == "iteration_completed"
    ]
    assert templates, "the template run completed no iteration"

    claimed = [store.claim(job) for job in store.submit_batch([TEMPLATE] * jobs)]
    buses = [EventBus(store, job.job_id) for job in claimed]
    for job in [template_job, *claimed]:
        atomic_write_text(store.result_path(job.job_id), json.dumps(record))
        store.update(job.job_id, state=JobState.COMPLETED, finished_at=1.0)
    written = [0] * jobs

    def append(count: int) -> int:
        for index, (job, bus) in enumerate(zip(claimed, buses)):
            for line in range(written[index], written[index] + count):
                event = dict(templates[line % len(templates)])
                del event["seq"]  # the bus stamps the job's own
                event.update(job=job.job_id, iteration=line,
                             ts=round(1000.0 + 0.25 * line, 3))
                bus.publish_record(event)
            written[index] += count
        return count * jobs

    return append, len(real_events)


def measure(tmp_path, events: int, jobs: int) -> dict:
    root = tmp_path / "fleet"
    append, published = build_root(root, jobs)
    tail_per_job = max(1, events // 100 // jobs)
    published += append(events // jobs - tail_per_job)

    bulk_samples = []
    for repeat in range(REPEATS):
        con = connect(tmp_path / f"warehouse-{repeat}.db")
        started = time.perf_counter()
        delta = ingest_paths(con, [root])
        bulk_samples.append(time.perf_counter() - started)
        assert delta["events"] == published, (delta, published)
        if repeat < REPEATS - 1:
            con.close()
    bulk_seconds = statistics.median(bulk_samples)

    tail = append(tail_per_job)
    started = time.perf_counter()
    delta = ingest_paths(con, [root])
    incremental_seconds = time.perf_counter() - started
    assert delta["events"] == tail, (delta, tail)

    before = table_counts(con)
    started = time.perf_counter()
    delta = ingest_paths(con, [root])
    noop_seconds = time.perf_counter() - started
    assert not any(delta.values()) and table_counts(con) == before, delta

    report_samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        report = report_latency(con)
        report_samples.append(time.perf_counter() - started)
    assert "vectorized" in report, report
    con.close()

    return {
        "events": published + tail,
        "jobs": jobs,
        "repeats": REPEATS,
        "log_bytes": sum(
            path.stat().st_size for path in root.glob("jobs/*/events.ndjson")
        ),
        "bulk_events": published,
        "bulk_seconds": round(bulk_seconds, 4),
        "bulk_seconds_samples": [round(s, 4) for s in bulk_samples],
        "bulk_events_per_s": round(published / bulk_seconds),
        "bulk_us_per_event": round(bulk_seconds / published * 1e6, 2),
        "incremental_events": tail,
        "incremental_seconds": round(incremental_seconds, 4),
        "noop_seconds": round(noop_seconds, 4),
        "report_latency_seconds": round(statistics.median(report_samples), 4),
        "report_latency_seconds_samples": [round(s, 4) for s in report_samples],
    }


def report_lines(data: dict) -> list[str]:
    return [
        f"{'bulk ingest':<26}{data['bulk_seconds']:>9.3f} s"
        f"{data['bulk_events_per_s']:>10} events/s",
        f"{'1 % tail, one pass':<26}{data['incremental_seconds']:>9.3f} s"
        f"{data['incremental_events']:>10} events",
        f"{'no-op pass':<26}{data['noop_seconds']:>9.3f} s",
        f"{'report latency':<26}{data['report_latency_seconds']:>9.3f} s",
    ]


def test_warehouse_ingest(tmp_path):
    data = measure(tmp_path, EVENTS, JOBS)
    record_json("warehouse_ingest", data)
    record_report(
        "warehouse_ingest",
        f"Warehouse ingest: {data['events']} events over {JOBS} jobs "
        f"(bulk: median of {REPEATS} fresh warehouses)",
        report_lines(data),
    )


def test_warehouse_ingest_smoke(tmp_path):
    """CI leg: a fifth of the events, wall-clock-guarded."""
    started = time.perf_counter()
    data = measure(tmp_path, EVENTS // 5, JOBS)
    elapsed = time.perf_counter() - started
    data["wall_seconds"] = round(elapsed, 2)
    record_json("warehouse_ingest_smoke", data)
    record_report(
        "warehouse_ingest_smoke",
        f"Warehouse ingest smoke: {data['events']} events over {JOBS} jobs",
        report_lines(data),
    )
    # Wall-clock guard, generous on purpose (a hosted runner is not the
    # reference VM): two head runs there took 2.5 and 3.7 s, about half of
    # it writing the logs; the per-line ingester this replaced took 4.4 s.
    # What it catches is ingest or the latency view going quadratic.
    assert elapsed < 20.0, f"warehouse smoke took {elapsed:.1f}s (cap 20s)"
