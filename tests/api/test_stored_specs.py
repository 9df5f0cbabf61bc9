"""Every spec dict the tree has committed keeps loading.

Specs outlive the code that wrote them — in ``examples/specs``, in the
reference benchmark's ``perf/specs``, inside every ``chiaroscuro-run/v1``
record of the root ``BENCH_*.json`` files, in job stores and checkpoints —
so a ``RunSpec``/``ChiaroscuroParams`` key that is retired must keep being
read.  The fixture directory holds a ``job.json`` and a vectorized
checkpoint written at ``101c385``, when ``params`` still carried
``protocol_plane`` and ``budget_strategy``; the checkpoint, first stored in
the per-iteration ``checkpoint_000001.json`` layout, is kept as the state
log line that layout converts to (its ``crypto_state`` is a fresh
``random.Random(5)``'s: the vectorized plane never draws from that stream).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
from typing import Iterator

import pytest

from repro.api import DATASETS, CheckpointSaved, Experiment, RunSpec
from repro.api.checkpoint import STATE_LOG
from repro.service import JobState, JobStore, read_events
from repro.service.worker import execute_job

ROOT = pathlib.Path(__file__).resolve().parents[2]
STORED = pathlib.Path(__file__).resolve().parent / "fixtures" / "stored_101c385"

SPEC_FILES = sorted(
    [*ROOT.glob("examples/specs/*.json"), *ROOT.glob("perf/specs/*.json"),
     *ROOT.glob("BENCH_*.json")]
)


def spec_dicts(node) -> Iterator[dict]:
    """Every spec dict in a JSON payload — single, listed or nested."""
    if isinstance(node, dict):
        if isinstance(node.get("dataset"), dict) and isinstance(node.get("init"), dict):
            yield node
        else:
            for value in node.values():
                yield from spec_dicts(value)
    elif isinstance(node, list):
        for value in node:
            yield from spec_dicts(value)


def test_the_walk_finds_the_spec_bearing_files():
    bearing = {
        path.name for path in SPEC_FILES
        if any(spec_dicts(json.loads(path.read_text())))
    }
    assert {"cer_small.json", "attack_grid.json", "service_batch.json",
            "vectorized_mock.json", "warehouse_ingest.json",
            "BENCH_fig3_attack_quality.json", "BENCH_vectorized_crypto.json",
            "BENCH_population_scaling.json"} <= bearing


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_committed_specs_load(path, monkeypatch):
    for stored in spec_dicts(json.loads(path.read_text())):
        kind = stored["dataset"]["kind"]
        if kind not in DATASETS:  # registered by the bench module that ran it
            monkeypatch.setitem(DATASETS._items, kind, lambda seed, **params: None)
        spec = RunSpec.from_dict(stored)
        assert spec.plane == stored.get("plane", "quality")
        assert spec.strategy == stored["strategy"]
        assert RunSpec.from_dict(spec.to_dict()) == spec


def test_parent_written_job_and_checkpoint_resume_bit_identically(tmp_path):
    stored_job = json.loads((STORED / "job.json").read_text())
    assert {"protocol_plane", "budget_strategy"} <= set(stored_job["spec"]["params"])
    store = JobStore(tmp_path)
    job_id = stored_job["job_id"]
    store.checkpoint_dir(job_id).mkdir(parents=True)
    shutil.copy(STORED / "job.json", store.job_path(job_id))
    shutil.copy(STORED / STATE_LOG, store.checkpoint_dir(job_id))

    assert execute_job(store, store.get(job_id)) == 0
    assert store.get(job_id).state == JobState.COMPLETED
    started = read_events(store.events_path(job_id))[0]
    assert (started["type"], started["resumed_iteration"]) == ("run_started", 1)
    result = store.load_result(job_id)["result"]
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    # Pinned when the sparse share sampler redrew the noise stream: the
    # checkpoint carries iteration 1 as the dense sampler drew it, so the
    # resumed run now differs from a fresh one from iteration 2 on (until
    # then this was also the uninterrupted run's digest).
    assert digest == (STORED / "result.sha256").read_text().strip()


def test_a_second_kill_after_resuming_the_stored_log_resumes_from_it(tmp_path):
    """A kill after the stored log's first new record and a second resume
    read the grown log and end at the same digest."""
    stored_job = json.loads((STORED / "job.json").read_text())
    spec = RunSpec.from_dict(stored_job["spec"])
    shutil.copy(STORED / STATE_LOG, tmp_path)
    for event in Experiment.from_spec(spec).run_iter(checkpoint_dir=tmp_path):
        if isinstance(event, CheckpointSaved):
            break  # killed right after iteration 2's record
    events = list(Experiment.from_spec(spec).run_iter(checkpoint_dir=tmp_path))
    assert events[0].resumed_iteration == 2
    result = events[-1].result.to_dict()
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == (STORED / "result.sha256").read_text().strip()
