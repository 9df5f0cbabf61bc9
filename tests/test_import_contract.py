"""What a run imports (``docs/ARCHITECTURE.md``, "What a run imports").

Loading ``repro.api``, ``repro.service`` and ``repro.warehouse`` loads the
Algorithm 1/3 loop and the mock substrate; the real-ciphertext substrate
and the fault plane load while a spec that names them resolves — never
inside ``run_iter``.  Each check runs in a fresh
interpreter, so nothing this test process imported can hide a regression.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api import PLANES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SPEC = {
    "seed": 3,
    "strategy": "UF2",
    "dataset": {
        "kind": "points2d",
        "params": {"n_clusters": 3, "points_per_cluster": 4, "duplications": 2},
    },
    "init": {"kind": "sample"},
    "params": {"k": 3, "max_iterations": 2, "key_bits": 256, "exchanges": 4},
}
FAULTS = [{"kind": "network", "params": {"loss": 0.1}}]


def _fresh(code: str) -> list:
    """Run ``code`` in a new interpreter; it prints one JSON value last."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_front_doors_and_mock_specs_load_no_crypto_and_no_faults():
    loaded = _fresh(f"""
import json, sys
import repro.api, repro.service, repro.warehouse
from repro.api import Experiment, RunSpec
for plane in ("vectorized", "quality"):
    spec = RunSpec.from_dict({{**{SPEC!r}, "plane": plane}})
    Experiment.from_spec(spec).context
print(json.dumps(sorted(sys.modules)))
""")
    crypto = [m for m in loaded if m.startswith("repro.crypto.")]
    assert crypto == ["repro.crypto.bigint"]
    assert [m for m in loaded if m.startswith("repro.faults")] == []
    assert [m for m in ("fractions", "decimal") if m in loaded] == []


def test_a_faulted_array_spec_loads_no_ciphertext_module():
    """A vectorized spec with a fault block (the benchmark's
    ``warehouse_ingest``, byzantine) resolves without the real-ciphertext
    substrate or the object engine: the fault proxy serves either engine
    unimported, and the collusion audit defers its key leg."""
    spec = ROOT / "perf" / "specs" / "warehouse_ingest.json"
    loaded = _fresh(f"""
import json, sys
from repro.api import Experiment, RunSpec
spec = RunSpec.from_dict(json.load(open({str(spec)!r})))
Experiment.from_spec(spec).context
print(json.dumps(sorted(sys.modules)))
""")
    crypto = [m for m in loaded if m.startswith("repro.crypto.")]
    assert crypto == ["repro.crypto.bigint"]
    assert "repro.gossip.engine" not in loaded
    assert "repro.faults.engines" in loaded


@pytest.mark.parametrize(
    "plane, faults",
    [(plane, []) for plane in PLANES] + [("vectorized", FAULTS)],
    ids=[*PLANES, "vectorized-faulted"],
)
def test_a_run_imports_nothing_its_resolved_spec_did_not(plane, faults):
    """``run_iter`` after ``.context`` adds no ``repro`` module — nor does
    ``.context`` after ``RunSpec.from_dict``, so a worker forked after its
    specs were built imports nothing."""
    by_context, by_run = _fresh(f"""
import json, sys
from repro.api import Experiment, RunSpec
spec = RunSpec.from_dict({{**{SPEC!r}, "plane": {plane!r}, "faults": {faults!r}}})
loaded = [set(sys.modules)]
experiment = Experiment.from_spec(spec)
experiment.context
loaded.append(set(sys.modules))
events = list(experiment.run_iter())
assert type(events[-1]).__name__ == "RunCompleted", events[-1]
loaded.append(set(sys.modules))
print(json.dumps([
    sorted(m for m in after - before if m.startswith("repro"))
    for before, after in zip(loaded, loaded[1:])
]))
""")
    assert by_run == []
    assert by_context == []


def test_a_served_job_imports_nothing_in_its_worker(tmp_path):
    """A job submitted by another process (``repro submit``) reaches the
    scheduler as a stored dict; the scheduler resolves it before forking
    its worker, so even a job that runs alone imports nothing in there."""
    from repro.service import JobStore

    store = JobStore(tmp_path / "root")
    for plane, faults in (("vectorized-crypto", []), ("vectorized", FAULTS)):
        store.submit({**SPEC, "plane": plane, "faults": faults})
    added = _fresh(f"""
import json, sys
from repro.service import JobState, JobStore, Scheduler, worker
execute = worker.execute_job
def spy(store, job):
    before = set(sys.modules)
    code = execute(store, job)
    with open({str(tmp_path / "added")!r}, "a") as out:
        out.write(json.dumps(sorted(set(sys.modules) - before)) + "\\n")
    return code
worker.execute_job = spy
store = JobStore({str(tmp_path / "root")!r})
Scheduler(store, max_workers=2, poll_interval=0.05).drain(timeout=100)
assert all(job.state == JobState.COMPLETED for job in store.jobs())
print(json.dumps(open({str(tmp_path / "added")!r}).read().splitlines()))
""")
    assert [json.loads(line) for line in added] == [[], []]


def test_a_checkpointing_run_loads_no_service_and_no_multiprocessing(tmp_path):
    """The state log's line format lives outside ``repro.service``, so a
    run that checkpoints loads neither the job service nor the process
    machinery its workers use."""
    loaded = _fresh(f"""
import json, sys
from repro.api import Experiment, RunSpec
spec = RunSpec.from_dict({{**{SPEC!r}, "plane": "quality"}})
events = list(Experiment.from_spec(spec).run_iter(checkpoint_dir={str(tmp_path)!r}))
assert type(events[-1]).__name__ == "RunCompleted", events[-1]
assert (type(events[-2]).__name__, events[-2].iteration) == ("CheckpointSaved", 2)
print(json.dumps(sorted(sys.modules)))
""")
    assert [m for m in loaded if m.startswith("repro.service")] == []
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []
