"""Every workload, at toy size, through the real harness (child processes)."""

import json
import pathlib

import pytest

from perf import run as perf_run
from perf.layers import PER_LAYER, PROBES, PROTOCOL_WORKLOADS

BENCHMARK = json.loads(
    (pathlib.Path(perf_run.ROOT) / "BENCHMARK.json").read_text()
)
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def toy_runs():
    """One traced toy run per workload: an untraced op, a traced op, probes."""
    return {
        name: perf_run.measure(
            name, seed=0, seconds=0, trace=True, scale="toy", min_ops=1
        )
        for name in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_is_correct_and_emits_the_declared_metrics(toy_runs, workload):
    run = toy_runs[workload]
    assert run["failed"] == 0, run["failures"]
    assert run["attempted"] >= 1

    end_to_end = perf_run.contract_line(run, BENCHMARK, trace=False)["metrics"]
    assert set(end_to_end) == set(run["end_to_end"])
    assert all(entry["value"] > 0 for entry in end_to_end.values())

    undeclared = set(run["per_layer"]) - set(PER_LAYER)
    assert not undeclared, f"per-layer metrics BENCHMARK.json lacks: {undeclared}"
    traced = perf_run.contract_line(run, BENCHMARK, trace=True)["metrics"]
    assert set(traced) == set(PER_LAYER)


def test_every_declared_layer_metric_is_produced_by_some_workload(toy_runs):
    produced = set().union(*(run["per_layer"] for run in toy_runs.values()))
    assert set(PER_LAYER) - produced == set()
    for name in PROBES:  # probes really ran: a kernel call takes time
        assert max(run["per_layer"].get(name, 0) for run in toy_runs.values()) > 0


def test_benchmark_json_declares_exactly_the_harness_metrics():
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    assert declared == PER_LAYER
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "setup_s", "run_s", "iter_s", "peak_rss_mb",
    ]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["paths"] == ["perf"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_specs_pin_the_execution_knobs(workload):
    config = json.loads(
        (pathlib.Path(perf_run.ROOT) / "perf" / "specs" / f"{workload}.json").read_text()
    )
    for spec in config if isinstance(config, list) else [config]:
        assert spec["params"]["bigint_backend"] == "python"
        assert spec["params"]["crypto_backend"] == "serial"
        assert spec["params"]["theta"] == 0.0
        # The protocol workloads start from the blobs' nominal grid, so that
        # no seed loses a cluster; the small service/warehouse jobs sample.
        assert spec["init"]["kind"] == (
            "matrix" if workload in PROTOCOL_WORKLOADS else "sample"
        )
        assert spec["strategy"] == f"UF{spec['params']['max_iterations']}"
