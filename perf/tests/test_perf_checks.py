"""The correctness checks fail loudly: counts, ``correct`` and exit code."""

import copy
import json

from repro.api import Experiment, RunSpec

from perf import run as perf_run
from perf import workloads


def _op(digest="a" * 64, **changes):
    op = {
        "setup_s": 0.3, "run_s": 2.0, "iter_samples": [0.5, 0.5],
        "peak_rss_mb": 50.0, "attempted": 4, "failed": 0, "failures": [],
        "digest": digest, "bigint_backend": "python", "layers": {},
        "slowdown": 1.0, "probes": [0.05, 0.05, 0.05],
    }
    return {**op, **changes}


def _serve(monkeypatch, ops):
    queue = iter(ops)
    monkeypatch.setattr(perf_run, "run_child", lambda *args: next(queue))


def test_clean_ops_give_a_correct_run(monkeypatch, capsys):
    _serve(monkeypatch, [_op(), _op(), _op()])
    code = perf_run.main(["--workload", "vectorized_mock", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert line["correct"] is True and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["run_s"] == {"value": 2.0, "unit": "s"}


def test_corrupted_digest_fails_the_run(monkeypatch, capsys):
    _serve(monkeypatch, [_op(), _op(digest="b" * 64), _op()])
    code = perf_run.main(["--workload", "vectorized_mock", "--seconds", "0"])
    captured = capsys.readouterr()
    line = json.loads(captured.out.splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] > 0  # failed_frac
    assert "digest differs" in captured.err


def test_other_bigint_kernel_fails_the_run(monkeypatch):
    _serve(monkeypatch, [_op(), _op(bigint_backend="gmpy2"), _op()])
    run = perf_run.measure("vectorized_mock", seconds=0)
    assert run["failed"] == 1
    assert "bigint kernel" in run["failures"][0]


def test_failed_operations_of_an_op_are_counted(monkeypatch):
    _serve(monkeypatch, [_op(), _op(failed=2, failures=["x", "y"]), _op()])
    run = perf_run.measure("vectorized_mock", seconds=0)
    assert (run["failed"], run["failures"]) == (2, ["x", "y"])


def test_protocol_checks_catch_a_lost_cluster_and_a_corrupted_result():
    spec = RunSpec.from_dict(workloads.load_config("vectorized_mock", "toy"))
    result = Experiment.from_spec(spec).run().to_dict()
    attempted, failures = workloads._check_protocol(spec, result)
    assert (attempted, failures) == (spec.params.max_iterations + 1, [])

    lost = copy.deepcopy(result)
    lost["history"][1]["n_centroids"] -= 1
    short = copy.deepcopy(result)
    short["history"].pop()
    overspent = copy.deepcopy(result)
    overspent["history"][0]["epsilon_spent"] = 2 * spec.params.epsilon
    for broken in (lost, short, overspent):
        assert len(workloads._check_protocol(spec, broken)[1]) == 1

    corrupted = copy.deepcopy(result)
    corrupted["history"][0]["centroids"][0][0] += 1e-6
    assert workloads.result_digest(corrupted) != workloads.result_digest(result)
    for mode in ("exact", "ulp"):
        assert workloads._matches_mock_plane(result, result, mode)
        assert not workloads._matches_mock_plane(corrupted, result, mode)
