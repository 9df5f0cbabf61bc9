"""``perf/run.py compare``: verdicts from declared bounds.

The verdict logic is tested against a 10 % bound of its own, so that
re-sizing a bound in ``BENCHMARK.json`` does not change what these tests say.
"""

import json

from perf import compare
from perf import run as perf_run

SAMPLES = {
    "setup_s": [0.30, 0.31, 0.305, 0.30, 0.31],
    "run_s": [2.00, 2.02, 1.99, 2.01, 2.00],
    "iter_s": [0.50, 0.505, 0.50, 0.495, 0.50],
    "peak_rss_mb": [50.0, 50.1, 50.0, 50.2, 50.1],
}
BENCHMARK = {
    "end_to_end": [
        {"name": name, "unit": "MB" if name.endswith("_mb") else "s",
         "better": "lower", "bound": 0.1}
        for name in SAMPLES
    ]
}


def _result(scale=None, failed=0):
    scale = scale or {}
    return {
        "environment": {"git_rev": "abc1234"},
        "workloads": {
            "vcrypto_encrypt": {
                "end_to_end": {
                    name: {"samples": [v * scale.get(name, 1.0) for v in values]}
                    for name, values in SAMPLES.items()
                },
                "attempted": 100,
                "failed": failed,
            }
        },
    }


def _verdicts(new):
    rows, passed = compare.compare(_result(), new, BENCHMARK)
    assert [row["workload"] for row in rows] == ["vcrypto_encrypt"]
    return {k: v[0] for k, v in rows[0]["metrics"].items()}, passed


def test_identical_inputs_pass():
    verdicts, passed = _verdicts(_result())
    assert passed
    assert set(verdicts.values()) == {"ok"}


def test_twenty_percent_run_s_regression_is_worse():
    verdicts, passed = _verdicts(_result({"run_s": 1.20}))
    assert not passed
    assert verdicts["run_s"] == "worse"
    assert verdicts["iter_s"] == "ok"


def test_five_percent_run_s_regression_is_ok():
    verdicts, passed = _verdicts(_result({"run_s": 1.05}))
    assert passed
    assert verdicts["run_s"] == "ok"


def test_gain_is_better_and_higher_is_better_flips_the_sign():
    verdicts, passed = _verdicts(_result({"run_s": 0.80}))
    assert passed and verdicts["run_s"] == "better"
    assert compare.verdict([10, 10, 10], [8, 8, 8], 0.1, "higher")[0] == "worse"


def test_wide_interleaved_spread_is_unresolved_not_ok():
    noisy = [1.0, 1.3, 0.9, 1.2, 1.0]
    assert compare.verdict(noisy, noisy, 0.1, "lower")[0] == "unresolved"
    # … unless every run of one side beats every run of the other.
    assert compare.verdict(noisy, [v * 2 for v in noisy], 0.1, "lower")[0] == "worse"


def test_rise_in_failed_frac_fails_even_with_equal_timings():
    rows, passed = compare.compare(_result(), _result(failed=1), BENCHMARK)
    assert not passed
    assert "failed_frac rose" in compare.render(rows)[0]


def test_cli_prints_every_ratio_with_its_base_and_exits_one(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(perf_run, "load_benchmark", lambda: BENCHMARK)
    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_result()))
    new.write_text(json.dumps(_result({"run_s": 1.20})))
    assert perf_run.main(["compare", str(base), str(base)]) == 0
    assert perf_run.main(["compare", str(base), str(new)]) == 1
    out = capsys.readouterr().out
    assert "run_s worse 1.200x of 2 s" in out
    assert "setup_s ok 1.000x of 0.305 s" in out
