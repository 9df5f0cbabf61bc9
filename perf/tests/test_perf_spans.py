"""The span recorder: nesting, self time, step spans, loud patch failures."""

import time

import pytest

from perf import spans


def test_self_time_is_duration_minus_children_and_leaves_are_childless():
    recorder = spans.Recorder()
    inner = recorder.wrap(lambda items: time.sleep(0.01), "inner", spans._n(0))
    outer = recorder.wrap(lambda: (inner([1, 2, 3]), inner([4])), "outer")
    start = time.perf_counter()
    outer()
    end = time.perf_counter()
    summary = spans.summarize(recorder.spans)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["items"] == 4
    assert summary["outer"]["total_s"] >= summary["inner"]["total_s"] >= 0.02
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"]
    )
    assert spans.leaf_seconds(recorder.spans, start, end) == pytest.approx(
        summary["inner"]["total_s"]
    )
    # a window that excludes the spans covers nothing
    assert spans.leaf_seconds(recorder.spans, end, end + 1) == 0


def test_generator_steps_become_one_span_each_and_nest_their_children():
    recorder = spans.Recorder()
    child = recorder.wrap(lambda: None, "child")

    def steps():
        for index in range(3):
            child()
            yield index
        child()  # tail work after the last step: no step span of its own

    assert list(recorder.wrap_steps(steps, "step")()) == [0, 1, 2]
    summary = spans.summarize(recorder.spans)
    assert summary["step"]["calls"] == 3
    assert len(summary["step"]["durations"]) == 3
    assert summary["child"]["calls"] == 4
    assert "" not in summary


def test_timed_returns_the_result_and_the_span_duration():
    recorder = spans.Recorder()
    result, seconds = recorder.timed("layer.call", sorted, [3, 1, 2])
    assert result == [1, 2, 3]
    assert seconds == spans.summarize(recorder.spans)["layer.call"]["total_s"]


def test_install_fails_loudly_on_a_renamed_entry_point(monkeypatch):
    bogus = (("repro.crypto.backend", "SerialBackend.no_such_method", "x", None, "call"),)
    monkeypatch.setattr(spans, "PATCHES", bogus)
    with pytest.raises(AttributeError):
        spans.install(spans.Recorder())
