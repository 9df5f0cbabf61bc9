"""NDJSON event bus: wire-format serialization, torn-tail tolerance."""

from __future__ import annotations

import io
import json
import pathlib

import pytest

from repro.api import (
    CheckpointSaved,
    Experiment,
    RunCompleted,
    RunStarted,
    event_to_dict,
)
from _helpers import small_spec
from repro.cli import main as cli_main
from repro.service import (
    EventBus,
    JobStore,
    append_ndjson,
    next_seq,
    read_events,
    tail_events,
    tail_jobs,
)


class TestEventToDict:
    def test_full_stream_serializes(self):
        spec = small_spec(3)
        kinds = []
        for event in Experiment.from_spec(spec).run_iter():
            record = event_to_dict(event)
            kinds.append(record["type"])
            json.dumps(record)  # every record must be JSON-clean
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_completed"
        assert "iteration_completed" in kinds

    def test_checkpoint_saved_path_is_string(self, tmp_path):
        record = event_to_dict(
            CheckpointSaved(iteration=2, path=pathlib.Path(tmp_path) / "x")
        )
        assert record["type"] == "checkpoint_saved"
        assert isinstance(record["path"], str)

    def test_run_completed_summarizes_without_payload(self):
        spec = small_spec(3)
        events = list(Experiment.from_spec(spec).run_iter())
        completed = [e for e in events if isinstance(e, RunCompleted)][0]
        record = event_to_dict(completed)
        assert record["iterations"] == completed.result.iterations
        assert "history" not in record and "centroids" not in record

    def test_run_started_carries_environment(self):
        spec = small_spec(3)
        started = next(iter(Experiment.from_spec(spec).run_iter()))
        assert isinstance(started, RunStarted)
        record = event_to_dict(started)
        assert record["bigint_backend"] in ("python", "gmpy2")
        assert record["key_bits"] == 0  # quality plane runs no real crypto

    def test_rejects_non_events(self):
        with pytest.raises(TypeError, match="not a run event"):
            event_to_dict({"type": "imposter"})


class TestNdjson:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "log.ndjson"
        for i in range(5):
            append_ndjson(path, {"i": i})
        assert [r["i"] for r in read_events(path)] == list(range(5))

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        """The log is strict JSON — what ``jq`` and sqlite's JSON functions
        accept — so a NaN agreement never reaches it as a bare ``NaN``."""
        path = tmp_path / "log.ndjson"
        nan, inf = float("nan"), float("inf")
        append_ndjson(
            path, {"agreement": nan, "nested": [1.5, inf, {"low": -inf}], "ok": 2.0}
        )

        def refuse(constant):
            raise AssertionError(f"bare {constant} in the log")

        (line,) = path.read_text().splitlines()
        assert json.loads(line, parse_constant=refuse) == {
            "agreement": None, "nested": [1.5, None, {"low": None}], "ok": 2.0,
        }

    def test_read_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "log.ndjson"
        append_ndjson(path, {"ok": 1})
        with open(path, "a") as fh:
            fh.write('{"torn": tr')  # kill mid-append
        assert read_events(path) == [{"ok": 1}]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.ndjson") == []


#: What a killed or shared log really holds between its records: a scalar,
#: an array, a blank line, invalid UTF-8 — and a tail without its newline.
HOSTILE_LOG = (
    b'{"type":"run_started","job":"j","seq":0}\n'
    b"3\n"
    b"[1]\n"
    b"\n"
    b"\xff\xfe{\n"
    b'{"type":"job_completed","job":"j","wall_seconds":1.0,"seq":1}\n'
    b'{"type":"iteration_completed","job":"j","seq":2'
)


class TestOneReader:
    """``read_events``, ``tail_events`` and ``next_seq`` agree on what a
    record is: a complete line holding a JSON object."""

    def test_readers_return_the_object_lines_only(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_bytes(HOSTILE_LOG)
        records = read_events(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert list(tail_events(path)) == records
        assert next_seq(path) == 2  # the torn tail's seq was never published

    def test_follow_picks_up_the_tail_once_its_newline_arrives(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_bytes(HOSTILE_LOG)
        polls = []

        def finish_the_line_then_stop():
            polls.append(1)
            if len(polls) == 1:
                with open(path, "ab") as fh:
                    fh.write(b"}\n")
                return False
            return True

        records = list(tail_events(
            path, follow=True, poll_interval=0.0,
            should_stop=finish_the_line_then_stop,
        ))
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_pre_seq_logs_count_every_complete_line(self, tmp_path):
        """Numbering after a log written before ``seq`` existed starts past
        *all* its complete lines, skipped ones included — what offset-keyed
        history needs to never collide with seq-keyed future."""
        path = tmp_path / "events.ndjson"
        path.write_bytes(b'{"type":"run_started"}\n3\n\xff\n\n{"torn":')
        assert next_seq(path) == 4
        assert read_events(path) == [{"type": "run_started"}]

    @pytest.mark.parametrize("raw", [False, True], ids=["rendered", "raw"])
    def test_repro_tail_prints_the_object_lines_and_exits_zero(self, tmp_path, raw):
        """``repro tail`` used to die on a log line holding ``3``
        (``'int' object has no attribute 'get'``)."""
        store = JobStore(tmp_path)
        store.job_dir("j").mkdir()
        store.events_path("j").write_bytes(HOSTILE_LOG)
        out = io.StringIO()
        argv = ["tail", "--root", str(tmp_path)] + (["--raw"] if raw else [])
        assert cli_main(argv, out=out) == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        if raw:
            assert [json.loads(line)["seq"] for line in lines] == [0, 1]
        else:
            assert "run_started" in lines[0] and "job_completed" in lines[1]


    def test_a_resumed_attempt_ends_the_torn_line_before_its_first_event(
        self, tmp_path
    ):
        """A worker killed mid-append leaves a torn last line; the next
        attempt's first event was glued to it, and every reader skipped
        both (the resumed ``run_started`` was lost)."""
        store = JobStore(tmp_path)
        store.job_dir("j").mkdir()
        store.events_path("j").write_bytes(
            b'{"type":"run_started","job":"j","seq":0}\n{"type":"iteration_compl'
        )
        bus = EventBus(store, "j")
        bus.publish_record({"type": "run_started", "job": "j", "ts": 1.0})
        bus.publish_record({"type": "job_completed", "job": "j", "ts": 2.0})
        assert [
            (r["type"], r["seq"]) for r in read_events(store.events_path("j"))
        ] == [("run_started", 0), ("run_started", 1), ("job_completed", 2)]

    def test_a_stored_nan_is_read_and_printed_as_null(self, tmp_path):
        """Logs written before the writer's ``null`` rule hold bare ``NaN``;
        the reader hands on strict JSON (``repro tail --raw`` used to print
        ``{"agreement": NaN}``, which no JSON parser but Python's accepts)."""
        store = JobStore(tmp_path)
        store.job_dir("j").mkdir()
        store.events_path("j").write_bytes(
            b'{"type":"iteration_completed","job":"j","agreement":NaN,"seq":0}\n'
        )
        assert read_events(store.events_path("j"))[0]["agreement"] is None
        out = io.StringIO()
        assert cli_main(["tail", "--root", str(tmp_path), "--raw"], out=out) == 0

        def refuse(constant):
            raise ValueError(f"non-finite constant {constant}")

        [line] = out.getvalue().splitlines()
        assert json.loads(line, parse_constant=refuse)["agreement"] is None


class TestEventBus:
    def test_publish_writes_each_job_log_and_the_merged_tail(self, tmp_path):
        store = JobStore(tmp_path)
        job_a = store.submit(small_spec(1))
        job_b = store.submit(small_spec(2))
        for job in (job_a, job_b):
            bus = EventBus(store, job.job_id)
            for event in Experiment.from_spec(
                small_spec(job.spec["seed"])
            ).run_iter():
                record = bus.publish(event)
                assert record["job"] == job.job_id
                assert "ts" in record
        own = read_events(store.events_path(job_a.job_id))
        assert {r["job"] for r in own} == {job_a.job_id}
        merged = list(tail_jobs(store))
        assert {r["job"] for r in merged} == {job_a.job_id, job_b.job_id}
        assert len(merged) == len(own) + len(
            read_events(store.events_path(job_b.job_id))
        )
        assert not (tmp_path / "feed.ndjson").exists()  # one write an event

    def test_the_job_log_gets_the_bytes_serialised_once(self, tmp_path,
                                                        monkeypatch):
        """One ``json.dumps`` per finite record, and the job's log holds
        exactly the bytes one ``append_ndjson`` call wrote — a non-finite
        float included."""
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        bus = EventBus(store, job.job_id)
        calls = []
        real_dumps = json.dumps
        monkeypatch.setattr(
            json, "dumps", lambda *a, **kw: calls.append(a) or real_dumps(*a, **kw)
        )
        bus.publish_record({"type": "run_started", "job": "jöb", "ts": 1.5})
        assert len(calls) == 1
        bus.publish_record({"type": "iteration_completed", "iteration": 1,
                            "agreement": float("nan"),
                            "nested": [2.0, float("-inf")]})
        expected = (
            b'{"type":"run_started","job":"j\\u00f6b","ts":1.5,"seq":0}\n'
            b'{"type":"iteration_completed","iteration":1,"agreement":null,'
            b'"nested":[2.0,null],"seq":1}\n'
        )
        assert store.events_path(job.job_id).read_bytes() == expected


class TestMergedTail:
    """``tail_jobs``: every job's log, merged by ``(ts, job, seq)``."""

    def test_records_merge_by_time_then_job_then_seq(self, tmp_path):
        store = JobStore(tmp_path)
        for job, stamps in (("b", (1.0, 3.0)), ("a", (2.0, 3.0))):
            store.job_dir(job).mkdir()
            for seq, ts in enumerate(stamps):
                append_ndjson(store.events_path(job),
                              {"type": "x", "job": job, "ts": ts, "seq": seq})
        assert [(r["job"], r["seq"]) for r in tail_jobs(store)] == [
            ("b", 0), ("a", 0), ("a", 1), ("b", 1),
        ]

    def test_follow_reads_new_jobs_and_stops_polling_terminal_ones(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(tmp_path)
        store.job_dir("a").mkdir()
        append_ndjson(store.events_path("a"),
                      {"type": "job_completed", "job": "a", "ts": 1.0, "seq": 0})
        polls = []
        read = []
        import repro.service.bus as bus_module

        real_read_blocks = bus_module.read_blocks

        def spy(path, offset):
            read.append(pathlib.Path(path).parent.name)
            return real_read_blocks(path, offset)

        monkeypatch.setattr(bus_module, "read_blocks", spy)

        def submit_one_then_stop():
            polls.append(1)
            if len(polls) == 1:
                store.job_dir("b").mkdir()
                append_ndjson(store.events_path("b"),
                              {"type": "run_started", "job": "b", "ts": 2.0,
                               "seq": 0})
                return False
            return True

        records = list(tail_jobs(store, follow=True, poll_interval=0.0,
                                 should_stop=submit_one_then_stop))
        assert [r["job"] for r in records] == ["a", "b"]
        assert read == ["a", "b"]  # "a" ended: its log is not polled again


class TestSeq:
    def test_publish_stamps_monotonic_seq(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        bus = EventBus(store, job.job_id)
        for event in Experiment.from_spec(small_spec(1)).run_iter():
            bus.publish(event)
        seqs = [r["seq"] for r in read_events(store.events_path(job.job_id))]
        assert seqs == list(range(len(seqs)))
        assert len(seqs) >= 3

    def test_seq_resumes_across_bus_restarts(self, tmp_path):
        """A worker restart (new EventBus over the same log) continues
        the numbering instead of starting over."""
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        first = EventBus(store, job.job_id)
        first.publish_record({"type": "run_started", "job": job.job_id})
        first.publish_record({"type": "iteration_completed",
                              "iteration": 1, "job": job.job_id})
        second = EventBus(store, job.job_id)
        second.publish_record({"type": "iteration_completed",
                               "iteration": 2, "job": job.job_id})
        seqs = [r["seq"] for r in read_events(store.events_path(job.job_id))]
        assert seqs == [0, 1, 2]

    def test_next_seq_counts_complete_lines_without_seq(self, tmp_path):
        """Pre-seq logs: numbering starts after the existing lines, so
        offset-keyed history and seq-keyed future never collide."""
        path = tmp_path / "events.ndjson"
        assert next_seq(path) == 0
        append_ndjson(path, {"type": "run_started"})
        append_ndjson(path, {"type": "iteration_completed"})
        assert next_seq(path) == 2
        append_ndjson(path, {"type": "checkpoint_saved", "seq": 7})
        assert next_seq(path) == 8

    def test_next_seq_ignores_torn_tail(self, tmp_path):
        path = tmp_path / "events.ndjson"
        append_ndjson(path, {"seq": 4})
        with open(path, "a") as fh:
            fh.write('{"seq": 99')  # no newline: still being written
        assert next_seq(path) == 5

    def test_caller_supplied_seq_wins(self, tmp_path):
        """publish_record only fills seq in when absent — readers of
        replayed/merged logs keep whatever the writer recorded."""
        store = JobStore(tmp_path)
        job = store.submit(small_spec(1))
        bus = EventBus(store, job.job_id)
        bus.publish_record({"type": "run_started", "job": job.job_id,
                            "seq": 10})
        bus.publish_record({"type": "iteration_completed", "iteration": 1,
                            "job": job.job_id})
        seqs = [r["seq"] for r in read_events(store.events_path(job.job_id))]
        assert seqs == [10, 11]

    def test_readers_tolerate_missing_seq(self, tmp_path):
        """Satellite guarantee: consumers never require the field."""
        path = tmp_path / "events.ndjson"
        append_ndjson(path, {"type": "run_started", "job": "j"})
        records = read_events(path)
        assert records[0].get("seq") is None
