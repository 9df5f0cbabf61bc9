"""Incremental, idempotent ingestion: watermarks, stable keys, torn tails."""

from __future__ import annotations

import json

import pytest

from _wh_helpers import bench_envelope, populate_job, tiny_spec, write_json
from repro.api import Experiment, run_record
from repro.service import JobStore, append_ndjson
from repro.ndjson import read_blocks
from repro.warehouse import Ingester, connect, ingest_paths, table_counts


@pytest.fixture()
def con(tmp_path):
    con = connect(tmp_path / "wh.db")
    yield con
    con.close()


def read_ndjson_from(path, offset):
    """The block reader's ``(line_offset, record)`` pairs past ``offset`` and
    its new watermark."""
    pairs = []
    for offset, records in read_blocks(path, offset):
        pairs += [(line_offset, record) for line_offset, _, record in records]
    return pairs, offset


class TestReadNdjsonFrom:
    def test_reads_from_offset_and_returns_watermark(self, tmp_path):
        path = tmp_path / "log.ndjson"
        append_ndjson(path, {"i": 0})
        records, offset = read_ndjson_from(path, 0)
        assert [r["i"] for _, r in records] == [0]
        append_ndjson(path, {"i": 1})
        records, offset2 = read_ndjson_from(path, offset)
        assert [r["i"] for _, r in records] == [1]
        assert offset2 > offset

    def test_torn_tail_stays_pending(self, tmp_path):
        path = tmp_path / "log.ndjson"
        append_ndjson(path, {"i": 0})
        with open(path, "a") as fh:
            fh.write('{"i": 1')  # writer mid-append
        records, offset = read_ndjson_from(path, 0)
        assert [r["i"] for _, r in records] == [0]
        with open(path, "a") as fh:
            fh.write(", \"done\": true}\n")  # the newline finally lands
        records, _ = read_ndjson_from(path, offset)
        assert [r["i"] for _, r in records] == [1]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_ndjson_from(tmp_path / "absent.ndjson", 0) == ([], 0)

    def test_undecodable_complete_line_skipped_but_consumed(self, tmp_path):
        path = tmp_path / "log.ndjson"
        with open(path, "w") as fh:
            fh.write("not json\n")
        append_ndjson(path, {"i": 1})
        records, offset = read_ndjson_from(path, 0)
        assert [r["i"] for _, r in records] == [1]
        assert read_ndjson_from(path, offset) == ([], offset)


class TestServiceRootIngestion:
    def test_full_root_lands_in_all_tables(self, con, tmp_path):
        store = JobStore(tmp_path / "svc")
        job_id = populate_job(store, tiny_spec(1))
        delta = ingest_paths(con, [store.root])
        assert delta["jobs"] == 1
        assert delta["runs"] == 1
        assert delta["events"] >= 4  # started, iterations, completed, marker
        run = con.execute(
            "SELECT * FROM runs WHERE job_id = ?", (job_id,)
        ).fetchone()
        assert run["source"] == "job"
        assert run["strategy"] == "G"
        assert run["iterations"] >= 1
        iterations = con.execute(
            "SELECT COUNT(*) FROM iterations WHERE run_key = ?",
            (run["run_key"],),
        ).fetchone()[0]
        assert iterations == run["iterations"]

    def test_double_ingest_is_a_noop(self, con, tmp_path):
        """The idempotency acceptance gate: identical row counts and
        identical query output after a second ingest."""
        store = JobStore(tmp_path / "svc")
        populate_job(store, tiny_spec(1))
        populate_job(store, tiny_spec(2, plane="vectorized"))
        ingest_paths(con, [store.root])
        counts = table_counts(con)
        dump = con.execute(
            "SELECT * FROM runs ORDER BY run_key"
        ).fetchall()
        delta = ingest_paths(con, [store.root])
        assert all(count == 0 for count in delta.values()), delta
        assert table_counts(con) == counts
        assert con.execute(
            "SELECT * FROM runs ORDER BY run_key"
        ).fetchall() == dump

    def test_jobs_row_is_the_fold_of_the_lifecycle_log(
        self, con, tmp_path, monkeypatch
    ):
        """``jobs`` mirrors the fold of ``job.ndjson``, re-folded only when
        the log's fingerprint moves; a torn last line is not read, and a
        legacy ``job.json`` is the fold's first record."""
        import repro.warehouse.ingest as ingest_module

        store = JobStore(tmp_path / "svc")
        job_id = populate_job(store, tiny_spec(1))
        folds = []
        real_fold = ingest_module.fold
        monkeypatch.setattr(ingest_module, "fold",
                            lambda *a, **kw: folds.append(a) or real_fold(*a, **kw))

        def row(job):
            return con.execute(
                "SELECT state, attempts, finished_at, error FROM jobs "
                "WHERE job_id = ?", (job,),
            ).fetchone()

        ingest_paths(con, [store.root])
        assert tuple(row(job_id)) == ("completed", 1, 1.0, "")
        ingest_paths(con, [store.root])
        assert len(folds) == 1  # unchanged log: not re-read
        store.update(job_id, error="noted later")
        with open(store.log_path(job_id), "ab") as fh:
            fh.write(b'{"state":"fai')  # a killed writer's torn line
        ingest_paths(con, [store.root])
        assert tuple(row(job_id)) == ("completed", 1, 1.0, "noted later")

        legacy = store.get(job_id).to_dict() | {"job_id": "legacy"}
        store.job_dir("legacy").mkdir()
        write_json(store.job_path("legacy"), legacy)
        ingest_paths(con, [store.root])
        assert tuple(row("legacy")) == ("completed", 1, 1.0, "noted later")
        store.update("legacy", state="failed", error="replayed")
        ingest_paths(con, [store.root])
        assert tuple(row("legacy")) == ("failed", 1, 1.0, "replayed")

    def test_rescan_without_watermarks_adds_nothing(self, con, tmp_path):
        """Even a from-scratch re-read (watermarks dropped) converges:
        the stable event keys refuse duplicates."""
        store = JobStore(tmp_path / "svc")
        populate_job(store, tiny_spec(1))
        ingest_paths(con, [store.root])
        counts = table_counts(con)
        con.execute("DELETE FROM ingest_files")
        con.commit()
        ingest_paths(con, [store.root])
        after = table_counts(con)
        after.pop("ingest_files")
        counts.pop("ingest_files")
        assert after == counts

    def test_incremental_pass_picks_up_only_new_events(self, con, tmp_path):
        store = JobStore(tmp_path / "svc")
        job_id = populate_job(store, tiny_spec(1))
        ingest_paths(con, [store.root])
        before = table_counts(con)["events"]
        append_ndjson(store.events_path(job_id),
                      {"type": "job_completed", "job": job_id, "seq": 99,
                       "ts": 2.0})
        delta = ingest_paths(con, [store.root])
        assert delta["events"] == 1
        assert table_counts(con)["events"] == before + 1

    def test_preseq_lines_get_offset_keys_and_stay_unique(self, con, tmp_path):
        """Logs written before the seq field existed ingest cleanly and
        re-ingest without duplicates (byte-offset fallback keys)."""
        store = JobStore(tmp_path / "svc")
        job = store.submit(tiny_spec(1))
        for i in range(3):
            append_ndjson(store.events_path(job.job_id),
                          {"type": "iteration_completed", "iteration": i + 1,
                           "job": job.job_id, "ts": float(i)})
        ingest_paths(con, [store.root])
        con.execute("DELETE FROM ingest_files")
        con.commit()
        delta = ingest_paths(con, [store.root])
        assert delta["events"] == 0
        keys = [row[0] for row in con.execute(
            "SELECT event_key FROM events ORDER BY event_key")]
        assert len(keys) == 3
        assert all(":@" in key for key in keys)

    def test_fault_events_populate_detections(self, con, tmp_path):
        store = JobStore(tmp_path / "svc")
        job = store.submit(tiny_spec(1))
        append_ndjson(store.events_path(job.job_id),
                      {"type": "fault_detected", "job": job.job_id, "seq": 0,
                       "ts": 1.0, "iteration": 2, "fault": "byzantine",
                       "detector": "decryption-cross-check",
                       "participants": [4, 9], "detail": {"z": 1}})
        ingest_paths(con, [store.root])
        row = con.execute("SELECT * FROM detections").fetchone()
        assert row["fault"] == "byzantine"
        assert row["detector"] == "decryption-cross-check"
        assert row["participants"] == 2
        assert row["run_key"] == f"job:{job.job_id}"
        assert json.loads(row["detail"]) == {"z": 1}

    def test_abort_marks_run_in_either_ingest_order(self, con, tmp_path):
        """run_aborted before result.json and after both set runs.aborted."""
        store = JobStore(tmp_path / "svc")
        job_id = populate_job(store, tiny_spec(1))
        # Events (with the abort) first, result already present: one pass.
        append_ndjson(store.events_path(job_id),
                      {"type": "run_aborted", "job": job_id, "seq": 50,
                       "ts": 2.0, "iteration": 1, "fault": "byzantine",
                       "reason": "tamper", "epsilon_charged": 0.2})
        ingest_paths(con, [store.root])
        assert con.execute(
            "SELECT aborted FROM runs WHERE job_id = ?", (job_id,)
        ).fetchone()[0] == 1

        # Reverse order: a fresh warehouse sees the abort event only
        # after the run row landed.
        con2 = connect(store.root / "wh2.db")
        ingester = Ingester(con2)
        job_dir = store.job_dir(job_id)
        ingester._ingest_json_once(
            job_dir / "result.json",
            lambda p: ingester._ingest_result_json(p, job_id),
        )
        assert con2.execute("SELECT aborted FROM runs").fetchone()[0] == 0
        ingester.ingest_events_file(job_dir / "events.ndjson", job_id=job_id)
        con2.commit()
        assert con2.execute("SELECT aborted FROM runs").fetchone()[0] == 1
        con2.close()


class TestRecordAndBenchIngestion:
    def test_json_out_record_file(self, con, tmp_path):
        spec = tiny_spec(5, name="standalone")
        result = Experiment.from_spec(spec).run()
        path = write_json(tmp_path / "result.json",
                          run_record(spec, result,
                                     timings={"wall_seconds": 1.0}))
        delta = ingest_paths(con, [path])
        assert delta["runs"] == 1
        row = con.execute("SELECT * FROM runs").fetchone()
        assert row["source"] == "record"
        assert row["name"] == "standalone"
        assert row["wall_seconds"] == 1.0
        assert ingest_paths(con, [path])["runs"] == 0  # fingerprint gate

    def test_changed_record_file_is_reingested_not_duplicated(
        self, con, tmp_path
    ):
        spec = tiny_spec(5, name="standalone")
        result = Experiment.from_spec(spec).run()
        record = run_record(spec, result, timings={"wall_seconds": 1.0})
        path = write_json(tmp_path / "result.json", record)
        ingest_paths(con, [path])
        record["timings"]["wall_seconds"] = 2.0
        write_json(path, record)
        delta = ingest_paths(con, [path])
        assert delta["runs"] == 0  # upsert, not append
        assert con.execute(
            "SELECT wall_seconds FROM runs"
        ).fetchone()[0] == 2.0

    def test_bench_file_points_runs_and_summary(self, con, tmp_path):
        spec = tiny_spec(7, name="attack-probe-mild")
        result = Experiment.from_spec(spec).run()
        envelope = bench_envelope(
            "probe", "abc1234", 1_000.0,
            {
                "schema": "chiaroscuro-run/v1",
                "runs": [run_record(spec, result)],
                "summary": {
                    "probe-mild": {
                        "final_pre_inertia": 12.5,
                        "detections": 3,
                        "detectors": ["exchange-guard", "device-registry"],
                        "aborted": True,
                    },
                    "wall_seconds": 9.0,
                },
            },
        )
        path = write_json(tmp_path / "BENCH_probe.json", envelope)
        delta = ingest_paths(con, [path])
        assert delta["runs"] == 1
        assert delta["bench_points"] > 0
        run = con.execute("SELECT * FROM runs").fetchone()
        assert run["source"] == "bench"
        assert run["bench"] == "probe"
        assert run["git_rev"] == "abc1234"
        assert run["aborted"] == 1  # summary flag reached the matched run
        # The summary's detection total survives the per-detector split.
        total = con.execute(
            "SELECT SUM(count) FROM detections WHERE run_key = ?",
            (run["run_key"],),
        ).fetchone()[0]
        assert total == 3
        detectors = {row[0] for row in con.execute(
            "SELECT detector FROM detections")}
        assert detectors == {"exchange-guard", "device-registry"}
        # Scalar leaves (not the run payloads) became bench points.
        metrics = {row[0] for row in con.execute(
            "SELECT metric FROM bench_points")}
        assert "summary.wall_seconds" in metrics
        assert not any(metric.startswith("runs.") for metric in metrics)
        assert ingest_paths(con, [path]) == {t: 0 for t in delta}

    def test_bench_without_provenance_orders_by_iso_timestamp(
        self, con, tmp_path
    ):
        envelope = bench_envelope("old", "rev1", 0.0, {"metric": 1.0})
        del envelope["provenance"]
        envelope["timestamp"] = "2026-01-02T03:04:05Z"
        write_json(tmp_path / "BENCH_old.json", envelope)
        ingest_paths(con, [tmp_path / "BENCH_old.json"])
        row = con.execute(
            "SELECT unix_time FROM bench_points"
        ).fetchone()
        assert row[0] == pytest.approx(1767323045.0)

    def test_unrecognized_file_is_an_error(self, con, tmp_path):
        path = write_json(tmp_path / "junk.json", {"schema": "other/v9"})
        with pytest.raises(ValueError, match="unrecognized telemetry"):
            ingest_paths(con, [path])

    def test_empty_directory_is_an_error(self, con, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="not a service root"):
            ingest_paths(con, [tmp_path / "empty"])
