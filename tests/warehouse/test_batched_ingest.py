"""The batched event ingest against the per-line ingester it replaced.

``ReferenceIngester`` below is that per-line path (one ``readline``, one
``json.loads``, one ``json.dumps`` and one ``execute`` per event), kept
here as the oracle: on any log whose object lines were written the way
``append_ndjson`` writes them, every warehouse table must come out
``SELECT *``-equal.  The two places the batched ingester is *allowed* to
differ — a hand-formatted line and a non-finite constant — are pinned by
their own tests at the bottom.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from _wh_helpers import populate_job, tiny_spec
from repro import ndjson
from repro.service import JobStore, append_ndjson
from repro.warehouse import (
    Ingester,
    connect,
    ingest,
    ingest_paths,
    report_latency,
    table_counts,
)


class ReferenceIngester(Ingester):
    """``ingest_events_file`` as it was before batching, line by line."""

    def ingest_events_file(self, path, job_id=""):
        path = pathlib.Path(path)
        row = self.con.execute(
            "SELECT byte_offset FROM ingest_files WHERE path = ?", (str(path),)
        ).fetchone()
        offset = int(row[0]) if row is not None else 0
        with open(path, "rb") as fh:
            fh.seek(offset)
            while True:
                offset = fh.tell()
                line = fh.readline()
                if not line.endswith(b"\n"):
                    break
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    self._ingest_event(record, job_id, offset)
        self.con.execute(
            "INSERT OR REPLACE INTO ingest_files (path, kind, byte_offset, "
            "fingerprint, ingested_at) VALUES (?, 'ndjson', ?, '', 0)",
            (str(path), offset),
        )

    def _ingest_event(self, record, default_job, line_offset):
        job_id = str(record.get("job") or default_job or "?")
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            seq = None
        key = f"{job_id}:{seq}" if seq is not None else f"{job_id}:@{line_offset}"
        kind = str(record.get("type", "?"))
        iteration = record.get("iteration")
        if not isinstance(iteration, int) or isinstance(iteration, bool):
            iteration = None
        self.con.execute(
            "INSERT OR IGNORE INTO events VALUES (?, ?, ?, ?, ?, ?, ?)",
            (key, job_id, seq, record.get("ts"), kind, iteration,
             json.dumps(record, separators=(",", ":"))),
        )
        if kind == "fault_detected":
            self.con.execute(
                "INSERT OR IGNORE INTO detections (detection_key, run_key, "
                "job_id, iteration, fault, detector, participants, count, "
                "detail) VALUES (?, ?, ?, ?, ?, ?, ?, 1, ?)",
                (key, f"job:{job_id}", job_id, iteration,
                 record.get("fault", ""), record.get("detector", ""),
                 len(record.get("participants") or []),
                 json.dumps(record.get("detail") or {}, separators=(",", ":"))),
            )
        elif kind == "run_aborted":
            self.con.execute(
                "UPDATE runs SET aborted = 1 WHERE job_id = ?", (job_id,)
            )


def dump_tables(con) -> dict[str, list[tuple]]:
    """Every table in full (``ingested_at`` is a wall clock, so not it)."""
    tables = {
        table: [tuple(row) for row in
                con.execute(f"SELECT * FROM {table} ORDER BY 1, 2")]
        for table in ingest.TABLES
    }
    tables["ingest_files"] = [row[:-1] for row in tables["ingest_files"]]
    return tables


def bus_line(record: dict) -> bytes:
    """The bytes ``append_ndjson`` writes for ``record`` (for a non-finite
    float: wrote, until PR 21)."""
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


JOBS = ["job-a", "job-b", "jöb-Ω-作業"]
KINDS = ["run_started", "iteration_completed", "fault_detected",
         "run_aborted", "job_completed"]
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
details = st.dictionaries(st.text(max_size=4),
                          st.one_of(st.text(max_size=6), st.integers(), finite),
                          max_size=3)

events = st.fixed_dictionaries(
    {"type": st.sampled_from(KINDS)},
    optional={
        "job": st.sampled_from(JOBS + [""]),
        # seq-less lines key on their byte offset; ``true`` is not a seq.
        "seq": st.one_of(st.integers(0, 40), st.booleans(), st.text(max_size=2)),
        "ts": st.one_of(finite, st.none()),
        "iteration": st.one_of(st.integers(0, 9), st.booleans(), st.none(),
                               st.text(max_size=2)),
        "fault": st.sampled_from(["drop", "Ünfug"]),
        "detector": st.sampled_from(["eesum-count", "déchiffrement"]),
        "participants": st.one_of(st.none(), st.lists(st.integers(0, 9),
                                                      max_size=4)),
        "detail": st.one_of(st.none(), details),
    },
).map(bus_line)

not_events = st.sampled_from([
    b"[1,2,3]\n", b"3\n", b'"a string"\n', b"null\n", b"\n",   # not objects
    b"not json\n", b'{"type":\n', b'{"a":1}{"b":2}\n',          # not JSON
    b"\xff\xfe garbage\n", "gärbage Ω\n".encode(), b"a\rb\n",   # not ASCII
])

logs = st.lists(st.one_of(events, events, not_events), max_size=30).map(b"".join)


class TestAgainstThePerLineReference:
    @settings(max_examples=60, deadline=None)
    @given(log=logs, cut=st.floats(0, 1), torn=st.booleans(),
           result_first=st.booleans())
    def test_every_table_is_select_star_equal(self, log, cut, torn,
                                              result_first):
        """Two passes over one growing log, cut at an arbitrary *byte* (so
        the first pass ends on a torn tail, possibly mid-character), with
        ``result.json`` landing before or after the first pass — hence
        before or after any ``run_aborted`` — and optionally a tail that
        never gets its newline."""
        if torn:
            log += b'{"type":"run_aborted","job":"job-a"'
        cut = int(cut * len(log))
        with tempfile.TemporaryDirectory() as tmp:
            job_dir = pathlib.Path(tmp) / "jobs" / "job-a"
            job_dir.mkdir(parents=True)
            result = json.dumps({"schema": "chiaroscuro-run/v1",
                                 "spec": {"name": "x"},
                                 "result": {"history": []}})
            batched = Ingester(connect(":memory:"))
            reference = ReferenceIngester(connect(":memory:"))
            for chunk, result_lands in ((log[:cut], result_first),
                                        (log[cut:], not result_first)):
                if result_lands:  # once: a rewrite would re-derive `aborted`
                    (job_dir / "result.json").write_text(result)
                with open(job_dir / "events.ndjson", "ab") as fh:
                    fh.write(chunk)
                for ingester in (batched, reference):
                    ingester.ingest_path(tmp)
            for ingester in (batched, reference):
                ingester.ingest_path(tmp)
            assert dump_tables(batched.con) == dump_tables(reference.con)

    def test_a_real_job_root_is_select_star_equal(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        populate_job(store, tiny_spec(3, plane="vectorized"))
        batched = Ingester(connect(":memory:"))
        reference = ReferenceIngester(connect(":memory:"))
        for ingester in (batched, reference):
            ingester.ingest_path(store.root)
        dump = dump_tables(batched.con)
        assert dump == dump_tables(reference.con)
        assert len(dump["events"]) >= 4 and dump["runs"]


class TestBatching:
    LOG = b"".join([
        bus_line({"type": "run_started", "job": "j", "seq": 0, "ts": 1.0}),
        "{\"type\": \"note\", \"job\": \"jöb-Ω-作業\", \"text\": \"é\"}\n".encode(),
        b'{"type":"iteration_completed",\r"iteration":1}\n',  # \r is no newline
        b"not json\n",
        bus_line({"type": "fault_detected", "job": "j", "seq": 1,
                  "detail": {"who": "Ünfug" * 40}}),          # > any block below
        b'{"type":"torn',
    ])

    def ingest_log(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_bytes(self.LOG)
        con = connect(":memory:")
        ingest_paths(con, [path])
        return dump_tables(con)

    def test_block_size_does_not_change_the_rows(self, tmp_path, monkeypatch):
        """Every block size from one byte up: lines longer than a block,
        logs of many blocks, and each multi-byte character of the log
        straddling a block boundary at some size."""
        expected = self.ingest_log(tmp_path)
        assert len(expected["events"]) == 4
        assert len(expected["detections"]) == 1
        assert expected["ingest_files"][0][2] == self.LOG.rindex(b"\n") + 1
        for block_bytes in range(1, 48):
            monkeypatch.setattr(ndjson, "BLOCK_BYTES", block_bytes)
            assert self.ingest_log(tmp_path) == expected, block_bytes

    def test_a_long_log_is_read_block_by_block(self, tmp_path, monkeypatch):
        """A log of many blocks is written block by block — memory does
        not grow with the log — and loses nothing on the way."""
        path = tmp_path / "events.ndjson"
        for seq in range(500):
            append_ndjson(path, {"type": "iteration_completed", "job": "j",
                                 "seq": seq, "iteration": seq})
        monkeypatch.setattr(ndjson, "BLOCK_BYTES", 4096)
        blocks = list(ndjson.read_blocks(path, 0))
        assert len(blocks) == -(-path.stat().st_size // 4096)
        assert max(len(records) for _, records in blocks) < 100
        con = connect(":memory:")
        assert ingest_paths(con, [path])["events"] == 500
        assert [row[0] for row in con.execute(
            "SELECT seq FROM events ORDER BY seq")] == list(range(500))

    def test_a_bool_is_neither_seq_nor_iteration(self, tmp_path):
        """``true`` is an ``int`` to ``isinstance``; the per-line reference
        and the batched ingester both store it as NULL, never as 1."""
        path = tmp_path / "events.ndjson"
        path.write_bytes(b"".join([
            bus_line({"type": "iteration_completed", "job": "j", "seq": 0,
                      "iteration": True}),
            bus_line({"type": "fault_detected", "job": "j", "seq": True,
                      "iteration": False}),
            bus_line({"type": "iteration_completed", "job": "j", "seq": 2,
                      "iteration": 2}),
        ]))
        batched = connect(":memory:")
        ingest_paths(batched, [path])
        reference = ReferenceIngester(connect(":memory:"))
        reference.ingest_path(path)
        assert dump_tables(batched) == dump_tables(reference.con)
        assert [tuple(row) for row in batched.execute(
            "SELECT seq, iteration FROM events ORDER BY event_key")] == [
            (0, None), (2, 2), (None, None)]  # j:0, j:2, j:@<offset>
        assert [row[0] for row in batched.execute(
            "SELECT iteration FROM detections")] == [None]

    def test_dropped_watermarks_converge(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        populate_job(store, tiny_spec(1))
        con = connect(":memory:")
        ingest_paths(con, [store.root])
        before = table_counts(con)
        con.execute("DELETE FROM ingest_files")
        delta = ingest_paths(con, [store.root])
        assert table_counts(con) == before
        assert delta["events"] == delta["detections"] == 0


class TestPayloadIsTheLineAsWritten:
    def test_bus_written_payload_is_the_raw_line(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        job_id = populate_job(store, tiny_spec(2))
        con = connect(":memory:")
        ingest_paths(con, [store.root])
        lines = store.events_path(job_id).read_text().splitlines()
        payloads = [row[0] for row in con.execute(
            "SELECT payload FROM events ORDER BY seq")]
        assert payloads == lines

    def test_iteration_lines_are_never_reserialised(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "events.ndjson"
        for seq in range(50):
            append_ndjson(path, {"type": "iteration_completed", "job": "j",
                                 "seq": seq, "iteration": seq, "ts": 1.0 * seq,
                                 "crypto_ms": 12.5})
        calls = []
        real_dumps = json.dumps
        monkeypatch.setattr(
            json, "dumps",
            lambda *a, **kw: calls.append(a) or real_dumps(*a, **kw),
        )
        con = connect(":memory:")
        assert ingest_paths(con, [path])["events"] == 50
        assert calls == []

    def test_hand_formatted_line_is_stored_as_written(self, tmp_path):
        """Permitted difference 1: a line ``append_ndjson`` did not write
        is no longer compacted and ASCII-escaped — the payload is the
        line itself, and still the same JSON."""
        line = '{"type": "note",  "job": "jöb", "text": "é"}'
        path = tmp_path / "events.ndjson"
        path.write_text(line + "\n", encoding="utf-8")
        con = connect(":memory:")
        ingest_paths(con, [path])
        (payload, text), = con.execute(
            "SELECT payload, json_extract(payload, '$.text') FROM events")
        assert payload == line
        assert text == "é"

    def test_non_finite_constant_becomes_null(self, tmp_path):
        """Permitted difference 2 (a bug at the parent): until PR 21
        ``append_ndjson`` wrote ``NaN`` for a non-finite float, sqlite's
        JSON functions reject it, and one such event used to take ``report
        latency`` down for the whole warehouse.  Logs written back then are
        still on disk (written here the way that bus wrote them); only
        that line is re-serialised."""
        path = tmp_path / "job-a" / "events.ndjson"
        path.parent.mkdir()
        path.write_bytes(b"".join(
            bus_line({
                "type": "iteration_completed", "seq": seq, "ts": 10.0 + seq,
                "iteration": seq, "crypto_ms": 3.0,
                "agreement": float("nan") if seq == 2 else 0.9,
            })
            for seq in range(4)
        ))
        assert b'"agreement":NaN' in path.read_bytes()
        con = connect(":memory:")
        assert ingest_paths(con, [path])["events"] == 4
        payloads = [row[0] for row in con.execute(
            "SELECT payload FROM events ORDER BY seq")]
        lines = path.read_text().splitlines()
        assert payloads[2] == lines[2].replace("NaN", "null")
        assert payloads[:2] + payloads[3:] == lines[:2] + lines[3:]
        assert report_latency(con).splitlines()[1].split()[0] == "3"
