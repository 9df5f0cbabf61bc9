"""The front doors say it once: ``SHAPES`` behind ingest (each file
parsed once), ``REPORTS`` behind ``repro report``, and the CLI paths
that ride on them."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import time
import types

import pytest

from _wh_helpers import tiny_spec, write_json
from repro.api import Experiment, run_record
from repro.cli import build_parser, main
from repro.warehouse import REPORTS, connect, ingest, ingest_paths

BENCH = pathlib.Path(__file__).resolve().parents[2] / (
    "BENCH_fig3_attack_quality.json"
)

LINT_REPORT = {
    "schema": "chiaroscuro-lint/v1",
    "provenance": {"git_rev": "abc1234",
                   "timestamp": "2026-08-07T10:00:00Z", "unix_time": 1e9},
    "findings": [
        {"rule": "determinism-rng", "path": "src/x.py", "line": 7,
         "message": "unseeded rng", "status": "new",
         "fingerprint": fingerprint}
        for fingerprint in ("aa" * 8, "bb" * 8)
    ],
}


@pytest.fixture()
def con(tmp_path):
    connection = connect(tmp_path / "wh.db")
    yield connection
    connection.close()


@pytest.fixture()
def parsed(monkeypatch):
    """Every document ``repro.warehouse.ingest`` (and only it) parses."""
    documents = []

    def loads(text):
        documents.append(json.loads(text))
        return documents[-1]

    monkeypatch.setattr(
        ingest, "json", types.SimpleNamespace(loads=loads, dumps=json.dumps)
    )
    return documents


class TestParseOnce:
    N = 5

    def test_directory_of_standalone_files(self, con, tmp_path, parsed):
        spec = tiny_spec(5, name="standalone")
        record = run_record(spec, Experiment.from_spec(spec).run())
        directory = tmp_path / "records"
        directory.mkdir()
        for index in range(self.N):
            write_json(directory / f"run-{index}.json", record)
        write_json(directory / "lint-findings.json", LINT_REPORT)
        write_json(directory / "package.json", {"name": "foreign"})

        delta = ingest_paths(con, [directory])
        assert len(parsed) == self.N + 2  # bulk: one parse per file
        history = len(record["result"]["history"])
        assert delta == {
            "jobs": 0, "runs": self.N, "iterations": self.N * history,
            "events": 0, "detections": 0, "bench_points": 0,
            "lint_findings": 2, "ingest_files": self.N + 1,
        }

        del parsed[:]
        delta = ingest_paths(con, [directory])
        # no-op: watermarked files are not even opened; the foreign file
        # keeps no watermark, so it alone is looked at again
        assert parsed == [{"name": "foreign"}]
        assert not any(delta.values()), delta

    def test_bench_named_file_must_be_a_bench_envelope(self, con, tmp_path):
        path = write_json(tmp_path / "BENCH_x.json", LINT_REPORT)
        with pytest.raises(ValueError, match="not a chiaroscuro-bench/v1"):
            ingest_paths(con, [path])
        with pytest.raises(ValueError, match="not a chiaroscuro-bench/v1"):
            ingest_paths(con, [tmp_path])


def test_adding_an_ingest_shape_is_one_registered_function(
    con, tmp_path, monkeypatch
):
    calls = []
    monkeypatch.setitem(
        ingest.SHAPES, "throwaway/v1",
        lambda ingester, path, payload: calls.append((path, payload)),
    )
    payload = {"schema": "throwaway/v1", "x": 1}
    path = write_json(tmp_path / "thing.json", payload)
    assert ingest_paths(con, [path])["ingest_files"] == 1
    assert calls == [(path, payload)]
    assert not any(ingest_paths(con, [path]).values())  # watermarked: skipped
    assert len(calls) == 1


def test_follow_interrupted_reports_new_rows_not_table_sizes(
    tmp_path, monkeypatch
):
    """Ctrl-C out of ``--follow`` sums up what the follow added."""
    db = str(tmp_path / "wh.db")
    first = dict(LINT_REPORT, findings=LINT_REPORT["findings"][:1])
    second = dict(LINT_REPORT, provenance={
        "git_rev": "def5678", "timestamp": "2026-08-08T10:00:00Z"})
    assert main(["db", "ingest", str(write_json(tmp_path / "a.json", first)),
                 "--db", db], out=io.StringIO()) == 0

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", interrupt)  # the poll sleep
    out = io.StringIO()
    assert main(["db", "ingest", str(write_json(tmp_path / "b.json", second)),
                 "--db", db, "--follow"], out=out) == 0
    assert out.getvalue().endswith(
        f"ingested into {db}: +2 lint_findings, +1 ingest_files\n"
    )


@pytest.mark.skipif(not BENCH.exists(), reason="committed fig3 bench missing")
class TestReportsBehindTheCli:
    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wh") / "wh.db"
        assert main(["db", "ingest", str(BENCH), "--db", str(path)],
                    out=io.StringIO()) == 0
        return str(path)

    def test_report_subcommands_are_exactly_the_table(self):
        (commands,) = build_parser()._subparsers._group_actions
        (reports,) = commands.choices["report"]._subparsers._group_actions
        assert set(reports.choices) == set(REPORTS)

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_every_report_parses_and_renders(self, db, name):
        out = io.StringIO()
        assert main(["report", name, "--db", db], out=out) == 0
        with contextlib.closing(connect(db)) as con:
            assert out.getvalue() == REPORTS[name].render(con) + "\n"
        filters = [arg for keyword in REPORTS[name].filters
                   for arg in (f"--{keyword}", "no-such-value")]
        out = io.StringIO()
        assert main(["report", name, "--db", db, "--format", "markdown",
                     *filters], out=out) == 0
        assert out.getvalue().strip()

    def test_query_json_emits_the_rows(self, db):
        out = io.StringIO()
        assert main(["db", "query", "SELECT COUNT(*) AS n FROM runs",
                     "--db", db, "--json"], out=out) == 0
        assert json.loads(out.getvalue()) == [{"n": 9}]
