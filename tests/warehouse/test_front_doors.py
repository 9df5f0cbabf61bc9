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

@pytest.fixture(scope="module")
def other_record():
    """A ``chiaroscuro-run/v1`` record of a different spec than the
    directory test's copies."""
    spec = tiny_spec(6, name="other")
    return run_record(spec, Experiment.from_spec(spec).run())


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

    def test_directory_of_standalone_files(
        self, con, tmp_path, parsed, other_record
    ):
        spec = tiny_spec(5, name="standalone")
        record = run_record(spec, Experiment.from_spec(spec).run())
        directory = tmp_path / "records"
        directory.mkdir()
        for index in range(self.N):
            write_json(directory / f"run-{index}.json", record)
        write_json(directory / "other.json", other_record)
        write_json(directory / "package.json", {"name": "foreign"})

        delta = ingest_paths(con, [directory])
        assert len(parsed) == self.N + 2  # bulk: one parse per file
        history = len(record["result"]["history"])
        other_history = len(other_record["result"]["history"])
        assert delta == {
            "jobs": 0, "runs": self.N + 1,
            "iterations": self.N * history + other_history,
            "events": 0, "detections": 0, "bench_points": 0,
            "ingest_files": self.N + 1,
        }

        del parsed[:]
        delta = ingest_paths(con, [directory])
        # no-op: watermarked files are not even opened; the foreign file
        # keeps no watermark, so it alone is looked at again
        assert parsed == [{"name": "foreign"}]
        assert not any(delta.values()), delta

    def test_bench_named_file_must_be_a_bench_envelope(
        self, con, tmp_path, other_record
    ):
        path = write_json(tmp_path / "BENCH_x.json", other_record)
        with pytest.raises(ValueError, match="not a chiaroscuro-bench/v1"):
            ingest_paths(con, [path])
        with pytest.raises(ValueError, match="not a chiaroscuro-bench/v1"):
            ingest_paths(con, [tmp_path])


def test_a_lint_report_is_an_unknown_shape(con, tmp_path):
    """``chiaroscuro-lint/v1`` files are no longer telemetry: refused when
    named on their own, skipped inside a scanned directory."""
    path = write_json(tmp_path / "lint-findings.json",
                      {"schema": "chiaroscuro-lint/v1", "findings": []})
    with pytest.raises(ValueError, match="unrecognized telemetry file"):
        ingest_paths(con, [path])
    with pytest.raises(ValueError, match="no BENCH_"):
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
    tmp_path, monkeypatch, other_record
):
    """Ctrl-C out of ``--follow`` sums up what the follow added."""
    db = str(tmp_path / "wh.db")
    first = write_json(tmp_path / "a.json", other_record)
    assert main(["db", "ingest", str(first), "--db", db],
                out=io.StringIO()) == 0

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", interrupt)  # the poll sleep
    out = io.StringIO()
    second = write_json(tmp_path / "b.json", other_record)
    assert main(["db", "ingest", str(second), "--db", db, "--follow"],
                out=out) == 0
    history = len(other_record["result"]["history"])
    assert out.getvalue().endswith(
        f"ingested into {db}: +1 runs, +{history} iterations, +1 ingest_files\n"
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
