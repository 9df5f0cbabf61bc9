"""BENCH_*.json envelopes carry an ingestion-ready provenance block
(git_rev + ISO timestamp + numeric epoch), so the warehouse can order the
bench trajectory without filesystem mtimes, and a ``src_tree`` hash that
names the code a point measured."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import sys

import pytest

from repro.warehouse import connect, ingest_paths

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture()
def bench_conftest(tmp_path, monkeypatch):
    """The benchmark suite's conftest module, redirected into tmp."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", BENCHMARKS / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(module, "_REPO_ROOT", tmp_path / "root")
    (tmp_path / "root").mkdir()
    sys.modules.pop("bench_conftest_under_test", None)
    return module


def test_record_json_envelope_has_provenance(bench_conftest, tmp_path):
    bench_conftest.record_json("probe", {"metric": 1.5})
    mirror = tmp_path / "root" / "BENCH_probe.json"
    assert mirror.exists()
    envelope = json.loads(mirror.read_text())
    assert envelope["schema"] == "chiaroscuro-bench/v1"
    prov = envelope["provenance"]
    assert prov["git_rev"] == envelope["git_rev"]  # legacy key kept
    head = bench_conftest._git("rev-parse", "HEAD")
    if head is not None and head.returncode == 0:
        # (the short form says so when it was measured on uncommitted edits)
        assert prov["git_rev_full"].startswith(
            prov["git_rev"].removesuffix("-dirty")
        )
        assert re.fullmatch("[0-9a-f]{40}", prov["git_rev_full"])
    else:  # an export without history says so, in both fields
        assert prov["git_rev"] == prov["git_rev_full"] == bench_conftest.NO_HISTORY
    assert isinstance(prov["unix_time"], float)
    assert prov["unix_time"] > 1_700_000_000  # a real epoch, not a stub
    # ISO-8601 Zulu, second precision — matches the ingester's parser.
    assert prov["timestamp"] == envelope["timestamp"]
    assert prov["timestamp"].endswith("Z")
    assert len(prov["timestamp"]) == 20
    # out/ and root mirrors are byte-identical.
    assert (tmp_path / "out" / "BENCH_probe.json").read_text() == (
        mirror.read_text()
    )


def test_src_tree_names_the_measured_code(bench_conftest, tmp_path):
    """``provenance.src_tree`` hashes ``src/**/*.py`` as on disk: it moves
    when a source file's bytes or path change, and nothing else moves it."""
    package = tmp_path / "root" / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").write_text("y = 2\n")

    def src_tree() -> str:
        bench_conftest.record_json("probe", {"metric": 1.0})
        envelope = json.loads((tmp_path / "root" / "BENCH_probe.json").read_text())
        return envelope["provenance"]["src_tree"]

    first = src_tree()
    assert len(first) == 64 and int(first, 16) >= 0
    assert src_tree() == first
    (package / "notes.txt").write_text("not code")
    (tmp_path / "root" / "README.py").write_text("outside src/")
    assert src_tree() == first
    (package / "a.py").write_text("x = 2\n")
    edited = src_tree()
    assert edited != first
    (package / "a.py").write_text("x = 1\n")
    assert src_tree() == first
    (package / "a.py").rename(package / "c.py")
    assert src_tree() not in (first, edited)


def test_record_runs_mirror_is_warehouse_ingestible(bench_conftest, tmp_path):
    """What the conftest writes, the warehouse orders by provenance."""
    bench_conftest.record_json("probe", {"metric": 2.0})
    mirror = tmp_path / "root" / "BENCH_probe.json"
    expected = json.loads(mirror.read_text())["provenance"]["unix_time"]

    con = connect(tmp_path / "wh.db")
    delta = ingest_paths(con, [mirror])
    assert delta["bench_points"] == 1
    row = con.execute(
        "SELECT git_rev, unix_time, metric, value FROM bench_points"
    ).fetchone()
    assert row["git_rev"] == json.loads(mirror.read_text())["git_rev"]
    assert row["unix_time"] == pytest.approx(expected)
    assert row["metric"] == "metric"
    assert row["value"] == 2.0
    con.close()


def test_committed_root_mirrors_already_carry_the_block():
    """The repo's own committed BENCH files are on the new envelope or
    at least parseable by the legacy path — none are orphaned."""
    root = BENCHMARKS.parent
    mirrors = sorted(root.glob("BENCH_*.json"))
    assert mirrors, "no committed BENCH mirrors found"
    for path in mirrors:
        envelope = json.loads(path.read_text())
        assert envelope.get("git_rev"), path.name
        assert envelope.get("timestamp", "").endswith("Z"), path.name
