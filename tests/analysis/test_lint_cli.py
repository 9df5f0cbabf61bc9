"""The ``repro lint`` command: exit codes and formats."""

from __future__ import annotations

import io
import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
BAD_RNG = str(FIXTURES / "determinism" / "bad_rng.py")
GOOD_RNG = str(FIXTURES / "determinism" / "good_rng.py")


class TestExitCodes:
    def test_clean_tree_exits_zero(self):
        out = io.StringIO()
        assert main(["lint", GOOD_RNG], out=out) == 0
        assert "0 new" in out.getvalue()

    def test_findings_exit_one(self):
        out = io.StringIO()
        assert main(["lint", BAD_RNG], out=out) == 1
        assert "determinism-rng" in out.getvalue()

    def test_missing_path_exits_two_with_usage(self):
        out = io.StringIO()
        assert main(["lint", "no/such/dir"], out=out) == 2
        text = out.getvalue()
        assert "error:" in text
        assert "usage: repro lint" in text

    def test_unknown_rule_exits_two(self):
        out = io.StringIO()
        assert main(["lint", GOOD_RNG, "--rules", "bogus"], out=out) == 2
        assert "unknown lint rule" in out.getvalue()


class TestFormats:
    def test_list_rules(self):
        out = io.StringIO()
        assert main(["lint", "--list-rules"], out=out) == 0
        text = out.getvalue()
        for key in ("determinism-rng", "bigint-purity", "layering-dag"):
            assert key in text

    def test_json_envelope(self):
        out = io.StringIO()
        assert main(["lint", BAD_RNG, "--format", "json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["schema"] == "chiaroscuro-lint/v1"
        assert payload["counts"]["new"] == 3
        assert {"git_rev", "timestamp", "unix_time"} <= set(
            payload["provenance"]
        )
        for finding in payload["findings"]:
            assert finding["fingerprint"]
            assert finding["status"] == "new"

    def test_rules_filter(self):
        out = io.StringIO()
        code = main(
            ["lint", BAD_RNG, "--rules", "determinism-wall-clock"], out=out
        )
        assert code == 0
