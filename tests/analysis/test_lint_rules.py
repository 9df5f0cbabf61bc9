"""Fixture-driven per-rule tests: every rule fires on its bad fixture and
stays silent on the good one."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.lint import RULES, run_lint

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: (rule, bad fixture, expected finding count, good fixtures)
CASES = [
    (
        "determinism-rng",
        FIXTURES / "determinism" / "bad_rng.py",
        3,
        [
            FIXTURES / "determinism" / "good_rng.py",
            FIXTURES / "determinism" / "good_rng_out_of_scope.py",
        ],
    ),
    (
        "determinism-wall-clock",
        FIXTURES / "determinism" / "bad_clock.py",
        2,
        [FIXTURES / "determinism" / "good_clock.py"],
    ),
    (
        "bigint-purity",
        FIXTURES / "bigint" / "bad_pow.py",
        2,
        [
            FIXTURES / "bigint" / "good_pow.py",
            FIXTURES / "bigint" / "good_kernel.py",
        ],
    ),
    (
        "layering-dag",
        FIXTURES / "layering" / "bad_upward.py",
        2,
        [FIXTURES / "layering" / "good_downward.py"],
    ),
    (
        "fault-seams",
        FIXTURES / "layering" / "bad_seams.py",
        1,
        [FIXTURES / "layering" / "good_seams.py"],
    ),
    (
        "registry-hygiene",
        FIXTURES / "hygiene" / "bad_hygiene.py",
        2,
        [FIXTURES / "hygiene" / "good_hygiene.py"],
    ),
    (
        "epsilon-accounting",
        FIXTURES / "epsilon" / "bad_epsilon.py",
        2,
        [FIXTURES / "epsilon" / "good_epsilon.py"],
    ),
]


@pytest.mark.parametrize(
    "rule,bad,expected,goods", CASES, ids=[c[0] for c in CASES]
)
class TestRuleFixtures:
    def test_bad_fixture_fires(self, rule, bad, expected, goods):
        report = run_lint([bad], rules=[rule])
        assert len(report.new) == expected, [
            f.message for f in report.findings
        ]
        assert all(f.rule == rule for f in report.new)

    def test_good_fixtures_stay_silent(self, rule, bad, expected, goods):
        report = run_lint(goods, rules=[rule])
        assert report.new == [], [f.message for f in report.new]


def test_epsilon_rule_sees_standard_gamma():
    """The share sampler's primitive: ``rng.standard_gamma`` outside
    ``repro.privacy`` is a noise site like ``rng.gamma``."""
    report = run_lint(
        [FIXTURES / "epsilon" / "bad_standard_gamma.py"], rules=["epsilon-accounting"]
    )
    assert [f.message.split()[0] for f in report.new] == [".standard_gamma()"]


class TestSuppressionFlow:
    def test_justified_suppressions_downgrade_findings(self):
        report = run_lint(
            [FIXTURES / "suppression" / "good_suppression.py"],
            rules=["determinism-rng"],
        )
        assert report.new == []
        assert len(report.suppressed) == 2
        assert all(f.justification for f in report.suppressed)

    def test_unjustified_suppression_reported_and_inert(self):
        report = run_lint(
            [FIXTURES / "suppression" / "bad_suppression.py"],
            rules=["determinism-rng"],
        )
        rules_found = sorted(f.rule for f in report.new)
        # The RNG finding survives AND the bad comment itself is flagged.
        assert rules_found == ["determinism-rng", "suppression"]


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert len(RULES) == 7

    def test_every_rule_has_a_description(self):
        for key in RULES:
            assert RULES.get(key).description, key

    def test_unknown_rule_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="determinism-rng"):
            RULES.get("nope")

    def test_rule_subset_runs_only_selected(self):
        report = run_lint(
            [FIXTURES / "determinism" / "bad_rng.py"],
            rules=["determinism-wall-clock"],
        )
        assert report.new == []


class TestFingerprints:
    """The content-based fingerprint the warehouse keys ``lint_findings`` by."""

    def test_stable_across_line_shifts(self, tmp_path):
        source = (FIXTURES / "determinism" / "bad_rng.py").read_text()
        path = tmp_path / "v1.py"
        path.write_text(source)
        before = run_lint([path], rules=["determinism-rng"])

        lines = source.splitlines()
        # Insert blank lines after the docstring: every finding moves,
        # no flagged line changes.
        path.write_text("\n".join(lines[:3] + ["", "", ""] + lines[3:]) + "\n")
        after = run_lint([path], rules=["determinism-rng"])

        assert [f.fingerprint for f in before.findings] == [
            f.fingerprint for f in after.findings
        ]
        assert [f.line for f in before.findings] != [
            f.line for f in after.findings
        ]

    def test_identical_lines_get_distinct_fingerprints(self, tmp_path):
        path = tmp_path / "twins.py"
        path.write_text(
            "# repro-lint-fixture: package=repro.core.example\n"
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()\n"
        )
        report = run_lint([path], rules=["determinism-rng"])
        prints = [f.fingerprint for f in report.findings]
        assert len(prints) == 2
        assert len(set(prints)) == 2
