"""The tree must satisfy its own invariants: ``repro lint src/`` is clean.

This is the enforcement test behind the CI lint job — if a change to
``src/repro`` introduces an unseeded RNG, an upward import, a wire-form
drift or an unjustified waiver, this fails locally before CI does.
"""

from __future__ import annotations

import pathlib

from repro.analysis.lint import run_lint

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def test_src_tree_lints_clean():
    report = run_lint([SRC])
    assert report.new == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in report.new
    )
    # The one waiver: forging EESum shares needs the real message type.
    # A second one is a decision to review here, not a habit.
    assert [(f.rule, pathlib.Path(f.path).name) for f in report.suppressed] == [
        ("fault-seams", "byzantine.py")
    ]


def test_every_inline_suppression_is_justified():
    report = run_lint([SRC])
    assert all(f.justification for f in report.suppressed)
