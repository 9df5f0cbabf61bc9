"""The shared single-parse module model: packages, aliases, suppressions."""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.analysis.lint.model import Module, Project

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def parse(tmp_path, source: str, name: str = "mod.py") -> Module:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return Module.parse(path)


class TestPackageInference:
    def test_real_tree_module_gets_dotted_path(self):
        module = Module.parse(REPO / "src" / "repro" / "crypto" / "bigint.py")
        assert module.package == "repro.crypto.bigint"

    def test_package_init_drops_the_stem(self):
        module = Module.parse(
            REPO / "src" / "repro" / "crypto" / "__init__.py"
        )
        assert module.package == "repro.crypto"

    def test_fixture_directive_overrides(self):
        module = Module.parse(FIXTURES / "determinism" / "bad_rng.py")
        assert module.package == "repro.core.example"

    def test_loose_file_has_no_package(self, tmp_path):
        assert parse(tmp_path, "x = 1").package == ""


class TestAliases:
    def test_import_as(self, tmp_path):
        module = parse(tmp_path, "import numpy as np")
        assert module.aliases["np"] == "numpy"

    def test_from_import(self, tmp_path):
        module = parse(tmp_path, "from datetime import datetime")
        assert module.aliases["datetime"] == "datetime.datetime"

    def test_from_import_as_maps_to_real_target(self, tmp_path):
        module = parse(tmp_path, "from time import time as now")
        assert module.aliases["now"] == "time.time"

    def test_resolve_call_through_alias(self, tmp_path):
        module = parse(
            tmp_path,
            """\
            import numpy as np
            r = np.random.default_rng()
            """,
        )
        import ast

        call = next(
            node for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
        )
        assert module.resolve_call(call.func) == "numpy.random.default_rng"


class TestRelativeImports:
    def test_level_one_resolves_against_parent(self, tmp_path):
        source = (
            "# repro-lint-fixture: package=repro.faults.storm\n"
            "from ..gossip.churn import BurstChurnProcess\n"
        )
        module = parse(tmp_path, source)
        (record,) = module.imports
        assert record.module == "repro.gossip.churn"
        assert "repro.gossip.churn.BurstChurnProcess" in record.targets

    def test_type_checking_imports_are_marked(self, tmp_path):
        module = parse(
            tmp_path,
            """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import heavy
            import light
            """,
        )
        by_module = {r.module: r.type_checking for r in module.imports}
        assert by_module["heavy"] is True
        assert by_module["light"] is False


class TestSuppressions:
    def test_trailing_comment_covers_its_line(self, tmp_path):
        module = parse(
            tmp_path,
            "x = risky()  # repro-lint: allow=my-rule -- because reasons\n",
        )
        (suppression,) = module.suppressions[1]
        assert suppression.rules == ("my-rule",)
        assert suppression.justification == "because reasons"

    def test_standalone_comment_covers_next_line(self, tmp_path):
        module = parse(
            tmp_path,
            """\
            # repro-lint: allow=rule-a,rule-b -- shared waiver
            x = risky()
            """,
        )
        (suppression,) = module.suppressions[2]
        assert suppression.rules == ("rule-a", "rule-b")

    def test_missing_justification_is_malformed(self, tmp_path):
        module = parse(tmp_path, "x = 1  # repro-lint: allow=my-rule\n")
        assert module.suppressions == {}
        assert module.bad_suppressions[0][0] == 1


class TestProjectLoad:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            Project.load([pathlib.Path("definitely/not/here")])

    def test_duplicate_paths_parse_once(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("x = 1")
        project = Project.load([path, path, tmp_path])
        assert len(project.modules) == 1

    def test_by_package_indexes_fixture_packages(self):
        project = Project.load([FIXTURES / "determinism" / "bad_rng.py"])
        assert [m.package for m in project.modules] == ["repro.core.example"]
