"""The shared parse: module names, import resolution, aliases."""

from __future__ import annotations

import textwrap

import pytest

from ._ast import SRC, module_name, parse


def parsed(tmp_path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return parse(path)


class TestModuleNames:
    def test_src_module_gets_dotted_name(self):
        assert module_name(SRC / "crypto" / "bigint.py") == "repro.crypto.bigint"

    def test_package_init_drops_the_stem(self):
        assert module_name(SRC / "crypto" / "__init__.py") == "repro.crypto"

    def test_fixture_path_names_the_module_it_stands_in_for(self, tmp_path):
        path = tmp_path / "fixtures" / "repro" / "core" / "bad_rng.py"
        assert module_name(path) == "repro.core.bad_rng"

    def test_loose_file_has_no_name(self, tmp_path):
        assert parsed(tmp_path, "x = 1").name == ""


class TestAliases:
    @pytest.mark.parametrize("source,bound,target", [
        ("import numpy as np", "np", "numpy"),
        ("from datetime import datetime", "datetime", "datetime.datetime"),
        ("from time import time as now", "now", "time.time"),
    ], ids=["import_as", "from_import", "from_import_as_maps_to_real_target"])
    def test_alias(self, tmp_path, source, bound, target):
        assert parsed(tmp_path, source).aliases[bound] == target

    def test_call_resolves_through_alias(self, tmp_path):
        module = parsed(tmp_path, "import numpy as np\nr = np.random.default_rng()\n")
        ((_, target),) = module.calls()
        assert target == "numpy.random.default_rng"


class TestImports:
    def test_relative_import_resolves_against_the_package(self, tmp_path):
        module = parsed(
            tmp_path, "from ..gossip.churn import BurstChurnProcess\n",
            "repro/faults/storm.py",
        )
        (record,) = module.imports
        assert record.module == "repro.gossip.churn"
        assert "repro.gossip.churn.BurstChurnProcess" in record.targets

    def test_package_init_counts_from_itself(self, tmp_path):
        module = parsed(
            tmp_path, "from .base import x\nfrom ..gossip import y\n",
            "repro/faults/__init__.py",
        )
        assert [r.module for r in module.imports] == [
            "repro.faults.base", "repro.gossip",
        ]

    def test_type_checking_imports_are_marked(self, tmp_path):
        module = parsed(tmp_path, """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import heavy
            import light
            """)
        gated = {r.module: r.type_checking for r in module.imports}
        assert gated["heavy"] is True
        assert gated["light"] is False
