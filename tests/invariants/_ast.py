"""One parse of each ``src/repro`` file, shared by every invariant check.

Pure ``ast``: nothing is imported.  A :class:`Module` holds the file's
dotted name, its imports resolved to absolute modules (relative ones too,
``TYPE_CHECKING`` ones marked) and the alias map that turns a call's
spelling into its target (``np.random.default_rng`` →
``numpy.random.default_rng``).
"""

from __future__ import annotations

import ast
import functools
import pathlib
from typing import NamedTuple

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class Import(NamedTuple):
    module: str  # absolute dotted module
    names: tuple[str, ...]  # from-imported names
    line: int
    type_checking: bool

    @property
    def targets(self) -> tuple[str, ...]:
        """The module, plus ``module.name`` for each from-imported name."""
        return (self.module,) + tuple(
            f"{self.module}.{name}" for name in self.names if name != "*"
        )


class Module(NamedTuple):
    name: str  # e.g. 'repro.core.protocol'; '' outside a ``repro`` tree
    path: pathlib.Path
    tree: ast.Module
    imports: tuple[Import, ...]
    aliases: dict[str, str]

    def under(self, *packages: str) -> bool:
        return any(self.name == p or self.name.startswith(p + ".") for p in packages)

    def resolve(self, node: ast.AST) -> str:
        """Dotted target of a name/attribute chain through the aliases, or
        ``''`` for anything else (a call's result, a subscript)."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    def calls(self):
        """Every call, with its resolved target."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node, self.resolve(node.func)


def module_name(path: pathlib.Path) -> str:
    """Dotted name from the last ``repro`` directory down, so a fixture
    under ``fixtures/repro/core/`` stands in for a ``repro.core`` module."""
    parts = path.with_suffix("").parts
    if "repro" not in parts[:-1]:
        return ""
    dotted = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    return ".".join(dotted[:-1] if dotted[-1] == "__init__" else dotted)


@functools.cache
def parse(path: pathlib.Path) -> Module:
    tree = ast.parse(path.read_text(), filename=str(path))
    name = module_name(path)
    # Relative imports count from the package: an ``__init__``'s own name,
    # the enclosing package's for any other module.
    package = name if path.stem == "__init__" else name.rpartition(".")[0]
    gated = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and "TYPE_CHECKING" in (getattr(node.test, k, None) for k in ("id", "attr"))
        for line in range(node.lineno, node.end_lineno + 1)
    }
    imports, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append(Import(alias.name, (), node.lineno, node.lineno in gated))
                bound = alias.asname or alias.name.split(".")[0]
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".") if package else []
                base = base[: max(len(base) - node.level + 1, 0)]
                module = ".".join(base + ([module] if module else []))
            names = tuple(alias.name for alias in node.names)
            imports.append(Import(module, names, node.lineno, node.lineno in gated))
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
    return Module(name, path, tree, tuple(imports), aliases)


@functools.cache
def src_modules() -> tuple[Module, ...]:
    return tuple(parse(path) for path in sorted(SRC.rglob("*.py")))
