"""The single-parse module model every lint rule shares.

One :class:`Module` is built per file — source, AST, inferred package
path, resolved imports, alias map, ``TYPE_CHECKING`` line spans and
suppression comments — and a :class:`Project` holds them all, so seven
rules cost one parse, not seven.

Package inference walks ``__init__.py`` parents (``src/repro/core/x.py``
→ ``repro.core.x``).  Fixture files — test snippets that must masquerade
as protocol modules without living inside the real tree — override it
with a directive in their first lines::

    # repro-lint-fixture: package=repro.core.example

Suppressions are per-line comments carrying a mandatory one-line
justification::

    risky_call()  # repro-lint: allow=rule-id -- why this is fine

A standalone suppression comment line applies to the next statement
line.  A suppression without the ``-- justification`` tail is itself
reported (rule id ``suppression``) and does not suppress anything.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass

__all__ = ["Module", "Project"]

#: ``# repro-lint: allow=rule-a,rule-b -- justification``
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*allow=([A-Za-z0-9_,\-]+)\s*(?:--\s*(\S.*))?$"
)

_FIXTURE_RE = re.compile(r"#\s*repro-lint-fixture:\s*package=([\w.]+)")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``repro-lint: allow=`` comment."""

    rules: tuple[str, ...]
    justification: str


@dataclass(frozen=True)
class ImportRecord:
    """One import edge, resolved to absolute dotted module paths.

    ``targets`` holds the imported module itself plus, for
    ``from M import a, b``, the candidates ``M.a``/``M.b`` — a rule
    checking "does this module import package P" matches any target
    with prefix P, whichever spelling the import used.
    """

    module: str  # absolute dotted module ('' for bare relative)
    names: tuple[str, ...]  # imported names ('*' possible)
    line: int
    type_checking: bool  # gated behind `if TYPE_CHECKING:`

    @property
    def targets(self) -> tuple[str, ...]:
        out = [self.module] if self.module else []
        for name in self.names:
            if name != "*" and self.module:
                out.append(f"{self.module}.{name}")
        return tuple(out)


class Module:
    """One parsed source file plus everything rules repeatedly need."""

    def __init__(self, path: pathlib.Path, source: str, package: str) -> None:
        self.path = path
        self.lines = source.splitlines()
        #: dotted module path, e.g. ``repro.core.protocol`` ('' if unknown)
        self.package = package
        self.tree = ast.parse(source, filename=str(path))
        self.type_checking_spans = _type_checking_spans(self.tree)
        self.suppressions, self.bad_suppressions = _parse_suppressions(
            self.lines
        )
        self.imports = _collect_imports(self.tree, package, self)
        self.aliases = _collect_aliases(self.tree, package)

    # ------------------------------------------------------------ helpers

    @classmethod
    def parse(cls, path: pathlib.Path) -> "Module":
        source = path.read_text()
        return cls(path, source, _infer_package(path, source))

    def in_type_checking(self, line: int) -> bool:
        """Is ``line`` inside an ``if TYPE_CHECKING:`` block?"""
        return any(lo <= line <= hi for lo, hi in self.type_checking_spans)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def resolve_call(self, node: ast.AST) -> str:
        """Absolute dotted path of a call target, through the alias map.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; ``datetime.now()`` after
        ``from datetime import datetime`` to ``datetime.datetime.now``.
        Returns ``''`` when the target is not a plain name/attribute
        chain.
        """
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return ""
        parts.append(cursor.id)
        parts.reverse()
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])

    def referenced_names(self) -> set[str]:
        """Every bare name and attribute name read anywhere in the module."""
        names: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names


class Project:
    """All modules under the linted paths, parsed once."""

    def __init__(self, modules: list[Module]) -> None:
        self.modules = modules

    @classmethod
    def load(cls, paths: list[pathlib.Path]) -> "Project":
        files: list[pathlib.Path] = []
        seen: set[pathlib.Path] = set()
        for path in paths:
            if path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            elif path.exists():
                candidates = [path]
            else:
                raise FileNotFoundError(str(path))
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    files.append(candidate)
        return cls([Module.parse(f) for f in files])


# ----------------------------------------------------------- construction


def _infer_package(path: pathlib.Path, source: str) -> str:
    for line in source.splitlines()[:5]:
        match = _FIXTURE_RE.search(line)
        if match:
            return match.group(1)
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    cursor = resolved.parent
    while (cursor / "__init__.py").exists():
        parts.insert(0, cursor.name)
        cursor = cursor.parent
    return ".".join(parts) if len(parts) > (resolved.stem != "__init__") else ""


def _type_checking_spans(tree: ast.Module) -> tuple[tuple[int, int], ...]:
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            last = node.body[-1]
            spans.append((node.lineno, getattr(last, "end_lineno", last.lineno)))
    return tuple(spans)


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _parse_suppressions(
    lines: list[str],
) -> tuple[dict[int, list[Suppression]], list[tuple[int, str]]]:
    by_line: dict[int, list[Suppression]] = {}
    malformed: list[tuple[int, str]] = []
    for number, text in enumerate(lines, start=1):
        match = SUPPRESS_RE.search(text)
        if not match:
            continue
        justification = (match.group(2) or "").strip()
        if not justification:
            malformed.append((number, text.strip()))
            continue
        # A comment-only line covers the next line; a trailing comment
        # covers its own.
        target = number + 1 if text.lstrip().startswith("#") else number
        rules = tuple(
            r.strip() for r in match.group(1).split(",") if r.strip()
        )
        by_line.setdefault(target, []).append(
            Suppression(rules=rules, justification=justification)
        )
    return by_line, malformed


def _collect_imports(
    tree: ast.Module, package: str, module: "Module"
) -> tuple[ImportRecord, ...]:
    records: list[ImportRecord] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                records.append(
                    ImportRecord(
                        module=alias.name,
                        names=(),
                        line=node.lineno,
                        type_checking=module.in_type_checking(node.lineno),
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            records.append(
                ImportRecord(
                    module=_resolve_from(node, package),
                    names=tuple(alias.name for alias in node.names),
                    line=node.lineno,
                    type_checking=module.in_type_checking(node.lineno),
                )
            )
    return tuple(records)


def _resolve_from(node: ast.ImportFrom, package: str) -> str:
    if not node.level:
        return node.module or ""
    # Relative import: walk `level` components up from the importing
    # module's dotted path (the module's own name counts as one).
    parts = package.split(".") if package else []
    base = parts[: max(len(parts) - node.level, 0)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _collect_aliases(tree: ast.Module, package: str) -> dict[str, str]:
    """Bound name → absolute dotted prefix, for resolving call targets.

    Handles the repo's idioms: ``import numpy as np`` (np → numpy),
    ``import time`` (time → time), ``from time import time``
    (time → time.time), ``from datetime import datetime``
    (datetime → datetime.datetime).  Aliased from-imports
    (``from x import y as z``) map the alias to the real target, so a
    rename cannot hide a call from a rule.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom):
            module = _resolve_from(node, package)
            if not module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
    return aliases
