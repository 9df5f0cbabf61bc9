"""Every module under ``src/repro`` has a caller (ROADMAP: "a module with
one caller or none is deleted").

Pure ``ast`` — nothing is imported.  A module passes when

* another module imports it, or a name it defines (followed through package
  ``__init__`` re-exports; an ``__init__`` re-exporting it is not a caller),
* or it registers a component (``@register_*``): its package imports it for
  that side effect,
* or it is a front door (``cli``, ``__main__``),
* or it implements a paper extension whose one caller lives outside
  ``src/`` — the short table below, each entry checked to still import it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

FRONT_DOORS = {"cli", "__main__"}

#: module → the example or bench that is its caller.
OUTSIDE_CALLERS = {
    # footnote 9: participants monitor quality and stop early
    "core.quality_monitor": "examples/private_em_mixture.py",
    # Sec. 6.3.2: the iteration-latency composition
    "analysis.latency": "benchmarks/bench_latency_iteration.py",
    # the DTW extension of the distance (Sec. 7)
    "clustering.dtw": "examples/health_tumor_clustering.py",
    # the EM extension over the same additive pipeline
    "core.perturbed_em": "examples/private_em_mixture.py",
}


def _dotted(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(part for part in parts if part != "__init__")


TREES = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
#: dotted name (relative to ``repro``, "" for the root package) → tree
PACKAGES = {_dotted(p): t for p, t in TREES.items() if p.name == "__init__.py"}
MODULES = {_dotted(p): t for p, t in TREES.items() if p.name != "__init__.py"}


def _imports(tree: ast.AST, package: str):
    """``(base, name)`` per imported name, ``base`` dotted relative to
    ``repro`` (``None`` for imports from outside it); ``name`` is ``None``
    for a plain ``import a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name.partition(".")[2], None
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".") if package else []
                parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts + (node.module or "").split(".")).strip(".")
            elif (node.module or "").split(".")[0] == "repro":
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                yield base, alias.name


def _resolve(base: str, name: str | None, seen=()) -> str | None:
    """The module an imported name lives in (``None``: not a module's)."""
    if name is not None:
        child = f"{base}.{name}".strip(".")
        if child in MODULES:
            return child
    if base in MODULES:
        return base
    if base in PACKAGES and name is not None and (base, name) not in seen:
        for inner_base, inner_name in _imports(PACKAGES[base], base):
            if inner_name == name:
                return _resolve(inner_base, inner_name, (*seen, (base, name)))
    return None


def _called_from(tree: ast.AST, package: str) -> set[str]:
    return {
        target
        for base, name in _imports(tree, package)
        if (target := _resolve(base, name)) is not None
    }


def _registers(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                call = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(call, "id", getattr(call, "attr", ""))
                if name.startswith("register"):
                    return True
    return False


def test_every_module_has_a_caller():
    called: set[str] = set()
    for module, tree in MODULES.items():
        package = module.rpartition(".")[0]
        called |= _called_from(tree, package) - {module}
    unreached = sorted(
        module
        for module, tree in MODULES.items()
        if module not in called
        and module not in FRONT_DOORS
        and module not in OUTSIDE_CALLERS
        and not _registers(tree)
    )
    assert unreached == [], (
        f"no module under src/repro calls {unreached}: wire each into the "
        "path that should use it, move it beside its only caller, or delete it"
    )


def test_outside_callers_still_call():
    for module, caller in OUTSIDE_CALLERS.items():
        assert module in MODULES, f"{module} is gone: drop its table entry"
        path = ROOT / caller
        assert path.exists(), f"{caller} (caller of {module}) is gone"
        assert module in _called_from(ast.parse(path.read_text()), ""), (
            f"{caller} no longer imports {module}"
        )
