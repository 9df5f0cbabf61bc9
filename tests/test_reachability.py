"""Every module under ``src/repro`` has a caller (ROADMAP: "a module with
one caller or none is deleted"), and so has every public name in it.

Pure ``ast`` — nothing is imported.  A module passes when

* another module imports it, or a name it defines (followed through package
  ``__init__`` re-exports; an ``__init__`` re-exporting it is not a caller),
* or it registers a component (``@register_*``): its package imports it for
  that side effect,
* or it is a front door (``cli``, ``__main__``),
* or it implements a paper extension whose one caller lives outside
  ``src/`` — the short table below, each entry checked to still import it.

A public name — a top-level function or class, or a method or property of
a top-level class, without a leading underscore (so no dunder) — passes when

* its bare name is read somewhere under ``src/repro`` (an ``ast.Name`` or
  the attribute of an ``ast.Attribute``: a definition, an ``__all__``
  string and an import are none of these, so re-exporting is not calling),
* or the name occurs in a file under ``benchmarks/``, ``examples/``,
  ``perf/`` or ``docs/`` or in ``README.md`` — a bench measures it or a
  page documents it,
* or it is registered through a ``@register_*`` decorator,
* or it is a test oracle — an implementation kept for tests to compare
  another one against — in the short ``TEST_ORACLES`` table, each entry
  with its reason and checked to be needed and still used by a test.

Matching is by bare name on purpose: ``a.run()`` counts for every ``run``.
A false pass is acceptable, a false fail is not.
"""

import ast
import functools
import pathlib
import re

THIS_FILE = pathlib.Path(__file__).resolve()
ROOT = THIS_FILE.parents[1]
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


#: public name nothing outside ``tests/`` reads → why it stays.
TEST_ORACLES = {
    "clustering.distance.squared_euclidean":
        "the scalar definition pairwise_sq_euclidean is checked against",
    "clustering.dtw.dtw_path":
        "backtracks the cost matrix: its path's cost must equal dtw_distance",
    "core.verification.DeviceRegistry.is_authorized":
        "reads back what register/revoke did to the registry",
    "crypto.encoding.quantize_to_grid":
        "FixedPointCodec encode→decode on a whole array: the grid the "
        "shadow-execution tests put both planes' inputs on",
    "crypto.shamir.reconstruct_at_zero":
        "plain Lagrange reconstruction the dealt shares are checked with",
    "gossip.cipher_array.CipherEESum.scaled_omega":
        "the object plane's integer ω, for the plane-equivalence tests",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def _registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        call = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(call, "id", getattr(call, "attr", "")).startswith("register"):
            return True
    return False


def _registers(tree: ast.AST) -> bool:
    return any(_registered(node) for node in ast.walk(tree))


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


# ------------------------------------------------------------ name level

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_names():
    """``(qualified, bare)`` per public top-level def and public method."""
    for path, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if _registered(node):
                continue
            qualified = f"{_dotted(path)}.{node.name}".lstrip(".")
            yield qualified, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, _DEFS[:2]) and not item.name.startswith("_"):
                    yield f"{qualified}.{item.name}", item.name


def _names_read_in_src() -> set[str]:
    read = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _words_under(*roots: str) -> set[str]:
    """Every identifier-shaped word in the text files there (not this one:
    its own table must not count as a test using an oracle)."""
    words: set[str] = set()
    for root in map(ROOT.joinpath, roots):
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in paths:
            if path.suffix in (".py", ".md") and path != THIS_FILE:
                words |= set(_WORD.findall(path.read_text()))
    return words


@functools.cache
def _uncalled() -> dict[str, str]:
    """qualified → bare, for every public name nothing reads."""
    read = _names_read_in_src() | _words_under(
        "benchmarks", "examples", "perf", "docs", "README.md"
    )
    return {q: bare for q, bare in _public_names() if bare not in read}


def test_every_public_name_has_a_caller():
    unreached = sorted(set(_uncalled()) - set(TEST_ORACLES))
    assert unreached == [], (
        f"nothing under src/, benchmarks/, examples/, perf/ or docs/ reads "
        f"{unreached}: call each where it belongs or delete it with its "
        "unit test (a test is not a caller; a reference implementation "
        "tests compare against goes in TEST_ORACLES, with its reason)"
    )


def test_test_oracles_are_needed_and_used():
    uncalled = _uncalled()
    in_tests = _words_under("tests")
    for oracle, reason in TEST_ORACLES.items():
        assert reason
        assert oracle in uncalled, (
            f"{oracle} is gone or has a caller now: drop its TEST_ORACLES entry"
        )
        assert uncalled[oracle] in in_tests, (
            f"no test uses {oracle} any more: delete it and its entry"
        )
