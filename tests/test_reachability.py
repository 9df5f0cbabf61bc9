"""Every module under ``src/repro`` has a caller (ROADMAP: "a module with
one caller or none is deleted"), and so has every public name in it.

Pure ``ast`` — nothing is imported.  A module passes when

* another module imports it, or a name it defines (followed through package
  ``__init__`` re-exports; an ``__init__`` re-exporting it is not a caller),
* or it registers a component (``@register_*``): its package imports it for
  that side effect,
* or it is a front door (``cli``, ``__main__``).

There is no exemption: a module only a bench or an example calls lives
beside that caller, not under ``src/``.

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

An option — a defaulted parameter of a top-level function or of a method
of a top-level class, or a defaulted field of a *frozen* dataclass (a
non-frozen one holds state, not options) — passes when some call under
``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or ``perf/`` supplies it:

* by keyword or by position, in a call whose callee has the function's bare
  name (the class's for ``__init__`` — ``super().__init__`` is a call of
  the bases — and for fields; ``replace(x, field=...)`` too for fields;
  ``timed("span", f, a, b)`` is a call ``f(a, b)``),
* or through a ``*`` / ``**`` forward in such a call (not of a dict spelled
  out in the same file: its keys are read instead),
* or as a string or JSON key there (spec blocks reach their builders as
  ``**params``, argparse reaches handlers as ``args.<dest>``).

A test seam is a caller here: an option only a test sets stays.  There is no
exception table — an option nobody sets becomes a constant.

Matching is by bare name on purpose: ``a.run()`` counts for every ``run``.
A false pass is acceptable, a false fail is not.
"""

import ast
import functools
import json
import pathlib
import re

THIS_FILE = pathlib.Path(__file__).resolve()
ROOT = THIS_FILE.parents[1]
SRC = ROOT / "src" / "repro"

FRONT_DOORS = {"cli", "__main__"}


#: public name nothing outside ``tests/`` reads → why it stays.
TEST_ORACLES = {
    "clustering.distance.squared_euclidean":
        "the scalar definition pairwise_sq_euclidean is checked against",
    "clustering.inertia.inter_inertia":
        "Def. 1's decomposition: intra + inter must equal dataset_inertia, "
        "which intra_inertia is checked with",
    "core.verification.DeviceRegistry.is_authorized":
        "reads back what register/revoke did to the registry",
    "crypto.encoding.quantize_to_grid":
        "FixedPointCodec encode→decode on a whole array: the grid the "
        "shadow-execution tests put both planes' inputs on",
    "crypto.shamir.reconstruct_at_zero":
        "plain Lagrange reconstruction the dealt shares are checked with",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _dotted(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(part for part in parts if part != "__init__")


TREES = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
#: dotted name (relative to ``repro``, "" for the root package) → tree
PACKAGES = {_dotted(p): t for p, t in TREES.items() if p.name == "__init__.py"}
MODULES = {_dotted(p): t for p, t in TREES.items() if p.name != "__init__.py"}


def _relative(package: str, level: int, module: str | None) -> str:
    """``from <level dots><module>`` inside ``package``, dotted relative to
    ``repro``."""
    parts = package.split(".") if package else []
    parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts + (module or "").split(".")).strip(".")


def _deferred(node: ast.AST):
    """``(source, names)`` per lazy import (``repro.lazy``): a
    ``lazy.defer(__name__, source, name)`` call, or each entry of a
    ``lazy.exports(__name__, {source: names})`` table."""
    if not isinstance(node, ast.Call) or _bare(node.func) not in ("defer", "exports"):
        return
    args = node.args[1:]
    if _bare(node.func) == "defer" and len(args) == 2:
        yield args[0].value, [args[1].value]
    elif _bare(node.func) == "exports" and isinstance(args[0], ast.Dict):
        for source, names in zip(args[0].keys, args[0].values):
            yield source.value, [name.value for name in names.elts]


def _imports(tree: ast.AST, package: str):
    """``(base, name)`` per imported name, ``base`` dotted relative to
    ``repro`` (``None`` for imports from outside it); ``name`` is ``None``
    for a plain ``import a.b``.  A lazy import counts as an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name.partition(".")[2], None
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative(package, node.level, node.module)
            elif (node.module or "").split(".")[0] == "repro":
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                yield base, alias.name
        for source, names in _deferred(node):
            module = source.lstrip(".")
            base = _relative(package, len(source) - len(module), module)
            for name in names:
                yield base, name


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
        and not _registers(tree)
    )
    assert unreached == [], (
        f"no module under src/repro calls {unreached}: wire each into the "
        "path that should use it, move it beside its only caller, or delete it"
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


# ---------------------------------------------------------- option level

CALLER_ROOTS = ("src", "tests", "benchmarks", "examples", "perf")


def _bare(node: ast.AST) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and _bare(d.func) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False)
                for k in d.keywords)
        for d in node.decorator_list
    )


def _function_options(qualified: str, callees: set[str], node, method: bool):
    """``(qualified.param, callees, param, position)`` per defaulted parameter
    (``position`` as a caller counts it — no ``self``; ``None``: keyword-only)."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield f"{qualified}.{arg.arg}", callees, arg.arg, index - method
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield f"{qualified}.{arg.arg}", callees, arg.arg, None


def _options():
    for path, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            qualified = f"{_dotted(path)}.{node.name}".lstrip(".")
            if not isinstance(node, ast.ClassDef):
                yield from _function_options(qualified, {node.name}, node, False)
                continue
            fields = 0
            for item in node.body:
                if isinstance(item, _DEFS[:2]):
                    static = any(_bare(d) == "staticmethod" for d in item.decorator_list)
                    callees = {node.name if item.name == "__init__" else item.name}
                    yield from _function_options(
                        f"{qualified}.{item.name}", callees, item, not static
                    )
                elif isinstance(item, ast.AnnAssign) and _frozen_dataclass(node):
                    settable = not (
                        isinstance(item.value, ast.Call)
                        and any(k.arg == "init" for k in item.value.keywords)
                    ) and "ClassVar" not in ast.unparse(item.annotation)
                    if settable and item.value is not None:
                        name = item.target.id
                        yield f"{qualified}.{name}", {node.name, "replace"}, name, fields
                    fields += settable


def _callees(tree: ast.AST):
    """``(call, positional arguments, callee bare names)`` per call.  Inside
    a class, ``cls(...)`` is a call of the class and ``super().__init__(...)``
    one of its bases; a function handed over by name is called with the
    arguments after it."""
    inside = {
        call: [cls.name] if _bare(call.func) == "cls" else list(map(_bare, cls.bases))
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for call in ast.walk(cls)
        if isinstance(call, ast.Call) and _bare(call.func) in ("cls", "__init__")
    }
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            yield call, call.args, inside.get(call, [_bare(call.func)])
            # `recorder.timed("span", f, a, b)` calls `f(a, b)`.
            for index, arg in enumerate(call.args):
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    yield ast.Call(arg, [], []), call.args[index + 1:], [_bare(arg)]


def _dict_keys(node: ast.AST) -> set[str] | None:
    """The keys of a ``{...}`` or ``dict(...)`` expression; ``None`` when it
    is neither, or holds a ``**`` of its own."""
    if isinstance(node, ast.Dict):
        keys = {getattr(key, "value", None) for key in node.keys}
    elif isinstance(node, ast.Call) and _bare(node.func) == "dict" and not node.args:
        keys = {k.arg for k in node.keywords}
    else:
        return None
    return None if None in keys else keys


def _supplied():
    """What the calls in the tree supply: keyword names and the positional
    count per callee bare name, the callees given a ``**`` forward, and every
    key of a dict display or a JSON file."""
    keywords: dict[str, set[str]] = {}
    positions: dict[str, float] = {}
    forwarded: set[str] = set()
    strings: set[str] = set()

    def json_keys(value):
        if isinstance(value, dict):
            strings.update(value)
            value = list(value.values())
        for item in value if isinstance(value, list) else ():
            json_keys(item)

    for root in map(ROOT.joinpath, CALLER_ROOTS):
        for path in sorted(root.rglob("*.json")):
            json_keys(json.loads(path.read_text()))
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            # `**sizing` forwards exactly the keys of `sizing = dict(...)` when
            # that is all the file does to the name; anything else forwards all.
            spelled_out: dict[str | None, set[str] | None] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Dict):
                    strings.update(k.value for k in node.keys if isinstance(
                        getattr(k, "value", None), str))
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        name = _bare(target)
                        spelled_out[name] = (
                            None if name in spelled_out else _dict_keys(node.value)
                        )
                elif isinstance(node, ast.Attribute) and node.attr == "update":
                    spelled_out[_bare(node.value)] = None
            for call, args, callees in _callees(tree):
                names = {k.arg for k in call.keywords if k.arg}
                blanket = False
                for k in call.keywords:
                    if k.arg is None:
                        known = _dict_keys(k.value) or spelled_out.get(_bare(k.value))
                        names |= known or set()
                        blanket |= known is None
                count = float("inf") if any(
                    isinstance(a, ast.Starred) for a in args) else len(args)
                for callee in callees:
                    keywords.setdefault(callee, set()).update(names)
                    # A field is replaced by name: `replace(x, **changes)`
                    # forwards the keywords of *its* callers, seen there.
                    if callee != "replace":
                        positions[callee] = max(positions.get(callee, 0), count)
                        forwarded |= {callee} if blanket else set()
    return keywords, positions, forwarded, strings


def test_every_option_is_set_by_some_caller():
    keywords, positions, forwarded, strings = _supplied()
    unset = sorted(
        qualified
        for qualified, callees, name, position in _options()
        if name not in strings
        and not any(
            name in keywords.get(callee, ())
            or callee in forwarded
            or (position is not None and positions.get(callee, 0) > position)
            for callee in callees
        )
    )
    assert unset == [], (
        f"no call under {', '.join(CALLER_ROOTS)} sets {unset}: make each "
        "value a constant (the dead branch goes with it) or delete the field"
    )

