"""The tree's structural invariants, one plain check each.

A check maps one parsed module (:mod:`._ast`) to ``(line, message)`` pairs;
a message's first word names what fired.  Every check runs over every module
under ``src/repro``, where it must find nothing but the ``ALLOWED`` entries,
and over its fixtures, where the bad one must fire and the good ones must
not.  A fixture's path names the module it stands in for:
``fixtures/repro/core/bad_rng.py`` is checked as ``repro.core.bad_rng``.
"""

from __future__ import annotations

import ast
import functools
import pathlib

import pytest

from ._ast import SRC, parse, src_modules

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "repro"

#: Where randomness and clocks must be injected, never ambient.
PROTOCOL = ("repro.core", "repro.gossip", "repro.crypto", "repro.clustering")
#: The layers (docs/ARCHITECTURE.md): the protocol, importable alone, and
#: everything that wraps, drives or observes it.
FOUNDATION = PROTOCOL + ("repro.privacy", "repro.datasets")
ORCHESTRATION = ("repro.api", "repro.faults", "repro.service", "repro.warehouse",
                 "repro.cli")
#: The fault plane's documented ways into protocol internals: engines are
#: wrapped (``plan.wrap_engine``), outputs observed (``plan.observe_output``).
FAULT_SEAMS = ("repro.gossip.engine", "repro.gossip.vectorized_protocol",
               "repro.core.verification")
#: The one module that does modular bigint arithmetic itself.
KERNEL = "repro.crypto.bigint"

#: (check, file under src/repro, what fired) → why it stays.
ALLOWED = {
    ("fault-seams", "faults/byzantine.py", "repro.gossip.eesum"):
        "forging EESum shares requires the real message type, not a seam",
}


def _hit(targets, prefixes) -> bool:
    return any(t == p or t.startswith(p + ".") for t in targets for p in prefixes)


def determinism_rng(module):
    """No unseeded RNG and no global-singleton draw in protocol code: each
    pulls entropy the run spec never sees, and seeded replay is the claim."""
    if not module.under(*PROTOCOL):
        return
    for node, target in module.calls():
        if target in ("numpy.random.default_rng", "random.Random"):
            seed = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "seed"), None
            )
            # A literal None seed pulls OS entropy just as no seed does.
            if not (node.args or node.keywords) or (
                    isinstance(seed, ast.Constant) and seed.value is None):
                yield node.lineno, f"{target}() is unseeded: thread the run seed"
        elif target.startswith("random.") and target.count(".") == 1:
            yield node.lineno, f"{target}() draws from the global singleton"
        elif target.startswith("numpy.random.") and target.rsplit(".", 1)[1] \
                not in ("default_rng", "Generator", "SeedSequence", "BitGenerator"):
            yield node.lineno, f"{target}() draws from numpy's legacy global RNG"


WALL_CLOCKS = {"time.time", "time.time_ns", "datetime.datetime.now",
               "datetime.datetime.utcnow", "datetime.datetime.today",
               "datetime.date.today"}


def determinism_wall_clock(module):
    """No wall-clock read in protocol code (replay would diverge); the
    monotonic duration clocks only feed telemetry and stay allowed."""
    if module.under(*PROTOCOL):
        for node, target in module.calls():
            if target in WALL_CLOCKS:
                yield node.lineno, f"{target}() reads the wall clock"


def bigint_purity(module):
    """Three-argument ``pow`` and ``gmpy2`` only in the kernel, so the
    gmpy2 backend covers every site the benchmarks compare."""
    if not module.under("repro") or module.name == KERNEL:
        return
    for record in module.imports:
        if _hit(record.targets, ("gmpy2",)):
            yield record.line, f"gmpy2 imported outside {KERNEL}"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow" \
                and len(node.args) == 3:
            yield node.lineno, f"pow(a, b, m) outside {KERNEL}: use bigint.powmod"


def layering_dag(module):
    """Foundation never imports orchestration (``TYPE_CHECKING`` aside)."""
    if module.under(*FOUNDATION):
        for record in module.imports:
            if not record.type_checking and _hit(record.targets, ORCHESTRATION):
                yield record.line, f"{record.module} is orchestration"


def fault_seams(module):
    """Faults reach ``core``/``gossip`` internals only through the seams."""
    if module.under("repro.faults"):
        for record in module.imports:
            if not record.type_checking and not _hit(record.targets, FAULT_SEAMS) \
                    and _hit(record.targets, ("repro.core", "repro.gossip")):
                yield record.line, f"{record.module} is past the fault seams"


def _registration(node, module):
    """The key of a ``@register_*(...)``/``@<registry>.register(...)``."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            target = module.resolve(decorator.func)
            if target.rsplit(".", 1)[-1].startswith("register"):
                arg = decorator.args[0] if decorator.args else None
                return repr(arg.value) if isinstance(arg, ast.Constant) else target
    return None


def _mutable_dataclass(node) -> bool:
    """``@dataclass`` or ``@dataclasses.dataclass``, bare or called,
    without ``frozen=True``."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return not any(
                kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                for kw in getattr(decorator, "keywords", ())
            )
    return False


def registry_hygiene(module):
    """A registered component has a docstring (listings print it); a
    registered dataclass is frozen (every run shares it)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        key = _registration(node, module)
        if key is None:
            continue
        if not ast.get_docstring(node):
            yield node.lineno, f"{node.name} ({key}) has no docstring"
        if isinstance(node, ast.ClassDef) and _mutable_dataclass(node):
            yield node.lineno, f"{node.name} ({key}) is not frozen=True"


BUDGET_NAMES = {"PrivacyAccountant", "epsilon_for", "epsilon_charged", "charge",
                "BudgetExhausted"}


def epsilon_accounting(module):
    """A protocol module that draws DP noise references the budget flow, or
    its draws are unaccounted ε.  Module-granular: data flow through numpy
    is out of ``ast``'s reach.  ``repro.privacy`` is the mechanism layer
    itself, so it is out of scope."""
    if not module.under(*PROTOCOL):
        return
    sites, names = [], set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.add(getattr(node, "id", getattr(node, "attr", None)))
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve(node.func)
        attr = getattr(node.func, "attr", None)
        if attr in ("laplace", "gamma", "standard_gamma") \
                and not target.startswith("math."):
            sites.append((node.lineno, f".{attr}()"))
        elif target.rsplit(".", 1)[-1] in ("LaplaceMechanism", "NoisePlan"):
            sites.append((node.lineno, f"{target.rsplit('.', 1)[-1]}(...)"))
    if not names & BUDGET_NAMES:
        for line, what in sites:
            yield line, f"{what} draws DP noise with no budget flow in the module"


CHECKS = {
    "determinism-rng": determinism_rng,
    "determinism-wall-clock": determinism_wall_clock,
    "bigint-purity": bigint_purity,
    "layering-dag": layering_dag,
    "fault-seams": fault_seams,
    "registry-hygiene": registry_hygiene,
    "epsilon-accounting": epsilon_accounting,
}

#: check → (bad fixture, violations in it, good fixtures)
CASES = {
    "determinism-rng": ("core/bad_rng.py", 6,
                        ["core/good_rng.py", "service/good_rng_out_of_scope.py"]),
    "determinism-wall-clock": ("gossip/bad_clock.py", 2, ["gossip/good_clock.py"]),
    "bigint-purity": ("gossip/bad_pow.py", 2, ["gossip/good_pow.py", "crypto/bigint.py"]),
    "layering-dag": ("core/bad_upward.py", 2, ["core/good_downward.py"]),
    "fault-seams": ("faults/bad_seams.py", 1, ["faults/good_seams.py"]),
    "registry-hygiene": ("api/bad_hygiene.py", 3, ["api/good_hygiene.py"]),
    "epsilon-accounting": ("core/bad_epsilon.py", 2, ["core/good_epsilon.py"]),
}


def run(check: str, path: pathlib.Path) -> list[tuple[int, str]]:
    return list(CHECKS[check](parse(path)))


@functools.cache
def src_violations() -> tuple[tuple[str, str, int, str], ...]:
    """``(check, file, line, message)`` for every violation in ``src/repro``."""
    return tuple(
        (check, module.path.relative_to(SRC).as_posix(), line, message)
        for module in src_modules()
        for check, fn in CHECKS.items()
        for line, message in fn(module)
    )


@pytest.mark.parametrize("check", CASES)
def test_bad_fixture_fires(check):
    bad, expected, _ = CASES[check]
    found = run(check, FIXTURES / bad)
    assert len(found) == expected, found


@pytest.mark.parametrize("check", CASES)
def test_good_fixtures_stay_silent(check):
    for good in CASES[check][2]:
        assert run(check, FIXTURES / good) == [], good


def test_epsilon_check_sees_standard_gamma():
    """The share sampler's primitive is a noise site like ``rng.gamma``."""
    found = run("epsilon-accounting", FIXTURES / "gossip/bad_standard_gamma.py")
    assert [message.split()[0] for _, message in found] == [".standard_gamma()"]


def test_layering_sees_deferred_imports():
    """An import ``repro.lazy`` defers is an import like any other."""
    found = run("layering-dag", FIXTURES / "core/bad_deferred_upward.py")
    assert [message.split()[0] for _, message in found] == ["repro.api.experiment"]


def test_src_tree_holds_its_invariants():
    left = [
        f"{file}:{line}: {check}: {message}"
        for check, file, line, message in src_violations()
        if (check, file, message.split()[0]) not in ALLOWED
    ]
    assert left == []


def test_every_allowlist_entry_is_still_needed():
    fired = {(check, file, message.split()[0])
             for check, file, _, message in src_violations()}
    assert [entry for entry in ALLOWED if entry not in fired] == []
