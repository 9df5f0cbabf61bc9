"""What a run imports: the mock loop eagerly, everything else on first use.

Importing ``repro.api``, ``repro.service`` or ``repro.warehouse`` loads the
Algorithm 1/3 loop and the mock substrate only.  Two devices defer the
rest:

* a package ``__init__`` lists what it re-exports in a table
  (:func:`exports`, PEP 562): ``from repro.crypto import PackedCodec``
  imports ``repro.crypto.encoding`` at that moment, not when
  ``repro.crypto`` is first touched;
* a loop module names what only the real-ciphertext planes need with
  :func:`defer` — a placeholder bound in the module's globals that imports
  its target when first called (or read) and then rebinds the global to
  it, so the loop module calls it as a plain global either way, and a
  caller that patches the global by name (``perf/spans.py``) keeps working.

:func:`load` resolves every deferred name at once.  ``RunSpec`` calls it
when a spec names a plane with ``uses_real_crypto`` (and imports the
fault plane for a spec that declares faults), so a run imports what its
spec names while the spec is resolved and never inside ``run_iter``
(``docs/ARCHITECTURE.md``, "What a run imports").
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["defer", "exports", "load"]


def _import(package: str, source: str, name: str) -> Any:
    """``from <source> import <name>``, ``source`` relative to ``package``;
    a name that is the source module's own last component is the module."""
    module = importlib.import_module(source, package)
    if source.rpartition(".")[2] == name:
        return module
    return getattr(module, name)


def exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for a package re-exporting ``table``:
    source module (relative, as in a ``from`` import) → the names it gives.

    A name is imported on its first read and bound in the package, so the
    next read is a plain attribute.
    """
    sources = {name: source for source, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = _import(package, source, name)
        return value

    return list(sources), __getattr__


class _Deferred:
    """A global of ``module`` standing in for ``source.name`` until used."""

    def __init__(self, module: str, source: str, name: str) -> None:
        self.module, self.source, self.name = module, source, name
        self.value = None

    def resolve(self) -> Any:
        if self.value is None:
            package = self.module.rpartition(".")[0]
            self.value = _import(package, self.source, self.name)
            namespace = vars(sys.modules[self.module])
            if namespace.get(self.name) is self:  # a patched global stays patched
                namespace[self.name] = self.value
        return self.value

    def __call__(self, *args, **kwargs):
        return self.resolve()(*args, **kwargs)

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self.resolve(), attribute)


_DEFERRED: list[_Deferred] = []


def defer(module: str, source: str, name: str) -> Any:
    """The placeholder ``module`` binds as ``name`` for ``from <source>
    import <name>`` (``source`` relative to ``module``'s package)."""
    placeholder = _Deferred(module, source, name)
    _DEFERRED.append(placeholder)
    return placeholder


def load() -> None:
    """Import every deferred name now: the real-ciphertext substrate."""
    for placeholder in _DEFERRED:
        placeholder.resolve()
