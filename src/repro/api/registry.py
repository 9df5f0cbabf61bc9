"""String-keyed component registries — the extension surface of the API.

Every named piece of an experiment (dataset generator, centroid
initializer, budget strategy, execution plane) lives in a
:class:`Registry`, so a :class:`~repro.api.spec.RunSpec` can name it by a
stable string.  A new dataset, initializer or strategy is one
``@register_*`` decoration away:

>>> from repro.api import register_dataset
>>> @register_dataset("my-workload")
... def build(seed, **params):
...     return make_timeseries_set(seed=seed, **params)

Registered callables follow fixed signatures (enforced by convention, not
reflection — keep them boring):

* dataset builder:      ``build(seed: int, **params) -> TimeSeriesSet``
* initializer:          ``build(dataset, k, rng, **params) -> np.ndarray``
* strategy factory:     ``build(params: ChiaroscuroParams, label: str) -> BudgetStrategy``
* plane:                an :class:`~repro.api.experiment.ExecutionPlane` of facts
  about one substrate of ``ChiaroscuroRun`` (a new plane is a substrate
  there, not a registration here)

The built-in keys are registered by :mod:`repro.api.builtins` when
``repro.api`` is imported.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterator

__all__ = [
    "DATASETS",
    "INITIALIZERS",
    "PLANES",
    "Registry",
    "STRATEGIES",
    "register_dataset",
    "register_initializer",
    "register_strategy",
    "resolve_strategy",
]

_KEY_RE = re.compile(r"^[a-z0-9][a-z0-9_\-]*$", re.IGNORECASE)


class Registry:
    """A named string → component mapping with decorator registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._items: dict[str, Any] = {}

    def register(self, key: str, obj: Any = None):
        """Register ``obj`` under ``key``; usable as ``@registry.register(key)``."""
        if not _KEY_RE.match(key):
            raise ValueError(
                f"invalid {self.kind} key {key!r}: use letters, digits, '-', '_'"
            )
        if obj is None:

            def decorator(target: Any) -> Any:
                self.register(key, target)
                return target

            return decorator
        if key in self._items and self._items[key] is not obj:
            raise ValueError(f"{self.kind} key {key!r} is already registered")
        self._items[key] = obj
        return obj

    def get(self, key: str) -> Any:
        try:
            return self._items[key]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {key!r}; registered: {', '.join(self.keys())}"
            ) from None

    def keys(self) -> list[str]:
        return sorted(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._items)


DATASETS = Registry("dataset")
INITIALIZERS = Registry("initializer")
STRATEGIES = Registry("budget strategy")
PLANES = Registry("execution plane")


def register_dataset(key: str) -> Callable:
    """Decorator: register a ``build(seed, **params) -> TimeSeriesSet``."""
    return DATASETS.register(key)


def register_initializer(key: str) -> Callable:
    """Decorator: register a ``build(dataset, k, rng, **params) -> ndarray``."""
    return INITIALIZERS.register(key)


def register_strategy(key: str) -> Callable:
    """Decorator: register a ``build(params, label) -> BudgetStrategy``."""
    return STRATEGIES.register(key)


def resolve_strategy(name: str, params) -> Any:
    """Build a budget strategy from its spec label.

    Exact registry keys win (``"G"``, ``"GF"``, ``"UF"``); any other
    ``"UF…"`` label goes to the ``"UF"`` factory, which reads the bound out
    of the label (``UF5``, ``UF10``, …) or rejects it.
    """
    label = name.upper()
    if label in STRATEGIES:
        return STRATEGIES.get(label)(params, label)
    if label.startswith("UF") and "UF" in STRATEGIES:
        return STRATEGIES.get("UF")(params, label)
    raise KeyError(
        f"unknown budget strategy {name!r}; registered: "
        f"{', '.join(STRATEGIES.keys())} (UF accepts UF<n> labels)"
    )
