"""Registered components missing a docstring / frozen=True (all three flagged)."""

import dataclasses
from dataclasses import dataclass

from repro.api.registry import register_dataset
from repro.faults.base import register_fault


@register_dataset("mystery")
def _make_mystery(params):
    return params


@register_fault("mutable")
@dataclass
class MutableFault:
    """Documented, but mutable — registered config must be frozen."""

    rate: float = 0.5


@register_fault("probe")
@dataclasses.dataclass
class ProbeFault:
    """Documented, but mutable through the module-qualified decorator."""

    rate: float = 0.5
