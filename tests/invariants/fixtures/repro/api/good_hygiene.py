"""Registered components documented and frozen; helpers stay unchecked."""

from dataclasses import dataclass

from repro.api.registry import register_dataset
from repro.faults.base import register_fault


@register_dataset("documented")
def _make_documented(params):
    """A documented synthetic workload."""
    return params


@register_fault("frozen")
@dataclass(frozen=True)
class FrozenFault:
    """A frozen, documented fault config."""

    rate: float = 0.5


def _plain_helper(x):
    return x
