"""Machine-speed calibration: report seconds at a reference speed.

The benchmark's box is a small shared VM.  Identical work runs 10–35 %
slower or faster from one minute to the next (hypervisor steal, frequency,
a busy sibling), in phases that last longer than a run — so medians over a
run's ops do not remove it, and two sets of runs of the *same* commit can
differ by more than any useful bound.

Each op therefore times a fixed kernel (:func:`probe`: a pure-Python
big-integer loop that touches no code of the repo) when it starts, between
set-up and run, and right after the run.  ``slowdown`` = mean probe time /
:data:`REFERENCE_S`, and every duration the op reports is divided by it:
the numbers read "seconds on a box that runs the kernel in
``REFERENCE_S``".  Result files keep each op's ``slowdown``, so wall-clock
seconds are ``value × slowdown``.  Memory and counts are not touched.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "probe", "rescale", "slowdown"]

#: What one probe takes on the reference box (this repo's 2-core builder
#: VM in a quiet minute).  A constant, never re-measured: it only fixes the
#: unit, and changing it would rescale every number ever recorded.
REFERENCE_S = 0.050

_LOOPS = 2750
_MODULUS = (1 << 512) - 569


def probe() -> float:
    """Seconds the calibration kernel takes right now (~50 ms)."""
    value = 3
    started = time.perf_counter()
    for _ in range(_LOOPS):
        value = pow(value, 65537, _MODULUS)
    return time.perf_counter() - started


def slowdown(probes: list[float]) -> float:
    """How much slower than the reference box the probes ran."""
    return statistics.mean(probes) / REFERENCE_S


def rescale(value: float, unit: str, factor: float) -> float:
    """``value`` as the reference box would have measured it."""
    if unit in ("s", "us"):
        return value / factor
    if unit == "1/s":
        return value * factor
    return value
