"""Built-in lint rules — importing this package registers all of them.

Seven rules guard the repo's structural invariants (plus the reserved
``suppression`` meta-rule the engine reports directly):

== ======================== ==========================================
1  determinism-rng          no unseeded/global RNG in protocol code
2  determinism-wall-clock   no wall-clock reads in protocol code
3  bigint-purity            bigint arithmetic only via crypto.bigint
4  layering-dag             foundation never imports orchestration
5  fault-seams              faults use the two documented seams only
6  registry-hygiene         registered components documented + frozen
7  epsilon-accounting       noise draws reference the budget flow
== ======================== ==========================================
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for rule registration)
    bigint_purity,
    determinism,
    epsilon,
    hygiene,
    layering,
)

__all__ = [
    "bigint_purity",
    "determinism",
    "epsilon",
    "hygiene",
    "layering",
]
