"""repro — a from-scratch reproduction of *Chiaroscuro: Transparency and
Privacy for Massive Personal Time-Series Clustering* (Allard, Hébrail,
Masseglia, Pacitti — SIGMOD 2015).

Subpackages
-----------
``repro.api``
    The unified experiment API: declarative ``RunSpec``, string-keyed
    registries for datasets/initializers/strategies/planes, the
    ``Experiment`` facade with streaming run events, and
    checkpoint/resume.  The canonical way to define and run experiments.
``repro.core``
    The paper's contribution: the full gossip-distributed execution
    sequence (Algorithms 1-3) over the Diptych's two panels — cleartext
    differentially-private centroids, packed encrypted means — with real
    threshold Damgård–Jurik cryptography, budget-concentration strategies
    and mean smoothing, plus the perturbed centralized k-means quality
    plane used by the paper's own evaluation.
``repro.crypto``
    Damgård–Jurik generalized Paillier with non-interactive threshold
    decryption, Shamir sharing, and fixed-point / packed-slot encoding.
``repro.privacy``
    Laplace mechanism, divisible noise-shares, budget strategies, the
    (ε, δ)-probabilistic machinery of Appendix B, collusion analysis.
``repro.gossip``
    Cycle-driven gossip simulator (Peersim substitution), cleartext and
    encrypted epidemic sums, min-id dissemination, epidemic threshold
    decryption, churn, and a vectorized 10⁶-node plane.
``repro.clustering``
    Lloyd k-means baseline, inertia metrics, init strategies.
``repro.datasets``
    CER-like electricity curves, NUMED-like tumor-growth series, and the
    Appendix D 2-D points workload.

The structural invariants these packages keep (seeded randomness, the
layering DAG, ε accounting) are checked by the tier-1 tests under
``tests/invariants``.

Quickstart
----------
>>> from repro.api import Experiment, RunSpec
>>> spec = RunSpec.from_dict({
...     "seed": 1, "strategy": "G",
...     "dataset": {"kind": "cer", "params": {"n_series": 2000}},
...     "init": {"kind": "courbogen"},
...     "params": {"k": 10, "max_iterations": 5, "epsilon": 0.69},
... })
>>> result = Experiment.from_spec(spec).run()
>>> len(result.history) > 0
True
"""

from . import api, clustering, core, crypto, datasets, gossip, privacy
from .api import Experiment, RunSpec
from .core import (
    ChiaroscuroParams,
    ChiaroscuroRun,
    ClusteringResult,
)
from .privacy import Greedy, GreedyFloor, UniformFast

__version__ = "1.2.0"

__all__ = [
    "ChiaroscuroParams",
    "ChiaroscuroRun",
    "ClusteringResult",
    "Experiment",
    "Greedy",
    "GreedyFloor",
    "RunSpec",
    "UniformFast",
    "api",
    "clustering",
    "core",
    "crypto",
    "datasets",
    "gossip",
    "privacy",
]
