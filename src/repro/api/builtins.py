"""Built-in registry entries: the paper's datasets, initializers, budget
strategies and the four execution planes.

Imported for its side effects by ``repro.api``; everything here goes
through the same ``@register_*`` decorators a user extension would use,
so this module doubles as the reference for writing one.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..clustering.init import kmeanspp_init, sample_init, uniform_init
from ..core.protocol import ChiaroscuroRun
from ..core.results import IterationRecord
from ..datasets import (
    TimeSeriesSet,
    courbogen_like_centroids,
    generate_cer,
    generate_numed,
    generate_points2d,
)
from ..privacy.budget import BudgetStrategy, strategy_from_name
from .checkpoint import Checkpoint
from .experiment import ExecutionPlane, RunContext
from .registry import (
    register_dataset,
    register_initializer,
    register_plane,
    register_strategy,
)

# --------------------------------------------------------------- datasets


@register_dataset("cer")
def _build_cer(seed: int, **params) -> TimeSeriesSet:
    """CER-like electricity curves (Sec. 6.1 workload 1)."""
    return generate_cer(seed=seed, **params)


@register_dataset("numed")
def _build_numed(seed: int, **params) -> TimeSeriesSet:
    """NUMED-like tumor-growth series (Sec. 6.1 workload 2)."""
    return generate_numed(seed=seed, **params)


@register_dataset("points2d")
def _build_points2d(seed: int, **params) -> TimeSeriesSet:
    """The Appendix D duplicated A3-like 2-D points."""
    return generate_points2d(seed=seed, **params)


@register_dataset("timeseries")
def _build_inline(
    seed: int,
    *,
    values,
    dmin: float,
    dmax: float,
    name: str = "timeseries",
    population_scale: int = 1,
) -> TimeSeriesSet:
    """Inline data: the spec carries the t × n matrix itself (small sets)."""
    del seed  # the data is literal; nothing to draw
    return TimeSeriesSet(
        values=np.asarray(values, dtype=float),
        dmin=float(dmin),
        dmax=float(dmax),
        name=name,
        population_scale=int(population_scale),
    )


# ----------------------------------------------------------- initializers


@register_initializer("courbogen")
def _init_courbogen(dataset: TimeSeriesSet, k: int, rng, **params) -> np.ndarray:
    """CourboGen-like synthetic load profiles (never raw data)."""
    del dataset, params
    return courbogen_like_centroids(k, rng)


@register_initializer("sample")
def _init_sample(dataset: TimeSeriesSet, k: int, rng, **params) -> np.ndarray:
    """k series sampled uniformly from the dataset."""
    del params
    return sample_init(dataset.values, k, rng)


@register_initializer("uniform")
def _init_uniform(dataset: TimeSeriesSet, k: int, rng, **params) -> np.ndarray:
    """Uniform draws in the dataset's value range."""
    return uniform_init(k, dataset.n, dataset.dmin, dataset.dmax, rng, **params)


@register_initializer("kmeanspp")
def _init_kmeanspp(dataset: TimeSeriesSet, k: int, rng, **params) -> np.ndarray:
    """k-means++ seeding (D² sampling)."""
    del params
    return kmeanspp_init(dataset.values, k, rng)


@register_initializer("matrix")
def _init_matrix(dataset: TimeSeriesSet, k: int, rng, *, values) -> np.ndarray:
    """Inline centroids: the spec carries the k × n matrix itself."""
    del rng
    matrix = np.asarray(values, dtype=float)
    if matrix.shape != (k, dataset.n):
        raise ValueError(
            f"inline centroids must be {(k, dataset.n)}, got {matrix.shape}"
        )
    return matrix


# -------------------------------------------------------------- strategies


def _paper_strategy(params, label: str) -> BudgetStrategy:
    """The paper's labels (Sec. 5.2), parsed by the one parser."""
    return strategy_from_name(
        label, params.epsilon, params.floor_size, params.uf_iterations
    )


for _label in ("G", "GF", "UF"):
    register_strategy(_label)(_paper_strategy)


# ------------------------------------------------------------------ planes

class _ProtocolPlane(ExecutionPlane):
    """Shared dispatch for the ``ChiaroscuroRun`` substrates: the spec's
    ``options`` keys a plane declares are ``ChiaroscuroRun`` arguments."""

    def run_iter(
        self,
        ctx: RunContext,
        resume: Checkpoint | None = None,
        cycle_hook: Callable[[int, int], None] | None = None,
    ) -> Iterator[IterationRecord]:
        options = ctx.spec.options
        run = ChiaroscuroRun(
            ctx.dataset,
            ctx.strategy,
            ctx.params,
            ctx.initial_centroids,
            seed=ctx.spec.seed,
            keypair=ctx.keypair,
            cycle_hook=cycle_hook,
            fault_plan=ctx.fault_plan,
            plane=self.key,
            **{key: options[key] for key in self.option_keys if key in options},
        )
        # Exposed for diagnostics (e.g. wire-format demos) and for the
        # facade's abort-time read of the run's ε ledger.
        ctx.runtime = run
        start = 1
        if resume is not None:
            run.noise_rng.bit_generator.state = resume.rng_state
            if resume.crypto_state is not None:  # a legacy checkpoint has none
                run.crypto_rng.setstate(resume.crypto_state)
            run.initial_centroids = resume.stats.centroids
            start = resume.stats.iteration + 1
        yield from run.run_iter(churn=ctx.spec.churn, start_iteration=start)


@register_plane("quality")
class QualityPlane(_ProtocolPlane):
    """Perturbed centralized k-means — the paper's Sec. 6.1 quality plane.

    ``ChiaroscuroRun``'s loop with the central computation step: no gossip,
    the protocol's noise.
    """

    option_keys = frozenset({"gossip_e_max"})


@register_plane("object")
class ObjectPlane(_ProtocolPlane):
    """Cycle-driven engine with genuine Damgård–Jurik ciphertexts.

    Resumes like every plane: the keypair and the fixed-base table are
    re-derived from the seed, and ``crypto_rng`` continues from the state
    log, so a resumed run's ciphertexts equal the uninterrupted run's.
    """

    uses_real_crypto = True


@register_plane("vectorized")
class VectorizedPlane(_ProtocolPlane):
    """Struct-of-arrays full-protocol plane (10⁵–10⁶ participants).

    Per-iteration gossip engines are seeded from ``seed + 1000·iteration``,
    so ``noise_rng`` is the only stream that shapes its results across
    iterations.
    """


@register_plane("vectorized-crypto")
class VectorizedCryptoPlane(_ProtocolPlane):
    """Struct-of-arrays plane with *real* packed Damgård–Jurik ciphertexts.

    Every gossip exchange carries genuine ciphertexts, fused into whole-
    round bigint batches; decoded per-iteration centroids are bit-identical
    to the mock ``vectorized`` plane at the same seed.

    The keypair and fixed-base table rebuild deterministically from the
    spec seed and both streams continue from the state log, so a resumed
    run is exact down to the randomizers.
    """

    uses_real_crypto = True
