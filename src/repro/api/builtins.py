"""Built-in registry entries: the paper's datasets, initializers, budget
strategies and the four execution planes.

Imported for its side effects by ``repro.api``; the datasets,
initializers and strategies go through the same ``@register_*``
decorators a user extension would use, so this module doubles as the
reference for writing one.
"""

from __future__ import annotations

import numpy as np

from ..clustering.init import kmeanspp_init, sample_init, uniform_init
from ..datasets import (
    TimeSeriesSet,
    courbogen_like_centroids,
    generate_cer,
    generate_numed,
    generate_points2d,
)
from ..privacy.budget import BudgetStrategy, strategy_from_name
from .experiment import ExecutionPlane
from .registry import (
    PLANES,
    register_dataset,
    register_initializer,
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
# The substrates of Algorithm 1's one loop, ``ChiaroscuroRun(plane=key)``
# (described in core/protocol.py); a plane adds no code of its own.

PLANES.register("quality", ExecutionPlane(option_keys=frozenset({"gossip_e_max"})))
PLANES.register("object", ExecutionPlane(uses_real_crypto=True))
PLANES.register("vectorized", ExecutionPlane())
PLANES.register("vectorized-crypto", ExecutionPlane(uses_real_crypto=True))
