"""Divisible Laplace noise-shares (Def. 5 / Lemma 1).

The Laplace distribution is infinitely divisible: ``L(λ)`` equals in
distribution the sum of ``n_ν`` i.i.d. noise-shares
``ν_i = G1(n_ν, λ) − G2(n_ν, λ)`` where ``G1, G2`` are Gamma variables with
shape ``1/n_ν`` and scale ``λ``.  Each Chiaroscuro participant samples its
own share locally, encrypts it, and the EESum protocol adds the shares —
no single participant ever knows the total noise (which is part of the
secret set Ξ).

**Sampling.**  With ``a = 1/n_ν``, ``Gamma(a, λ) = λ·G·e^{−E/a}`` for
independent ``G ~ Gamma(1 + a)`` and ``E ~ Exp(1)`` (``Gamma(a) =
Gamma(1+a)·U^{1/a}``, Marsaglia & Tsang, ACM TOMS 2000).  At population-
sized ``n_ν`` nearly every such value is below ``2^−1075`` and rounds to
``0.0`` — 98.5 % of them at ``n_ν`` = 50 000 — so only the elements that
can be nonzero get any work: those *marked* ``E ≤ c``, with ``c = a·ln(760
· λ · 2^1075)``.  The marks are Bernoulli(``1 − e^{−c}``), drawn as a
binomial count and a uniform subset; a marked element draws ``E | E ≤ c``
by inverse CDF and its ``G``; every other element is ``+0.0``.  An
unmarked value is ``< G/760 · 2^−1075``, so it is nonzero only when
``G > 760``, which for every ``a ≤ 1`` has probability at most
``761·e^{−760} < 2^−1074``: nothing representable is dropped.  Every share
matrix, whatever its caller, is filled by one routine that walks row
blocks (:mod:`repro.blocks`), with O(block) temporaries.

This module also implements the *surplus correction* of Sec. 4.2.2: when
the actual number of contributors ``ctr`` exceeds the assumed ``n_ν``, each
participant proposes ``cor = Σ_{ctr−n_ν} GenNoise(ε, n_ν)`` and the
min-identifier dissemination picks a unique one to subtract.
"""

from __future__ import annotations

import math

import numpy as np

from ..blocks import block_rows, row_blocks

__all__ = ["gen_noise_share", "gen_noise_shares", "surplus_correction"]

#: ``Gamma(1 + a)`` exceeds this with probability at most ``761·e^{−760}``
#: ``< 2^−1074`` for every shape ``a ≤ 1``: the mass left at zero.
GAMMA_CAP = 760.0

#: ``ln 2^1075``: a value below ``2^−1075`` rounds to ``0.0``.
_LOG_UNDERFLOW = 1075 * math.log(2.0)


def _check(n_shares: int, scale: float) -> None:
    if n_shares < 1:
        raise ValueError("n_shares must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")


def _fill_shares(
    out: np.ndarray, n_shares: int, scale: float, rng: np.random.Generator
) -> None:
    """Write one ``G1 − G2`` share into every element of the 2-D ``out``.

    Per row block, ``G1`` and ``G2`` share one index space of twice the
    block's size (``G1`` first): the marks are one uniform subset of it,
    their values land in a zeroed scratch pair, and the block is written
    as the pair's difference — so a share is ``+0.0`` exactly where the
    dense ``G1 − G2`` would be.
    """
    log_scale = math.log(scale)
    cutoff = max(0.0, (math.log(GAMMA_CAP) + log_scale + _LOG_UNDERFLOW) / n_shares)
    mark = -math.expm1(-cutoff)
    rows, dims = out.shape
    pair = np.zeros(2 * min(rows, block_rows(dims * out.itemsize)) * dims)
    for span in row_blocks(rows, dims * out.itemsize):
        block = out[span]
        size = block.size
        marked = rng.choice(
            2 * size, rng.binomial(2 * size, mark), replace=False, shuffle=False
        )
        values = rng.random(len(marked))
        values *= -mark
        np.log1p(values, out=values)  # −E, E ~ Exp(1) given E ≤ cutoff
        values *= n_shares
        values += log_scale
        values += np.log(rng.standard_gamma(1.0 + 1.0 / n_shares, size=len(marked)))
        np.exp(values, out=values)  # λ·G·e^{−E/a}, rounded once
        pair[marked] = values
        np.subtract(
            pair[:size].reshape(block.shape),
            pair[size : 2 * size].reshape(block.shape),
            out=block,
        )
        pair[marked] = 0.0


def gen_noise_share(
    n_shares: int, scale: float, rng: np.random.Generator, size: int | tuple[int, ...] = 1
) -> np.ndarray:
    """Sample ``GenNoise``: one noise-share per output element (Def. 5).

    Each element is ``G1 − G2`` with ``G1, G2 ~ Gamma(1/n_shares, scale)``
    i.i.d.; summing ``n_shares`` independent such elements is exactly
    ``Laplace(0, scale)``.  A 2-D ``size`` draws what
    :func:`gen_noise_shares` draws for that shape, bit for bit.
    """
    _check(n_shares, scale)
    out = np.empty(size)
    _fill_shares(
        out.reshape(-1, out.shape[-1] if out.ndim > 1 else 1), n_shares, scale, rng
    )
    return out


def gen_noise_shares(
    n_participants: int,
    n_shares: int,
    scale: float,
    rng: np.random.Generator,
    dimensions: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sample the shares of ``n_participants`` nodes, each ``dimensions``-wide.

    Returns an array of shape ``(n_participants, dimensions)`` — ``out``
    itself when given (any float view of that shape, strided or not);
    column sums over any ``n_shares`` rows are Laplace-distributed.
    """
    _check(n_shares, scale)
    if out is None:
        out = np.empty((n_participants, dimensions))
    elif out.shape != (n_participants, dimensions):
        raise ValueError(
            f"out must be {(n_participants, dimensions)}, got {out.shape}"
        )
    _fill_shares(out, n_shares, scale, rng)
    return out


def surplus_correction(
    actual_contributors: int,
    n_shares: int,
    scale: float,
    rng: np.random.Generator,
    dimensions: int,
) -> np.ndarray:
    """The correction vector a participant proposes when ``ctr > n_ν``.

    It is a sum of ``m = ctr − n_ν`` freshly-drawn noise-shares (Sec.
    4.2.2); subtracting it leaves, in distribution, a sum of exactly ``n_ν``
    shares, i.e. a genuine ``Laplace(0, scale)`` sample.  A sum of ``m``
    i.i.d. ``Gamma(1/n_ν)`` is ``Gamma(m/n_ν)``, so the sum is drawn
    directly — two Gamma draws per dimension.  Returns the zero vector when
    there is no surplus.
    """
    _check(n_shares, scale)
    surplus = actual_contributors - n_shares
    if surplus <= 0:
        return np.zeros(dimensions)
    g1, g2 = rng.gamma(surplus / n_shares, scale, size=(2, dimensions))
    return g1 - g2
