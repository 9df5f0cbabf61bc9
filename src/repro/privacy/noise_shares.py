"""Divisible Laplace noise-shares (Def. 5 / Lemma 1).

The Laplace distribution is infinitely divisible: ``L(λ)`` equals in
distribution the sum of ``n_ν`` i.i.d. noise-shares
``ν_i = G1(n_ν, λ) − G2(n_ν, λ)`` where ``G1, G2`` are Gamma variables with
shape ``1/n_ν`` and scale ``λ``.  Each Chiaroscuro participant samples its
own share locally, encrypts it, and the EESum protocol adds the shares —
no single participant ever knows the total noise (which is part of the
secret set Ξ).

This module also implements the *surplus correction* of Sec. 4.2.2: when
the actual number of contributors ``ctr`` exceeds the assumed ``n_ν``, each
participant proposes ``cor = Σ_{ctr−n_ν} GenNoise(ε, n_ν)`` and the
min-identifier dissemination picks a unique one to subtract.
"""

from __future__ import annotations

import numpy as np

from ..blocks import row_blocks

__all__ = ["gen_noise_share", "gen_noise_shares", "surplus_correction"]


def _gamma_shape(n_shares: int, scale: float) -> float:
    """The Gamma shape ``1/n_ν`` of one noise-share, arguments validated."""
    if n_shares < 1:
        raise ValueError("n_shares must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return 1.0 / n_shares


def gen_noise_share(
    n_shares: int, scale: float, rng: np.random.Generator, size: int | tuple[int, ...] = 1
) -> np.ndarray:
    """Sample ``GenNoise``: one noise-share per output element (Def. 5).

    Each element is ``G1 − G2`` with ``G1, G2 ~ Gamma(1/n_shares, scale)``
    i.i.d.; summing ``n_shares`` independent such elements is exactly
    ``Laplace(0, scale)``.
    """
    shape = _gamma_shape(n_shares, scale)
    g1 = rng.gamma(shape, scale, size=size)
    g2 = rng.gamma(shape, scale, size=size)
    g1 -= g2
    return g1


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

    The matrix is filled in row blocks, every ``G1`` first and then every
    ``G2`` subtracted in place: the values, and the state ``rng`` is left
    in, are those of ``gen_noise_share(..., size=(n_participants,
    dimensions))`` — a Gamma matrix is sampled element by element in row
    order — while the only temporary is one block.
    """
    shape = _gamma_shape(n_shares, scale)
    if out is None:
        out = np.empty((n_participants, dimensions))
    elif out.shape != (n_participants, dimensions):
        raise ValueError(
            f"out must be {(n_participants, dimensions)}, got {out.shape}"
        )
    blocks = [out[rows] for rows in row_blocks(n_participants, dimensions * out.itemsize)]
    for block in blocks:
        block[...] = rng.gamma(shape, scale, size=block.shape)
    for block in blocks:
        block -= rng.gamma(shape, scale, size=block.shape)
    return out


def surplus_correction(
    actual_contributors: int,
    n_shares: int,
    scale: float,
    rng: np.random.Generator,
    dimensions: int,
) -> np.ndarray:
    """The correction vector a participant proposes when ``ctr > n_ν``.

    It is a sum of ``ctr − n_ν`` freshly-drawn noise-shares (Sec. 4.2.2);
    subtracting it leaves, in distribution, a sum of exactly ``n_ν`` shares,
    i.e. a genuine ``Laplace(0, scale)`` sample.  Returns the zero vector
    when there is no surplus.  The shares are drawn into one matrix
    (:func:`gen_noise_shares`), so the peak is that matrix plus a block.
    """
    surplus = actual_contributors - n_shares
    if surplus <= 0:
        return np.zeros(dimensions)
    shares = gen_noise_shares(surplus, n_shares, scale, rng, dimensions)
    return shares.sum(axis=0)
