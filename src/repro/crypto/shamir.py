"""Shamir secret sharing over ``Z_M`` for the threshold decryption exponent.

In the threshold Damgård–Jurik scheme (Sec. 3.3.1, item 3), the decryption
key is split into ``n_κ`` key-shares such that any ``τ`` of them suffice.
The secret exponent ``d`` is shared with a random polynomial of degree
``τ - 1`` over ``Z_{n^s·m}``; each share is one evaluation point.

Reconstruction uses Shoup's integer Lagrange coefficients
``λ^S_{0,i} = Δ·∏_{j≠i} j/(j-i)`` with ``Δ = n_κ!`` (:func:`lagrange_at_zero`).
Threshold decryption does not: Δ rides the partial decryptions, and the
combiner clears the denominators with the subset's own ``D_S``.
"""

from __future__ import annotations

import random

from .keys import KeyShare

__all__ = ["share_secret", "lagrange_at_zero", "reconstruct_at_zero"]


def share_secret(
    secret: int,
    modulus: int,
    n_shares: int,
    threshold: int,
    rng: random.Random,
) -> list[KeyShare]:
    """Split ``secret`` into ``n_shares`` Shamir shares over ``Z_modulus``.

    Any ``threshold`` shares reconstruct the secret; fewer reveal nothing
    (information-theoretically, over a prime modulus; statistically here,
    which is the standard threshold-Paillier argument).
    """
    if not 1 <= threshold <= n_shares:
        raise ValueError("need 1 <= threshold <= n_shares")
    coefficients = [secret % modulus] + [
        rng.randrange(modulus) for _ in range(threshold - 1)
    ]
    shares = []
    for index in range(1, n_shares + 1):
        value = 0
        for coefficient in reversed(coefficients):
            value = (value * index + coefficient) % modulus
        shares.append(KeyShare(index=index, value=value))
    return shares


def lagrange_at_zero(indices: list[int], delta: int) -> dict[int, int]:
    """Integer Lagrange coefficients ``λ^S_{0,i} = Δ·∏_{j∈S, j≠i} j/(j−i)``.

    With ``Δ = n_κ!`` every coefficient is an exact integer; the division
    below is checked to be exact, which catches misuse (e.g. a wrong Δ).
    """
    coefficients: dict[int, int] = {}
    for i in indices:
        numerator = delta
        denominator = 1
        for j in indices:
            if j == i:
                continue
            numerator *= j
            denominator *= j - i
        quotient, remainder = divmod(numerator, denominator)
        if remainder:
            raise ValueError(
                f"non-integer Lagrange coefficient for index {i}; "
                "delta must be n_shares!"
            )
        coefficients[i] = quotient
    return coefficients


def reconstruct_at_zero(shares: list[KeyShare], delta: int, modulus: int) -> int:
    """Reconstruct ``Δ·secret mod modulus`` from ``shares``.

    This is the *cleartext* counterpart of the in-the-exponent combination
    used by epidemic decryption; it exists mainly to test the sharing.
    """
    indices = [share.index for share in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    coefficients = lagrange_at_zero(indices, delta)
    total = 0
    for share in shares:
        total = (total + coefficients[share.index] * share.value) % modulus
    return total
