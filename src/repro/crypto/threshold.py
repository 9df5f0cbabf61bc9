"""Non-interactive threshold decryption for Damgård–Jurik (Sec. 3.3.1, item 3).

The decryption key is split into ``n_κ`` key-shares so that decrypting
requires at least ``τ`` distinct *partial decryptions*, each computable
independently — exactly the property the epidemic decryption protocol of
Sec. 4.2.3 relies on: participants partially decrypt the (unique, converged)
encrypted means at each gossip exchange and merge their sets of partial
decryptions until ``τ`` distinct key-shares have been applied.

The construction is the standard Shoup-style one from the Damgård–Jurik
paper: with safe primes ``p = 2p' + 1`` and ``q = 2q' + 1``, the secret
exponent ``d`` satisfies ``d ≡ 0 (mod m)`` and ``d ≡ 1 (mod n^s)`` where
``m = p'q'``; it is Shamir-shared over ``Z_{n^s·m}``.  A partial decryption
is ``c_i = c^{2Δd_i}``, and combining ``τ`` of them with integer Lagrange
coefficients yields ``c^{4Δ²d} = (1+n)^{4Δ²·a}``, from which ``a`` is
extracted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bigint
from .damgard_jurik import dlog_1_plus_n, generate_keypair
from .keys import KeyShare, PrivateKey, PublicKey, ThresholdContext
from .numtheory import crt_pair, modinv
from .shamir import lagrange_at_zero, share_secret

__all__ = [
    "ThresholdKeypair",
    "generate_threshold_keypair",
    "partial_decrypt",
    "combine_partial_decryptions",
    "combine_partial_decryptions_batch",
]


@dataclass(frozen=True)
class ThresholdKeypair:
    """Everything the dealer produces: public key, context, and all shares.

    In deployment the bootstrap server hands each participant its single
    :class:`KeyShare` (footnote 4 of the paper); the full list exists only
    here, dealer-side.  ``private`` is the equivalent non-threshold key,
    kept for tests and for the centralized cost baseline.
    """

    context: ThresholdContext
    shares: list[KeyShare]
    private: PrivateKey

    @property
    def public(self) -> PublicKey:
        return self.context.public


def generate_threshold_keypair(
    key_bits: int,
    n_shares: int,
    threshold: int,
    s: int = 1,
    *,
    rng: random.Random,
) -> ThresholdKeypair:
    """Deal a threshold Damgård–Jurik key: ``n_shares`` shares, any ``threshold`` decrypt.

    The primes and the plain key are :func:`generate_keypair`'s (its
    ``d' ≡ 0 mod λ(n) = 2m``); the shared secret is the Shoup exponent
    ``d ≡ 0 (mod m)``, ``d ≡ 1 (mod n^s)``.
    """
    private = generate_keypair(key_bits, s, rng=rng)
    public = private.public
    m = (private.p - 1) // 2 * ((private.q - 1) // 2)
    d = crt_pair(0, m, 1, public.n_s)
    context = ThresholdContext(public=public, n_shares=n_shares, threshold=threshold)
    shares = share_secret(d, public.n_s * m, n_shares, threshold, rng)
    return ThresholdKeypair(context=context, shares=shares, private=private)


def partial_decrypt(context: ThresholdContext, share: KeyShare, ciphertext: int) -> int:
    """One participant's partial decryption ``c_i = c^{2Δ·d_i} mod n^{s+1}``."""
    exponent = 2 * context.delta * share.value
    return bigint.powmod(ciphertext, exponent, context.public.n_s1)


def combine_partial_decryptions(
    context: ThresholdContext, partials: dict[int, int]
) -> int:
    """Combine ``τ`` (or more) partial decryptions into the plaintext.

    ``partials`` maps share index → partial decryption of the *same*
    ciphertext.  Any subset of size ``τ`` suffices; extras are ignored.
    """
    if len(partials) < context.threshold:
        raise ValueError(
            f"need {context.threshold} distinct partial decryptions, "
            f"got {len(partials)}"
        )
    indices = sorted(partials)[: context.threshold]
    coefficients = lagrange_at_zero(indices, context.delta)
    public = context.public
    # One Straus interleaved multi-exponentiation instead of τ independent
    # square-and-multiply passes (negative Lagrange exponents are batch-
    # inverted inside): the squaring chain over the Δ-sized exponents is
    # paid once for the whole combination.
    combined = bigint.multi_powmod(
        [partials[index] for index in indices],
        [2 * coefficients[index] for index in indices],
        public.n_s1,
    )
    # combined == (1+n)^{4Δ²·a}; strip the 4Δ² factor in the exponent group.
    raw = dlog_1_plus_n(public, combined)
    return raw * modinv(4 * context.delta**2, public.n_s) % public.n_s


def combine_partial_decryptions_batch(
    context: ThresholdContext, partials: dict[int, list[int]]
) -> list[int]:
    """Combine the partial decryptions of a whole ciphertext batch at once.

    ``partials`` maps share index → the list of that share's partial
    decryptions, elementwise-aligned across shares (``partials[i][j]`` is
    share ``i`` applied to ciphertext ``j``).  The fusion over the batch:
    Lagrange coefficients are computed **once**; every base whose
    coefficient is negative is inverted across the *entire* batch with a
    single Montgomery batch inversion (:func:`repro.crypto.bigint.
    invert_batch` — one modular inversion total instead of one per
    element); each element then pays exactly one Straus
    :func:`~repro.crypto.bigint.multi_powmod` with non-negative exponents.
    Bit-identical to mapping :func:`combine_partial_decryptions` over the
    batch (pinned by tests), just without the per-element inversions.
    """
    if len(partials) < context.threshold:
        raise ValueError(
            f"need {context.threshold} distinct partial decryptions, "
            f"got {len(partials)}"
        )
    indices = sorted(partials)[: context.threshold]
    lengths = {len(partials[index]) for index in indices}
    if len(lengths) != 1:
        raise ValueError("partial-decryption batches must be equally long")
    (count,) = lengths
    if count == 0:
        return []
    coefficients = lagrange_at_zero(indices, context.delta)
    exponents = [2 * coefficients[index] for index in indices]
    public = context.public
    n_s1 = public.n_s1
    columns = [list(partials[index]) for index in indices]
    negative_rows = [row for row, e in enumerate(exponents) if e < 0]
    if negative_rows:
        flat = [c for row in negative_rows for c in columns[row]]
        inverted = bigint.invert_batch(flat, n_s1)
        for slot, row in enumerate(negative_rows):
            columns[row] = inverted[slot * count : (slot + 1) * count]
        exponents = [abs(e) for e in exponents]
    inv_const = modinv(4 * context.delta**2, public.n_s)
    out: list[int] = []
    for j in range(count):
        combined = bigint.multi_powmod(
            [column[j] for column in columns], exponents, n_s1
        )
        raw = dlog_1_plus_n(public, combined)
        out.append(raw * inv_const % public.n_s)
    return out
