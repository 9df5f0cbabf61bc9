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
is ``c_i = c^{2Δd_i}`` with ``Δ = n_κ!``: Δ rides the partials, made
before the combining subset ``S`` is known.  The combiner clears the
denominators of ``L_i = ∏_{j∈S, j≠i} j/(j−i)`` with their lcm ``D_S``, a
divisor of Δ; the partials raised to ``2·D_S·L_i`` multiply to
``c^{4Δ·D_S·d} = (1+n)^{4Δ·D_S·a}``, from which ``a`` is extracted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import bigint
from .damgard_jurik import dlog_1_plus_n, generate_keypair
from .keys import KeyShare, PrivateKey, PublicKey, ThresholdContext
from .numtheory import crt_pair, modinv
from .shamir import share_secret

__all__ = [
    "ThresholdKeypair",
    "generate_threshold_keypair",
    "partial_decrypt",
    "subset_combination",
    "combine_subset",
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
    exponent = context.partial_exponent(share)
    return bigint.powmod(ciphertext, exponent, context.public.n_s1)


def subset_combination(
    context: ThresholdContext, indices: list[int]
) -> tuple[list[int], int]:
    """The exponents ``2·D_S·L_i`` (aligned with ``indices``) and the
    constant ``(4·Δ·D_S)⁻¹ mod n^s`` that combine the partials of ``S``:
    each ``L_i`` is one fraction reduced by one ``gcd``, ``D_S`` the lcm of
    their denominators (1 for ``S = {1..τ}``, where ``L_i`` are binomials)."""
    fractions = []
    for i in indices:
        numerator = denominator = 1
        for j in indices:
            if j != i:
                numerator *= j
                denominator *= j - i
        common = math.gcd(numerator, denominator)
        fractions.append((numerator // common, denominator // common))
    d_s = math.lcm(*(denominator for _, denominator in fractions))
    exponents = [
        2 * numerator * (d_s // denominator) for numerator, denominator in fractions
    ]
    return exponents, modinv(4 * context.delta * d_s, context.public.n_s)


def combine_subset(
    context: ThresholdContext, partials: dict[int, list[int]]
) -> list[int]:
    """Combine *every* share of ``partials`` (share index → its partial
    decryptions of a ciphertext batch) with no threshold check: below ``τ``
    shares the result is garbage.  Bases with a negative exponent are
    inverted in one Montgomery batch inversion over the whole batch; each
    element then pays one Straus :func:`~repro.crypto.bigint.multi_powmod`."""
    indices = sorted(partials)
    columns = [list(partials[index]) for index in indices]
    if len({len(column) for column in columns}) > 1:
        raise ValueError("partial-decryption batches must be equally long")
    exponents, constant = subset_combination(context, indices)
    public = context.public
    n_s1 = public.n_s1
    negative_rows = [row for row, e in enumerate(exponents) if e < 0]
    if negative_rows:
        count = len(columns[0])
        flat = [c for row in negative_rows for c in columns[row]]
        inverted = bigint.invert_batch(flat, n_s1)
        for slot, row in enumerate(negative_rows):
            columns[row] = inverted[slot * count : (slot + 1) * count]
        exponents = [abs(e) for e in exponents]
    return [
        dlog_1_plus_n(public, bigint.multi_powmod(bases, exponents, n_s1))
        * constant
        % public.n_s
        for bases in zip(*columns)
    ]


def combine_partial_decryptions_batch(
    context: ThresholdContext, partials: dict[int, list[int]]
) -> list[int]:
    """:func:`combine_subset` of the ``τ`` smallest share indices of
    ``partials``; fewer than ``τ`` shares raise ``ValueError``."""
    if len(partials) < context.threshold:
        raise ValueError(
            f"need {context.threshold} distinct partial decryptions, "
            f"got {len(partials)}"
        )
    indices = sorted(partials)[: context.threshold]
    return combine_subset(context, {index: partials[index] for index in indices})


def combine_partial_decryptions(
    context: ThresholdContext, partials: dict[int, int]
) -> int:
    """Combine ``τ`` (or more) partial decryptions of one ciphertext into
    its plaintext: :func:`combine_partial_decryptions_batch` on a batch of
    one.  ``partials`` maps share index → partial decryption."""
    batch = {index: [partial] for index, partial in partials.items()}
    (plaintext,) = combine_partial_decryptions_batch(context, batch)
    return plaintext
