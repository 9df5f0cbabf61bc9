"""Key material containers for the (threshold) Damgård–Jurik cryptosystem.

The paper (Sec. 3.3.1) requires a semantically-secure, additively
homomorphic scheme with *non-interactive threshold decryption*, and names
Damgård–Jurik as its instance.  These dataclasses carry the public key
``χ = (n, g)``, the plain private key (for the centralized baseline and for
tests), and the per-participant key-shares ``κ_i`` used by the epidemic
decryption of Sec. 4.2.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import bigint

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyShare",
    "ThresholdContext",
]


@dataclass(frozen=True)
class PublicKey:
    """Public encryption key ``χ = (n, g)`` with expansion degree ``s``.

    The plaintext space is ``Z_{n^s}`` and the ciphertext space ``Z*_{n^{s+1}}``.
    ``g`` is fixed to ``1 + n`` (the standard choice, which makes the
    exponentiation ``g^a`` a binomial expansion instead of a modexp).

    Everything derived from ``n^s`` is a ``cached_property``: computed
    once, kept in the instance ``__dict__`` and never a field — equality,
    hashing and ``repr`` still see only ``(n, s)``, and pickling just works.
    """

    n: int
    s: int = 1

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("modulus n must be a product of two primes")
        if self.s < 1:
            raise ValueError("expansion degree s must be >= 1")

    @property
    def g(self) -> int:
        """The generator ``1 + n``."""
        return self.n + 1

    @cached_property
    def n_s(self) -> int:
        """Plaintext modulus ``n^s``."""
        return self.n**self.s

    @cached_property
    def n_s1(self) -> int:
        """Ciphertext modulus ``n^{s+1}``."""
        return self.n ** (self.s + 1)

    @property
    def key_bits(self) -> int:
        """Bit length of the RSA modulus (the paper's "key size")."""
        return self.n.bit_length()

    @cached_property
    def plaintext_bits(self) -> int:
        """Usable plaintext capacity in bits (conservative)."""
        return self.n_s.bit_length() - 1

    @cached_property
    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext, as used by the Fig. 5(b) bandwidth model."""
        return (self.n_s1.bit_length() + 7) // 8

    @cached_property
    def g_coefficients(self) -> tuple[int, ...]:
        """``n^i / i! mod n^{s+1}`` for ``i = 1..s`` — the plaintext-
        independent half of every term of ``(1+n)^a``'s binomial expansion
        (``i ≤ s`` is far below both prime factors, so ``i!`` is a unit)."""
        n_s1 = self.n_s1
        return tuple(
            self.n**i * bigint.invert(math.factorial(i), n_s1) % n_s1
            for i in range(1, self.s + 1)
        )


@dataclass(frozen=True)
class PrivateKey:
    """Non-threshold private key: the factorization and the CRT exponent ``d``.

    ``d`` satisfies ``d ≡ 0 (mod λ(n))`` and ``d ≡ 1 (mod n^s)`` so that
    ``c^d = (1+n)^a (mod n^{s+1})`` for any ciphertext ``c`` of ``a``.
    """

    public: PublicKey
    p: int
    q: int
    d: int

    @property
    def n(self) -> int:
        return self.public.n


@dataclass(frozen=True)
class KeyShare:
    """One participant's private key-share ``κ_i`` (Table 1).

    ``index`` is the (non-zero) Shamir evaluation point and ``value`` the
    polynomial evaluation ``f(index) mod n^s·m``.  The paper couples each
    share with a *random key-share identifier*; we keep the identifier
    separate (it lives in the gossip layer) so shares stay reusable.
    """

    index: int
    value: int


@dataclass(frozen=True)
class ThresholdContext:
    """Public threshold-decryption parameters shared by all participants.

    ``n_shares`` is the paper's ``n_κ`` and ``threshold`` its ``τ``: at least
    ``τ`` distinct partial decryptions are needed to recover a plaintext.
    ``delta`` is Shoup's ``Δ = n_shares!``: it rides every partial
    decryption, made before the combining subset ``S`` is known; the
    combiner clears the Lagrange denominators with ``D_S``, a divisor of Δ.
    """

    public: PublicKey
    n_shares: int
    threshold: int
    delta: int = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= self.n_shares:
            raise ValueError("need 1 <= threshold <= n_shares")
        object.__setattr__(self, "delta", math.factorial(self.n_shares))

    def partial_exponent(self, share: KeyShare) -> int:
        """The exponent ``2Δ·d_i`` of ``share``'s partial decryption."""
        return 2 * self.delta * share.value
