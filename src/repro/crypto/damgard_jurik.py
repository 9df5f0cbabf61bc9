"""The Damgård–Jurik generalized Paillier cryptosystem (Sec. 3.3.1).

Implements the scheme exactly as the paper lists it:

1. public key ``χ = (n, g)`` with ``n`` an RSA modulus and ``g = 1 + n`` in
   ``Z*_{n^{s+1}}``;
2. encryption ``E_χ(a) = g^a · r^{n^s} mod n^{s+1}``;
3. homomorphic addition ``E(a) +_h E(b) = E(a) × E(b)``;
4. scalar multiplication ``E(a)^k = E(k·a)`` (used by the Alg. 2 scaling
   update rule of the EESum protocol);
5. decryption by raising to the CRT exponent ``d`` and extracting the
   discrete log of ``(1+n)^a`` with Damgård–Jurik's recursive algorithm.

Threshold decryption lives in :mod:`repro.crypto.threshold`.

Cost profile (what the batched plane exploits):

* ``g^a`` with ``g = 1 + n`` is a binomial expansion — ``s`` multiplications
  by per-key constants (:attr:`PublicKey.g_coefficients`; for ``s = 1`` it
  is ``1 + a·n``), *not* a modexp;
* the randomizer ``r^{n^s} mod n^{s+1}`` is the one genuine modexp per
  encryption and dominates the Fig. 5(a) "Encrypt" bar.
  :class:`FastEncryptor` amortizes it with a Lim–Lee comb over a run-fixed
  base ``h = r₀^{n^s}`` (an encryption of zero): each fresh randomizer is
  ``h^t`` for a short random exponent ``t`` — 23 products and 2 squarings
  for a 256-bit ``t`` once the run encrypts a few thousand times (the
  comb is sized from that count), instead of a ``bits(n^s)``-bit square-
  and-multiply.  A batch is evaluated *column-wise*: all exponents come
  out of the caller's ``rng`` as one byte blob, and each comb column is
  applied once per batch as a gather and two object-ufunc passes; the
  finish ``g^m · r mod n^{s+1}`` is object-ufunc passes over the batch too.
  This is the classic Damgård–Jurik–Nielsen precomputation trade: semantic
  security then additionally rests on the hardness of discrete logs with
  short exponents in the randomizer subgroup — a fine trade for a
  reproduction, and the plain per-ciphertext path stays available
  (``encryptor=None``).  A batch's randomness is drawn *before* any
  arithmetic (:func:`draw_randomness`) and consumed by a pure function
  (:func:`encrypt_drawn`), so a backend may split the work any way it likes.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import bigint
from .keys import PrivateKey, PublicKey
from .numtheory import (
    FixedBaseTable,
    comb_shape,
    crt_pair,
    fixture_safe_primes,
    gcd,
    lcm,
    modinv,
    random_safe_prime,
)

__all__ = [
    "FastEncryptor",
    "generate_keypair",
    "encrypt",
    "encrypt_batch",
    "draw_randomness",
    "encrypt_drawn",
    "decrypt",
    "homomorphic_add",
    "homomorphic_scalar_mul",
    "powers_of_g",
    "dlog_1_plus_n",
]


def generate_keypair(
    key_bits: int,
    s: int = 1,
    *,
    rng: random.Random,
    use_fixtures: bool = True,
) -> PrivateKey:
    """Generate an ``s``-expansion Damgård–Jurik keypair with a ``key_bits`` modulus.

    The one dealer: :func:`repro.crypto.threshold.generate_threshold_keypair`
    shares the key this returns.  ``use_fixtures`` pulls pre-generated safe
    primes (fast, deterministic — fine for a reproduction; the paper
    likewise fixes one 1024-bit key), falling back to ``rng`` for a size
    that has none.  Set it to ``False`` to always draw fresh safe primes
    from ``rng``.
    """
    half = key_bits // 2
    p = q = 0
    if use_fixtures:
        try:
            p, q = fixture_safe_primes(half, count=2)
        except KeyError:
            pass  # no fixture of this size: draw the pair
    if not p:
        p = random_safe_prime(half, rng)
        q = random_safe_prime(half, rng)
    if p == q:
        raise ValueError("p and q must differ")
    n = p * q
    public = PublicKey(n=n, s=s)
    lam = lcm(p - 1, q - 1)
    if gcd(lam, public.n_s) != 1:
        raise ValueError("lambda(n) and n^s must be coprime (use safe primes)")
    d = crt_pair(0, lam, 1, public.n_s)
    return PrivateKey(public=public, p=p, q=q, d=d)


def powers_of_g(public: PublicKey, a: int | np.ndarray) -> int | np.ndarray:
    """Compute ``(1+n)^a mod n^{s+1}`` via binomial expansion.

    ``(1+n)^a = Σ_{i=0}^{s} C(a, i)·n^i (mod n^{s+1})`` — only ``s + 1``
    terms survive, making this dramatically cheaper than a modexp and the
    dominant reason Paillier-family encryption is practical on a device.
    ``C(a, i)·n^i`` is the falling factorial ``a(a−1)…(a−i+1)`` times the
    per-key constant ``n^i / i!``; for ``s = 1`` the loop is ``1 + a·n``.

    ``a`` may be one ``int`` or a ``dtype=object`` ndarray of them: the same
    loop then runs elementwise as object-ufunc passes over the whole batch
    (every element sees the scalar's integer operations in the same order)
    and returns a new array; the input is never mutated.
    """
    n_s1 = public.n_s1
    a = a % public.n_s
    result = falling = 1
    for i, coefficient in enumerate(public.g_coefficients):
        falling = falling * (a - i) % n_s1
        result += falling * coefficient
    return result % n_s1


def _random_unit(public: PublicKey, rng: random.Random) -> int:
    """A uniform element of ``Z*_n`` — the raw randomizer ``r``."""
    while True:
        r = rng.randrange(1, public.n)
        if gcd(r, public.n) == 1:
            return r


def encrypt(public: PublicKey, plaintext: int, rng: random.Random) -> int:
    """Encrypt ``plaintext ∈ Z_{n^s}`` under ``public``, one full modexp
    for the randomizer ``r^{n^s}`` (:class:`FastEncryptor` amortizes it)."""
    randomizer = bigint.powmod(_random_unit(public, rng), public.n_s, public.n_s1)
    return powers_of_g(public, plaintext) * randomizer % public.n_s1


class FastEncryptor:
    """Amortized encryption: fixed-base randomizer powers over ``h = r₀^{n^s}``.

    The base ``h`` is itself a fresh encryption of zero drawn from ``rng`` at
    construction time; every randomizer afterwards is ``h^t`` with ``t`` a
    fresh odd ``exponent_bits``-bit exponent, evaluated through a precomputed
    :class:`FixedBaseTable` (see the module docstring for the cost model and
    the security trade).  One instance is meant to live for a whole protocol
    run and be shared by every local encryption of that run.

    ``expected_uses`` — how many encryptions the run will ask for — sizes
    the comb by :func:`~repro.crypto.numtheory.comb_shape` (build cost +
    uses × per-use cost): ``(11, 8)``, 23 products and 2 squarings, for the
    thousands of a population-scale run, a smaller table for tens, and no
    table at all for the default 0 (an unknown workload pays nothing up
    front).  Picklable: shipped once to each pool worker.
    """

    def __init__(
        self,
        public: PublicKey,
        rng: random.Random,
        exponent_bits: int = 256,
        expected_uses: int = 0,
    ) -> None:
        if exponent_bits < 64 or exponent_bits % 8:
            raise ValueError("exponent_bits must be a multiple of 8 and >= 64")
        self.public = public
        self.exponent_bits = exponent_bits
        h = bigint.powmod(_random_unit(public, rng), public.n_s, public.n_s1)
        self.table = FixedBaseTable(
            h, public.n_s1, exponent_bits, comb_shape(exponent_bits, expected_uses)
        )

    def warm(self) -> "FastEncryptor":
        """Build the table's native-row cache for the current bigint backend.

        Unpickling drops the cache (it may hold backend-native ``mpz``
        values); pool workers warm it once from their initializer so no
        per-batch call pays the rebuild.
        """
        self.table.warm()
        return self

    def draw_exponents(self, rng: random.Random, count: int) -> bytes:
        """``count`` fresh odd randomizer exponents as one little-endian
        byte blob, ``exponent_bits / 8`` bytes apiece, from a single
        ``getrandbits`` call (every item's lowest bit is forced to 1)."""
        width = self.exponent_bits // 8
        odd = int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")
        bits = rng.getrandbits(self.exponent_bits * count) | odd
        return bits.to_bytes(width * count, "little")

    def encrypt(self, plaintext: int, rng: random.Random) -> int:
        """Encrypt one plaintext with an amortized randomizer."""
        return encrypt_batch(self.public, [plaintext], rng, self)[0]


def draw_randomness(
    public: PublicKey,
    count: int,
    rng: random.Random,
    encryptor: FastEncryptor | None = None,
) -> bytes | list[int]:
    """All the randomness ``count`` encryptions need, drawn from ``rng`` now:
    the ``encryptor``'s exponent blob, or one raw ``r ∈ Z*_n`` per item.
    Either slices per item, so a backend can ship ranges of it."""
    if encryptor is not None:
        return encryptor.draw_exponents(rng, count)
    return [_random_unit(public, rng) for _ in range(count)]


def encrypt_drawn(
    public: PublicKey,
    plaintexts: list[int],
    drawn: bytes | list[int],
    encryptor: FastEncryptor | None = None,
) -> list[int]:
    """Encrypt ``plaintexts`` with the matching :func:`draw_randomness`
    output — deterministic, so it may run in any process, in any split."""
    if encryptor is not None:
        randomizers = encryptor.table.pow_batch(drawn)
    else:
        randomizers = bigint.powmod_batch(drawn, public.n_s, public.n_s1)
    if len(randomizers) != len(plaintexts):
        raise ValueError("need one drawn randomizer per plaintext")
    out = powers_of_g(public, np.asarray(plaintexts, dtype=object))
    np.multiply(out, np.asarray(randomizers, dtype=object), out=out)
    return np.remainder(out, public.n_s1, out=out).tolist()


def encrypt_batch(
    public: PublicKey,
    plaintexts: list[int],
    rng: random.Random,
    encryptor: FastEncryptor | None = None,
) -> list[int]:
    """Encrypt a batch of plaintexts, through ``encryptor`` when given.

    Draws everything from ``rng`` up front, then encrypts — the same stream
    discipline as the backends in :mod:`repro.crypto.backend`, whose output
    for the same ``rng`` state is therefore bit-identical to this function's.
    """
    drawn = draw_randomness(public, len(plaintexts), rng, encryptor)
    return encrypt_drawn(public, list(plaintexts), drawn, encryptor)


def homomorphic_add(public: PublicKey, c1: int, c2: int) -> int:
    """``E(a) +_h E(b) = E(a)·E(b) mod n^{s+1}`` (paper Sec. 3.3.1, item 4)."""
    return c1 * c2 % public.n_s1


def homomorphic_scalar_mul(public: PublicKey, ciphertext: int, scalar: int) -> int:
    """``E(a) ×_h k = E(a)^k = E(k·a)``; negative scalars use the inverse."""
    if scalar < 0:
        ciphertext = modinv(ciphertext, public.n_s1)
        scalar = -scalar
    return bigint.powmod(ciphertext, scalar, public.n_s1)


def dlog_1_plus_n(public: PublicKey, u: int) -> int:
    """Recover ``a`` from ``u = (1+n)^a mod n^{s+1}`` (Damgård–Jurik's dLog).

    For ``s = 1`` this is the familiar Paillier ``L`` function
    ``(u − 1) / n``; for larger ``s`` it runs the published recursive
    lifting, reconstructing ``a mod n^j`` for ``j = 1..s``.
    """
    n = public.n
    a = 0
    for j in range(1, public.s + 1):
        n_j = n**j
        t1 = (u % n ** (j + 1) - 1) // n  # L(u mod n^{j+1})
        t2 = a
        i = a
        for k in range(2, j + 1):
            i -= 1
            t2 = t2 * i % n_j
            t1 = (
                t1 - t2 * bigint.powmod(n, k - 1, n_j) * modinv(math.factorial(k), n_j)
            ) % n_j
        a = t1 % n_j
    return a


def _decrypt_reference(private: PrivateKey, ciphertext: int) -> int:
    """Single full-width modexp — the reference path CRT-split is tested
    against for bit-identical results."""
    public = private.public
    u = bigint.powmod(ciphertext, private.d, public.n_s1)
    return dlog_1_plus_n(public, u)


def decrypt(private: PrivateKey, ciphertext: int) -> int:
    """Decrypt with the CRT exponent: ``c^d = (1+n)^a``, then extract ``a``.

    The modexp is CRT-split: ``n^{s+1} = p^{s+1}·q^{s+1}`` are coprime, so
    ``c^d`` is computed modulo each prime power separately and recombined
    with :func:`crt_pair`.  Within ``Z*_{p^{s+1}}`` (a group of order
    ``p^s·(p−1)``) the exponent reduces to ``d mod p^s·(p−1)``, halving both
    the operand width and the exponent length — the classic ~3–4× RSA/
    Paillier decryption speedup, here applied to the Fig. 5 "Decrypt" bar.
    Bit-identical to :func:`_decrypt_reference` for every valid ciphertext
    (ciphertexts are units mod ``n^{s+1}``, so the order-based exponent
    reduction is sound).
    """
    public = private.public
    s1 = public.s + 1
    p_s1 = private.p**s1
    q_s1 = private.q**s1
    u_p = bigint.powmod(
        ciphertext % p_s1, private.d % (p_s1 // private.p * (private.p - 1)), p_s1
    )
    u_q = bigint.powmod(
        ciphertext % q_s1, private.d % (q_s1 // private.q * (private.q - 1)), q_s1
    )
    u = crt_pair(u_p, p_s1, u_q, q_s1)
    return dlog_1_plus_n(public, u)
