"""Plain Paillier — the ``s = 1`` special case of Damgård–Jurik.

The paper's experiments use a 1024-bit key with the base scheme; this module
is a convenience façade so callers that never need the generalized
expansion can say ``paillier.encrypt(...)`` and get the familiar
``c = (1+n)^a · r^n mod n²`` behaviour.  All functions delegate to
:mod:`repro.crypto.damgard_jurik` with ``s = 1``; the batched entry points
(:func:`encrypt_batch`, :func:`add_batch`, :func:`fast_encryptor`) expose
the amortized plane at the same facade.  Like the rest of the crypto
plane, every modexp/inverse underneath routes through the pluggable
:mod:`repro.crypto.bigint` kernel, so the facade inherits the gmpy2 fast
path (bit-identically) when that backend is selected.
"""

from __future__ import annotations

import random

from . import damgard_jurik as _dj
from .keys import PrivateKey, PublicKey

__all__ = [
    "generate_keypair",
    "encrypt",
    "encrypt_batch",
    "decrypt",
    "add",
    "add_batch",
    "scalar_mul",
    "fast_encryptor",
]


def generate_keypair(
    key_bits: int, rng: random.Random | None = None, use_fixtures: bool = True
) -> PrivateKey:
    """Generate a Paillier keypair (Damgård–Jurik with ``s = 1``)."""
    return _dj.generate_keypair(key_bits, s=1, rng=rng, use_fixtures=use_fixtures)


def encrypt(
    public: PublicKey,
    plaintext: int,
    rng: random.Random | None = None,
    randomizer: int | None = None,
) -> int:
    """Encrypt ``plaintext`` under the ``s = 1`` scheme."""
    if public.s != 1:
        raise ValueError("paillier facade requires a public key with s = 1")
    return _dj.encrypt(public, plaintext, rng=rng, randomizer=randomizer)


def decrypt(private: PrivateKey, ciphertext: int) -> int:
    """Decrypt a Paillier ciphertext."""
    if private.public.s != 1:
        raise ValueError("paillier facade requires a private key with s = 1")
    return _dj.decrypt(private, ciphertext)


def encrypt_batch(
    public: PublicKey,
    plaintexts: list[int],
    rng: random.Random | None = None,
    encryptor: "_dj.FastEncryptor | None" = None,
) -> list[int]:
    """Encrypt a batch under the ``s = 1`` scheme (amortized if ``encryptor``)."""
    if public.s != 1:
        raise ValueError("paillier facade requires a public key with s = 1")
    return _dj.encrypt_batch(public, plaintexts, rng=rng, encryptor=encryptor)


def fast_encryptor(
    public: PublicKey,
    rng: random.Random,
    exponent_bits: int = 256,
    expected_uses: int = 0,
) -> "_dj.FastEncryptor":
    """Build a fixed-base-table encryptor for the ``s = 1`` scheme."""
    if public.s != 1:
        raise ValueError("paillier facade requires a public key with s = 1")
    return _dj.FastEncryptor(
        public, rng, exponent_bits=exponent_bits, expected_uses=expected_uses
    )


def add(public: PublicKey, c1: int, c2: int) -> int:
    """Homomorphic addition (ciphertext multiplication)."""
    return _dj.homomorphic_add(public, c1, c2)


def add_batch(public: PublicKey, batch1: list[int], batch2: list[int]) -> list[int]:
    """Element-wise homomorphic addition of two batches."""
    return _dj.homomorphic_add_batch(public, batch1, batch2)


def scalar_mul(public: PublicKey, ciphertext: int, scalar: int) -> int:
    """Homomorphic scalar multiplication (ciphertext exponentiation)."""
    return _dj.homomorphic_scalar_mul(public, ciphertext, scalar)
