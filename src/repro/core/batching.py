"""Ciphertext planes: how a participant's value vector becomes ciphertexts.

The computation step (Algorithm 3) is agnostic about the wire shape of the
encrypted means: it needs to encrypt value vectors, split the converged
EESum vector into its means/noise halves, homomorphically add them, and
decode decrypted plaintexts back to reals.  A *plane* packages those four
operations so the step can run over either representation:

* :class:`ScalarPlane` — one ciphertext per value, the paper's layout and
  the seed implementation's behaviour;
* :class:`PackedPlane` — :class:`repro.crypto.PackedCodec` slot packing,
  one ciphertext per ``slots`` values.

Packed decoding is exact because the coefficient total is public: every
element of an EESum vector accumulates contributions with the *same*
integer coefficients, and Algorithm 2 keeps their total at ``C = 2^count``
— ``count`` being the cleartext exchange counter that travels with the
vector — so the bias mass ``B·terms·C`` can be subtracted slot-wise (see
the slot layout in :mod:`repro.crypto.encoding`).  Decoded outputs are
therefore bit-identical to the scalar plane's — same signed fixed-point
integers, same float divisions.

Both planes batch all bulk work through a :class:`repro.crypto.backend`
backend (serial or process-pool).
"""

from __future__ import annotations

import random

import numpy as np

from ..crypto.backend import CryptoBackend, SerialBackend
from ..crypto.encoding import FixedPointCodec, PackedCodec
from ..crypto.keys import PublicKey

__all__ = ["CiphertextPlane", "ScalarPlane", "PackedPlane"]


class CiphertextPlane:
    """Common interface; see module docstring for the two implementations."""

    public: PublicKey
    backend: CryptoBackend

    def packed_length(self, dims: int) -> int:
        """Ciphertexts carrying ``dims`` values."""
        raise NotImplementedError

    def encrypt_values(self, values, rng: random.Random) -> list[int]:
        """Encode and encrypt a vector of reals."""
        raise NotImplementedError

    def decode_sums(
        self, plaintexts: list[int], dims: int, coefficient_total: int,
        bias_terms: int = 2,
    ) -> np.ndarray:
        """Decode decrypted plaintexts to ``dims`` reals.

        ``coefficient_total`` is the EESum coefficient total ``C =
        2^count`` of the decrypted vector and ``bias_terms`` how many
        biased vectors were homomorphically summed element-wise before
        decryption (means + noise = 2); the scalar plane ignores both.
        """
        raise NotImplementedError


class ScalarPlane(CiphertextPlane):
    """One ciphertext per value — the paper's Diptych wire layout."""

    def __init__(
        self,
        public: PublicKey,
        codec: FixedPointCodec,
        backend: CryptoBackend | None = None,
    ) -> None:
        self.public = public
        self.codec = codec
        self.backend = backend or SerialBackend()

    def packed_length(self, dims: int) -> int:
        return dims

    def encrypt_values(self, values, rng: random.Random) -> list[int]:
        plaintexts = [self.codec.encode(float(v)) for v in np.asarray(values).ravel()]
        return self.backend.encrypt_batch(self.public, plaintexts, rng)

    def decode_sums(
        self, plaintexts: list[int], dims: int, coefficient_total: int,
        bias_terms: int = 2,
    ) -> np.ndarray:
        if len(plaintexts) != dims:
            raise ValueError(f"expected {dims} plaintexts, got {len(plaintexts)}")
        return np.array([self.codec.decode(p) for p in plaintexts])


class PackedPlane(CiphertextPlane):
    """Slot-packed ciphertexts, ``slots`` values apiece."""

    def __init__(
        self,
        public: PublicKey,
        packed: PackedCodec,
        backend: CryptoBackend | None = None,
    ) -> None:
        self.public = public
        self.packed = packed
        self.backend = backend or SerialBackend()

    def packed_length(self, dims: int) -> int:
        return self.packed.packed_length(dims)

    def encrypt_values(self, values, rng: random.Random) -> list[int]:
        plaintexts = self.packed.pack(np.asarray(values, dtype=float).ravel())
        return self.backend.encrypt_batch(self.public, plaintexts, rng)

    def decode_sums(
        self, plaintexts: list[int], dims: int, coefficient_total: int,
        bias_terms: int = 2,
    ) -> np.ndarray:
        if len(plaintexts) != self.packed_length(dims):
            raise ValueError(
                f"expected {self.packed_length(dims)} plaintexts, "
                f"got {len(plaintexts)}"
            )
        return np.array(
            self.packed.unpack(
                plaintexts, dims, bias_multiplier=bias_terms * coefficient_total
            )
        )
