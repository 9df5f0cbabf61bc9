"""Signed fixed-point encoding of real values into ``Z_{n^s}``.

Time-series variables are reals (electricity in [0, 80] kWh, tumor size in
[0, 50] mm) but Paillier-family plaintexts are residues.  We use the usual
fixed-point embedding: ``encode(x) = round(x · 2^fractional_bits) mod n^s``
with negatives wrapped into the upper half of the residue ring.

Two properties matter for Chiaroscuro:

* homomorphic *sums* of encodings are encodings of sums at the same scale,
  so the EESum protocol never changes the scale;
* the Alg. 2 update rule multiplies values by powers of two (the delayed
  division); decoding therefore takes an explicit ``extra_shift`` so callers
  can divide by ``2^{n_e}`` *after* decryption, exactly as the paper requires
  ("any division of encrypted data is delayed until its decryption").

Value packing (the batched plane)
---------------------------------

A 1024-bit-key plaintext has ~1023 usable bits but a centroid coordinate
sum needs far fewer, so :class:`PackedCodec` packs many coordinates into
one plaintext and one ciphertext carries a whole stripe of the centroid
vector.  **Slot layout** (LSB first)::

    plaintext = Σ_{i=0}^{slots-1}  slot_i · 2^(i · slot_bits)

    slot_i    = f_i + B,   f_i = round(v_i · 2^fractional_bits)  (signed)
    B         = 2^value_bits                  (the per-contribution bias)
    slot_bits = value_bits + 1 + accumulation_bits

Each slot stores its signed fixed-point value *offset by the bias B*, so
slot contents are always non-negative and additions never borrow across
slot boundaries.  Homomorphic sums then work slot-wise: after summing
biased vectors with (public, integer) coefficients ``c_j``, slot ``i``
holds

    raw_i = Σ_j c_j · f_{i,j}  +  B · C,     C = Σ_j c_j,

and :meth:`PackedCodec.unpack` subtracts ``B · bias_multiplier`` with
``bias_multiplier = C`` to recover the exact signed integer sum —
bit-identical to what a one-value-per-ciphertext :class:`FixedPointCodec`
residue would decode to.  The EESum protocols know ``C`` in clear:
Algorithm 2 scales the lagging side and adds, so a vector's coefficient
total is ``2^count`` for its cleartext exchange counter ``count``.

This is the one ciphertext layout of both real-crypto planes:
``PackedCodec.plan`` → :meth:`~PackedCodec.pack` → ``encrypt_batch`` →
gossip → threshold decryption → :meth:`~PackedCodec.unpack`.
:class:`FixedPointCodec` stays as the scalar reference encoding the
bit-identity tests check packed decoding against.

``accumulation_bits`` must bound ``log2`` of the worst-case accumulated
coefficient mass ``C_max`` — the caller supplies the exchange-
scaling exponent to :meth:`PackedCodec.plan` (the protocol layer passes
the proved counter bound: a node exchanges at most once per delivered
batch of disjoint pairs, so ``count`` is at most cycles × batches).  As a
backstop, :meth:`PackedCodec.unpack` re-checks the *actual* accumulated mass (known
exactly at decode time as ``2^count``) against the slot capacity and
raises instead of returning silently corrupted values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .keys import PublicKey

__all__ = ["FixedPointCodec", "PackedCodec", "quantize_to_grid"]


def quantize_to_grid(values: np.ndarray, fractional_bits: int) -> np.ndarray:
    """Snap reals onto the ``2^{-fractional_bits}`` fixed-point grid.

    Vectorized mirror of ``FixedPointCodec.encode`` followed by ``decode``
    (both use round-half-even): the mock-homomorphic plane quantizes its
    inputs with this function so the numbers it gossips are exactly the
    numbers a real ciphertext of the same value would decode to.
    """
    scale = float(1 << fractional_bits)
    return np.round(np.asarray(values, dtype=float) * scale) / scale


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode/decode reals as fixed-point residues of ``Z_{n^s}``.

    ``fractional_bits`` controls resolution (default 2⁻³² ≈ 2.3e-10).
    A residue wraps silently once a sum outgrows ``n^s / 2``; the protocol
    planes run on :class:`PackedCodec`, whose slots refuse instead.
    """

    public: PublicKey
    fractional_bits: int = 32

    @property
    def scale(self) -> int:
        """Multiplicative fixed-point scale ``2^fractional_bits``."""
        return 1 << self.fractional_bits

    def encode(self, value: float) -> int:
        """Encode a real as a residue; negatives wrap to the upper half."""
        fixed = round(value * self.scale)
        return fixed % self.public.n_s

    def decode(self, residue: int, extra_shift: int = 0) -> float:
        """Decode a residue back to a real.

        ``extra_shift`` is the number of delayed halvings accumulated by the
        EESum update rule (the value is divided by ``2^extra_shift`` on top
        of the fixed-point scale).
        """
        n_s = self.public.n_s
        residue %= n_s
        if residue > n_s // 2:
            residue -= n_s
        return residue / float(self.scale) / float(1 << extra_shift)


@dataclass(frozen=True)
class PackedCodec:
    """Pack many signed fixed-point slots into one plaintext residue.

    See the module docstring for the slot layout and the overflow model.
    ``value_bits`` bounds a single contribution (``|f| < 2^value_bits``);
    ``accumulation_bits`` bounds the total coefficient mass the slot must
    absorb before unpacking.  Use :meth:`plan` to derive both from protocol
    parameters instead of picking them by hand.
    """

    public: PublicKey
    fractional_bits: int = 32
    value_bits: int = 40
    accumulation_bits: int = 16

    def __post_init__(self) -> None:
        if self.fractional_bits < 0:
            raise ValueError("fractional_bits must be >= 0")
        if self.value_bits <= self.fractional_bits:
            raise ValueError("value_bits must exceed fractional_bits")
        if self.accumulation_bits < 1:
            raise ValueError("accumulation_bits must be >= 1")
        if self.slots < 1:
            raise ValueError(
                f"plaintext space too small to pack even one "
                f"{self.slot_bits}-bit slot (have {self.public.plaintext_bits} "
                "bits): raise the key size or the expansion s, or lower "
                "value_bits/accumulation_bits"
            )

    @property
    def scale(self) -> int:
        """Multiplicative fixed-point scale ``2^fractional_bits``."""
        return 1 << self.fractional_bits

    @property
    def bias(self) -> int:
        """Per-contribution slot offset ``B = 2^value_bits``."""
        return 1 << self.value_bits

    @property
    def slot_bits(self) -> int:
        """Width of one slot: value, sign headroom, and accumulation room."""
        return self.value_bits + 1 + self.accumulation_bits

    @property
    def slots(self) -> int:
        """Number of slots one plaintext carries."""
        return self.public.plaintext_bits // self.slot_bits

    @classmethod
    def plan(
        cls,
        public: PublicKey,
        fractional_bits: int,
        max_abs_value: float,
        exchanges: int,
    ) -> "PackedCodec":
        """Size a codec for a protocol run.

        ``max_abs_value`` bounds a single encoded value, ``exchanges`` the
        worst-case delayed-division scaling ``2^exchanges`` — the whole
        coefficient total ``C = 2^count`` of one biased vector per node,
        however many contributors it covers; two safety bits of headroom
        ride on top of that mass.  Raises ``ValueError`` when even a single
        slot cannot fit.
        """
        max_fixed = int(max_abs_value * (1 << fractional_bits) + 1)
        value_bits = max(max_fixed.bit_length() + 1, fractional_bits + 1)
        accumulation_bits = exchanges + 3  # 2^exchanges, plus two safety bits
        return cls(
            public=public,
            fractional_bits=fractional_bits,
            value_bits=value_bits,
            accumulation_bits=accumulation_bits,
        )

    def packed_length(self, count: int) -> int:
        """How many plaintexts carry ``count`` values."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return -(-count // self.slots)

    def pack(self, values) -> list:
        """Pack reals into plaintext residues, ``slots`` values apiece.

        ``values`` is one vector (→ its list of plaintexts) or a whole
        ``(rows, dims)`` matrix (→ one such list per row, exactly
        ``[pack(row) for row in values]``).  The matrix is quantized and
        range-checked in one numpy pass, then each stripe is assembled
        slot-column by slot-column across all rows.  The last plaintext of
        a row is padded with zero-value slots (they still carry the bias,
        which :meth:`unpack` never reads back).
        """
        matrix = np.asarray(values, dtype=float)
        single = matrix.ndim == 1
        if single:
            matrix = matrix[None, :]
        fixed = np.rint(matrix * float(self.scale))  # half-even, as round()
        bad = ~(np.abs(fixed) < self.bias)  # catches NaN/inf too
        if bad.any():
            raise ValueError(
                f"value {matrix[bad][0]} exceeds the slot capacity "
                f"2^{self.value_bits}"
            )
        rows, dims = fixed.shape
        slots, slot_bits, bias = self.slots, self.slot_bits, self.bias
        if self.value_bits < 62:  # biased slot values fit int64
            columns = (fixed.astype(np.int64) + bias).T.tolist()
        else:
            columns = [[int(v) + bias for v in column] for column in fixed.T.tolist()]
        columns += [[bias] * rows] * (-dims % slots)  # last-stripe padding
        stripes = []
        for first in range(0, len(columns), slots):
            stripe = columns[first]
            for slot in range(1, slots):
                shift = slot * slot_bits
                stripe = [
                    acc | (value << shift)
                    for acc, value in zip(stripe, columns[first + slot])
                ]
            stripes.append(stripe)
        packed = [list(row) for row in zip(*stripes)] or [[] for _ in range(rows)]
        return packed[0] if single else packed

    def unpack_integers(
        self, plaintexts: list[int], count: int, bias_multiplier: int = 1
    ) -> list[int]:
        """Recover the exact signed integer content of the first ``count`` slots.

        ``bias_multiplier`` is the total bias mass accumulated per slot: the
        coefficient total ``C`` of a homomorphic sum of biased vectors (1
        for a plain round-trip).
        """
        if self.packed_length(count) > len(plaintexts):
            raise ValueError("not enough plaintexts for the requested count")
        # Soundness gate: with |f| < B per contribution and a coefficient
        # mass of ``bias_multiplier``, every slot is < 2B·bias_multiplier.
        # If that bound does not fit the slot, neighbouring slots may have
        # bled into each other and unpacking would be silently wrong.
        if bias_multiplier >= 1 and 2 * self.bias * bias_multiplier > (
            1 << self.slot_bits
        ):
            raise ValueError(
                "accumulated coefficient mass exceeds the packed slot "
                f"capacity (need {(2 * self.bias * bias_multiplier).bit_length()}"
                f" bits, slot has {self.slot_bits}): raise accumulation_bits"
            )
        mask = (1 << self.slot_bits) - 1
        offset = self.bias * bias_multiplier
        out: list[int] = []
        for index, plaintext in enumerate(plaintexts):
            take = min(self.slots, count - index * self.slots)
            if take <= 0:
                break
            for i in range(take):
                raw = (plaintext >> (i * self.slot_bits)) & mask
                out.append(raw - offset)
        return out

    def unpack(
        self,
        plaintexts: list[int],
        count: int,
        bias_multiplier: int = 1,
        extra_shift: int = 0,
    ) -> list[float]:
        """Unpack to reals; ``extra_shift`` divides out delayed halvings."""
        divisor = float(self.scale) * float(1 << extra_shift)
        return [
            fixed / divisor
            for fixed in self.unpack_integers(plaintexts, count, bias_multiplier)
        ]
