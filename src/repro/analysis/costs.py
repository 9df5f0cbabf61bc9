"""Local cost and bandwidth model (Sec. 6.1.2, Fig. 5).

Three parameters fully determine a participant's footprint: the number of
clusters ``k``, the mean size (= series length ``n``, plus the count), and
the ciphertext length (≈ ``(s+1)``× the key size).  The relationships are
linear; :class:`LocalCostModel` makes them explicit, and
:func:`measure_crypto_costs` produces the actually-measured MIN/MAX/AVG
triplets the Fig. 5(a) bars report, using the real cryptosystem.

:func:`compare_scalar_batched_costs` additionally measures the *batched*
ciphertext plane (slot packing + fixed-base randomizer tables) against the
scalar baseline on the same computation-step workload — encrypt one set of
means, homomorphically add two sets, threshold-decrypt — and verifies the
decoded outputs are bit-identical between the two planes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from ..crypto.backend import SerialBackend
from ..crypto.damgard_jurik import (
    FastEncryptor,
    encrypt,
    homomorphic_add,
    homomorphic_add_batch,
)
from ..crypto.encoding import FixedPointCodec, PackedCodec
from ..crypto.keys import PublicKey
from ..crypto.threshold import (
    ThresholdKeypair,
    combine_partial_decryptions,
    partial_decrypt,
)

__all__ = [
    "LocalCostModel",
    "CostSample",
    "compare_scalar_batched_costs",
    "measure_crypto_costs",
    "means_set_bytes",
]


def means_set_bytes(public: PublicKey, k: int, series_length: int) -> int:
    """Wire size of one set of encrypted means (Fig. 5(b)).

    ``k`` means × (``series_length`` sum ciphertexts + the count
    ciphertext), each of ``public.ciphertext_bytes`` bytes, plus the
    cleartext weight/counter envelope (negligible, ignored).
    """
    return k * (series_length + 1) * public.ciphertext_bytes


@dataclass(frozen=True)
class LocalCostModel:
    """Linear cost model: everything scales with ``k·(n+1)`` ciphertexts."""

    public: PublicKey
    k: int
    series_length: int

    @property
    def transfer_bytes(self) -> int:
        """One means-set transfer (the Fig. 5(b) bar)."""
        return means_set_bytes(self.public, self.k, self.series_length)

    def exchange_bytes(self) -> int:
        """One epidemic-sum exchange moves two means sets (push–pull)."""
        return 2 * self.transfer_bytes

    def decryption_exchange_bytes(self) -> int:
        """One decryption exchange: encrypted + partially-decrypted copies
        in both directions — the equivalent of four means sets (Sec. 6.3.1)."""
        return 4 * self.transfer_bytes

    def transfer_seconds(self, bandwidth_bits_per_s: float = 1e6) -> float:
        """Transfer time of one means set on a given uplink (default 1 Mb/s)."""
        return self.transfer_bytes * 8 / bandwidth_bits_per_s


@dataclass
class CostSample:
    """MIN/MAX/AVG of a repeated timing measurement, in seconds."""

    minimum: float
    maximum: float
    average: float

    @classmethod
    def from_times(cls, times: list[float]) -> "CostSample":
        return cls(min(times), max(times), sum(times) / len(times))


def measure_crypto_costs(
    keypair: ThresholdKeypair,
    k: int = 50,
    series_length: int = 20,
    repetitions: int = 3,
    rng: random.Random | None = None,
) -> dict[str, CostSample]:
    """Measure encrypt / add / decrypt wall-times for one set of means.

    Mirrors the Fig. 5(a) protocol: a "set of means" is ``k·(n+1)``
    ciphertexts; *decrypt* applies ``τ`` partial decryptions plus the
    combination, the per-iteration operation of the epidemic decryption.
    """
    rng = rng or random.Random(7)
    public = keypair.public
    count = k * (series_length + 1)
    values = [rng.randrange(1 << 20) for _ in range(count)]

    samples, _ = _time_step(
        keypair,
        repetitions,
        lambda: [encrypt(public, v, rng=rng) for v in values],
        _add_each,
    )
    return samples


def _time_step(
    keypair: ThresholdKeypair,
    repetitions: int,
    encrypt_set: Callable[[], list[int]],
    add_sets: Callable[[PublicKey, list[int], list[int]], list[int]],
) -> tuple[dict[str, CostSample], list[int]]:
    """The one stopwatch loop: encrypt a set, add two, threshold-decrypt.

    Returns the per-operation samples and the last repetition's decrypted
    plaintexts (one per ciphertext of the added set).
    """
    times: dict[str, list[float]] = {"encrypt": [], "add": [], "decrypt": []}
    for _ in range(repetitions):
        start = time.perf_counter()
        set_a = encrypt_set()
        times["encrypt"].append(time.perf_counter() - start)
        set_b = encrypt_set()
        start = time.perf_counter()
        added = add_sets(keypair.public, set_a, set_b)
        times["add"].append(time.perf_counter() - start)
        start = time.perf_counter()
        plaintexts = _threshold_decrypt_all(keypair, added)
        times["decrypt"].append(time.perf_counter() - start)
    samples = {op: CostSample.from_times(t) for op, t in times.items()}
    return samples, plaintexts


def _add_each(public: PublicKey, set_a: list[int], set_b: list[int]) -> list[int]:
    return [homomorphic_add(public, a, b) for a, b in zip(set_a, set_b)]


def _threshold_decrypt_all(
    keypair: ThresholdKeypair, ciphertexts: list[int]
) -> list[int]:
    """τ partial decryptions + combination for every ciphertext (timed path)."""
    tau = keypair.context.threshold
    shares = keypair.shares[:tau]
    plaintexts = []
    for ciphertext in ciphertexts:
        partials = {
            share.index: partial_decrypt(keypair.context, share, ciphertext)
            for share in shares
        }
        plaintexts.append(combine_partial_decryptions(keypair.context, partials))
    return plaintexts


#: The comparison's workload: values drawn in ±1000 on the run's 2⁻²⁴ grid.
_FRACTIONAL_BITS = 24
_MAX_ABS_VALUE = 1000.0


def compare_scalar_batched_costs(
    keypair: ThresholdKeypair,
    k: int = 50,
    series_length: int = 20,
    repetitions: int = 1,
    rng: random.Random | None = None,
) -> dict:
    """Measure the computation-step local cost on both ciphertext planes.

    The workload mirrors :func:`measure_crypto_costs` — encrypt one set of
    ``k·(series_length+1)`` means values, homomorphically add two sets,
    threshold-decrypt the result — once per plane over identical input
    values.  The batched plane packs values with :class:`PackedCodec`
    (accumulation sized for the two-set sum) and amortizes randomizers with
    a :class:`FastEncryptor` table whose one-time build cost is reported
    separately as ``precompute_seconds`` (a protocol run pays it once).

    Returns a dict with per-plane ``CostSample`` maps, the per-plane
    ciphertext counts, the end-to-end ``speedup`` (scalar total / batched
    total), and ``identical`` — whether both planes decoded bit-identical
    float vectors.
    """
    rng = rng or random.Random(7)
    public = keypair.public
    count = k * (series_length + 1)
    values = [rng.uniform(-_MAX_ABS_VALUE, _MAX_ABS_VALUE) for _ in range(count)]

    codec = FixedPointCodec(public, fractional_bits=_FRACTIONAL_BITS)
    packed = PackedCodec.plan(
        public,
        fractional_bits=_FRACTIONAL_BITS,
        max_abs_value=_MAX_ABS_VALUE,
        population=1,
        exchanges=1,
        terms=2,  # two biased sets are summed before decryption
    )

    start = time.perf_counter()
    uses = 2 * repetitions * packed.packed_length(count)
    encryptor = FastEncryptor(public, rng, expected_uses=uses)
    precompute_seconds = time.perf_counter() - start
    batched_backend = SerialBackend(encryptor)

    # Encoding (encode / pack) stays outside the timers on both planes.
    encoded = [codec.encode(v) for v in values]
    packed_plaintexts = packed.pack(values)
    results: dict[str, dict[str, CostSample]] = {}
    # scalar plane: the seed implementation's layout
    results["scalar"], residues = _time_step(
        keypair,
        repetitions,
        lambda: [encrypt(public, m, rng=rng) for m in encoded],
        _add_each,
    )
    # batched plane: packing + fixed-base randomizers
    results["batched"], plaintexts = _time_step(
        keypair,
        repetitions,
        lambda: batched_backend.encrypt_batch(public, packed_plaintexts, rng),
        homomorphic_add_batch,
    )
    decoded = {
        "scalar": [codec.decode(r) for r in residues],
        "batched": packed.unpack(plaintexts, count, bias_multiplier=2),
    }

    totals = {
        plane: sum(sample.average for sample in samples.values())
        for plane, samples in results.items()
    }
    return {
        "scalar": results["scalar"],
        "batched": results["batched"],
        "speedup": totals["scalar"] / totals["batched"],
        "identical": decoded["scalar"] == decoded["batched"],
        "slots": packed.slots,
        "scalar_ciphertexts": len(residues),
        "batched_ciphertexts": len(plaintexts),
        "precompute_seconds": precompute_seconds,
        "scalar_seconds": totals["scalar"],
        "batched_seconds": totals["batched"],
    }
