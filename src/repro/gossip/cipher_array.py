"""CipherArray — genuine Damgård–Jurik ciphertexts in struct-of-arrays form.

The vectorized plane (PR 2) reaches 10⁵–10⁶ participants by replacing the
object engine's per-node Python objects with whole-population arrays — but
it carries *mock*-homomorphic integers.  This module closes that gap: the
same struct-of-arrays exchange discipline, over real packed Damgård–Jurik
ciphertexts, with every round's homomorphic work routed through the batch
bigint primitives (:func:`repro.crypto.bigint.powmod_batch` /
:func:`~repro.crypto.bigint.mulmod_pairwise`) and shardable across the
process-pool crypto backend.

Two layers:

* :class:`CipherArray` — the batch container: the whole population's
  ciphertexts as **one** ``(P, W)`` ``dtype=object`` ndarray (row ``i`` is
  node ``i``'s packed vector of ``W`` ciphertexts), plus the two
  whole-round operations Algorithm 2 needs (scale lagging rows by a shared
  ``2^d``; merge all scheduled pairs elementwise).  A merge round is two
  C-level gathers (``rows[left]``, ``rows[right]``), **one**
  ``mulmod_batch`` over every ciphertext of every pair, and two scatters
  of the merged block back to both sides; the alignment step is a gather,
  one ``pow_batch`` and a scatter per distinct counter gap (a handful of
  small values).  No per-node or per-ciphertext Python loop.
* :class:`CipherEESum` — Algorithm 2 over a CipherArray, drop-in for the
  vectorized engine's protocol slot (it implements ``exchange_pairs``).
  The weight ω and the epidemic counter column stay cleartext (exactly as
  the object plane keeps ``EESumState.omega`` and its cleartext
  ``EpidemicSum`` counter): they *are* a mock-plane
  :class:`~.VectorizedEESum` stepped on the same pairs, so a crypto run's
  clear side is bit-identical to a mock run on the same pairing schedule
  by construction — while the ciphertext side is bit-identical to an
  object-plane :class:`~.EESum` run with real :class:`~.HomomorphicOps`
  on that schedule (same ops, same order, same integers).

Crypto wall-time is accumulated in ``CipherArray.crypto_seconds`` so the
computation step can report a per-iteration ``crypto_ms`` split.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..crypto.backend import CryptoBackend, SerialBackend
from ..crypto.keys import PublicKey
from .eesum import VectorizedEESum

__all__ = ["CipherArray", "CipherEESum"]


class CipherArray:
    """Equal-width Damgård–Jurik ciphertext vectors for a whole population.

    ``rows`` is one ``(population, width)`` ``dtype=object`` ndarray of
    plain ints mod ``n^{s+1}``; row ``i`` is node ``i``'s packed ciphertext
    vector.  All homomorphic arithmetic goes through ``backend`` so a
    process pool shards rounds transparently; results are independent of
    worker count and bigint backend (the operations are deterministic
    integer arithmetic — no randomness is consumed here).
    """

    def __init__(
        self,
        public: PublicKey,
        rows: Sequence[Sequence[int]] | np.ndarray,
        backend: CryptoBackend | None = None,
    ) -> None:
        # Lists are copied; an object ndarray is adopted as is.
        self.rows = np.asarray(rows, dtype=object)
        if len(self.rows) == 0:
            raise ValueError("CipherArray needs at least one row")
        if self.rows.ndim != 2:
            raise ValueError("CipherArray rows must have equal width")
        self.public = public
        self.width = self.rows.shape[1]
        self.backend = backend or SerialBackend()
        #: Accumulated wall-clock seconds spent inside backend batch calls.
        self.crypto_seconds = 0.0

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, node: int) -> list[int]:
        """Node ``node``'s ciphertext vector as a list of ``int`` (a copy —
        rows are immutable from the caller's perspective)."""
        return self.rows[int(node)].tolist()

    # ------------------------------------------------------ round batches

    def scale_rows(self, nodes: np.ndarray, log2_factors: np.ndarray) -> None:
        """Homomorphic scalar-multiply each row by its ``2^d`` (Alg. 2 l.1-5).

        Rows are grouped by distinct ``d`` so each group is one gather, one
        shared-exponent ``pow_batch`` and one scatter — within a gossip
        round the counter gaps take only a handful of small values, so the
        whole alignment step is a few batched calls regardless of
        population.  The gaps are grouped with a plain ``set``:
        ``np.unique`` would import ``numpy.ma`` on the first round.
        """
        nodes = np.asarray(nodes)
        log2_factors = np.asarray(log2_factors)
        if len(nodes) == 0:
            return
        n_s1 = self.public.n_s1
        started = time.perf_counter()
        for gap in sorted(set(log2_factors.tolist())):
            group = nodes[log2_factors == gap]
            powed = self.backend.pow_batch(
                self.rows[group].ravel(), 1 << gap, n_s1
            )
            self.rows[group] = np.reshape(
                np.array(powed, dtype=object), (len(group), self.width)
            )
        self.crypto_seconds += time.perf_counter() - started

    def merge_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        """Homomorphic-add every scheduled (disjoint) pair's vectors in one
        batch.

        Both sides of each pair end up holding the merged vector, exactly
        as the object protocol assigns ``side.ciphertexts = list(merged)``
        to initiator and contact alike; ints are immutable, so both rows
        may hold the same objects.
        """
        left = np.asarray(left)
        right = np.asarray(right)
        if len(left) == 0:
            return
        started = time.perf_counter()
        merged = self.backend.mulmod_batch(
            self.rows[left].ravel(), self.rows[right].ravel(), self.public.n_s1
        ).reshape(len(left), self.width)
        self.rows[left] = merged
        self.rows[right] = merged
        self.crypto_seconds += time.perf_counter() - started


class CipherEESum:
    """Algorithm 2 over a :class:`CipherArray` (vectorized-engine protocol).

    State per node: the ciphertext vector (in the array) and the clear
    side — a :class:`~.VectorizedEESum` over the one-column epidemic
    counter matrix, whose ``values`` / ``omega`` / ``count`` arrays this
    class exposes under the same names.  Its shared exchange counter
    ``count`` governs the delayed-division scale of the ciphertexts
    (``E(σ·2^{count}·2^{fractional_bits})``).
    """

    def __init__(
        self,
        public: PublicKey,
        rows: Sequence[Sequence[int]] | np.ndarray,
        backend: CryptoBackend | None = None,
    ) -> None:
        self.array = CipherArray(public, rows, backend)
        self.population = len(self.array)
        if self.population < 2:
            raise ValueError("CipherEESum needs a population >= 2")
        self.clear = VectorizedEESum(np.ones((self.population, 1)), copy=False)
        # The clear protocol updates its arrays in place: these stay views.
        self.values = self.clear.values
        self.ctr = self.values[:, 0]
        self.omega = self.clear.omega
        self.count = self.clear.count

    @property
    def crypto_seconds(self) -> float:
        return self.array.crypto_seconds

    def exchange_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        """One batch of disjoint pairwise exchanges (Alg. 2 l.1-7).

        Ciphertext side: scale the lagging side of every uneven pair by
        its ``2^{|n_r − n_l|}`` (grouped shared-exponent batch), then merge
        all pairs elementwise (one batch).  Clear side: the mock protocol's
        own exchange, which also advances the counters the next round's
        gaps are read from.
        """
        left = np.asarray(left)
        right = np.asarray(right)
        gaps = self.count[left] - self.count[right]
        lagging = np.where(gaps < 0, left, right)
        log2_factors = np.abs(gaps)
        uneven = log2_factors > 0
        if np.any(uneven):
            self.array.scale_rows(lagging[uneven], log2_factors[uneven])
        self.array.merge_pairs(left, right)
        self.clear.exchange_pairs(left, right)

    # -------------------------------------------------- shadow comparison

    def row(self, node: int) -> list[int]:
        """Node ``node``'s current ciphertext vector."""
        return self.array.row(node)

    def scaled_omega(self, node: int) -> int:
        """The object-plane integer ``ω·2^{count}`` this node denotes.

        Exact materialization via ``Fraction`` — raises if the normalized
        float has left the dyadic grid (mantissa exhausted), mirroring
        :meth:`~.VectorizedEESum.scaled_state`.
        """
        exact = Fraction(float(self.omega[node])) * (
            1 << int(self.count[node])
        )
        if exact.denominator != 1:
            raise ValueError("omega is no longer dyadic — mantissa exhausted")
        return int(exact)
