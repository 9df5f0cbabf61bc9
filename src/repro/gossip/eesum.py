"""EESum — the encrypted epidemic sum (Sec. 4.2.1, Algorithm 2).

Homomorphic ciphertexts support additions and scalar multiplications but no
divisions, so the push–pull averaging rule ("each keeps half") cannot be
applied directly.  Algorithm 2 *delays every division*: a node's encrypted
value is the cleartext algorithm's value scaled by ``2^{n_l}``, where
``n_l`` is its exchange count.  On an exchange the less-advanced side is
scaled up by ``2^{|n_r − n_l|}`` (a homomorphic scalar multiplication),
the two values are added homomorphically, and both counters move to
``max(n_l, n_r) + 1``.  Appendix C.2.1 proves this is arithmetically
equivalent to the cleartext rule; ``tests/gossip`` re-proves it by shadow
execution.

The protocol carries a whole *vector* of ciphertexts (the k×(n+1) Diptych
means plus, optionally, the noise vector) under a single shared counter, so
parallel sums stay scale-aligned — which is what lets Alg. 3 add the
encrypted noise to the encrypted means at the end.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from .. import lazy
from ..blocks import block_rows, row_blocks

if TYPE_CHECKING:
    from ..crypto.keys import PublicKey
    from .engine import Node

__all__ = [
    "EESum",
    "EESumState",
    "HomomorphicOps",
    "MockHomomorphicOps",
    "VectorizedEESum",
]

_STATE = "eesum"

# The real ciphertext algebra (repro.lazy): the mock loop imports none.
homomorphic_add = lazy.defer(__name__, "..crypto.damgard_jurik", "homomorphic_add")
homomorphic_scalar_mul = lazy.defer(
    __name__, "..crypto.damgard_jurik", "homomorphic_scalar_mul"
)


class HomomorphicOps:
    """The real ciphertext algebra: Damgård–Jurik multiply/exponentiate."""

    def __init__(self, public: PublicKey) -> None:
        self.public = public

    def add(self, c1: int, c2: int) -> int:
        return homomorphic_add(self.public, c1, c2)

    def scalar_mul(self, ciphertext: int, scalar: int) -> int:
        return homomorphic_scalar_mul(self.public, ciphertext, scalar)


class MockHomomorphicOps:
    """The mock-homomorphic integer plane: ``E(a) = a``.

    Addition and scalar multiplication act directly on the plaintext
    integers, so a protocol run carries exactly the integers a real run's
    ciphertexts would decrypt to (no modular wrap — the slot headroom of
    :meth:`repro.crypto.encoding.PackedCodec.plan`, re-checked at unpack,
    guarantees real runs never wrap either).  This is what lets the object
    engine execute full EESum semantics at populations where big-int modexps
    are unaffordable, and what the vectorized plane's equivalence tests
    compare against.
    """

    def add(self, c1: int, c2: int) -> int:
        return c1 + c2

    def scalar_mul(self, ciphertext: int, scalar: int) -> int:
        return ciphertext * scalar


class EESumState:
    """One node's EESum state: ciphertext vector, clear weight, counter."""

    __slots__ = ("ciphertexts", "omega", "count")

    def __init__(self, ciphertexts: list[int], omega: int) -> None:
        self.ciphertexts = ciphertexts
        self.omega = omega  # kept scaled: integer ω·2^{count}
        self.count = 0


class EESum:
    """Algorithm 2 over a vector of Damgård–Jurik ciphertexts.

    ``initial`` maps node id → list of ciphertexts (all nodes must supply
    vectors of equal length).  After convergence, a node's estimate of the
    global sum of element ``j`` is ``decrypt(c_j) / omega`` — both carry
    the same ``2^{count}`` scale, so the ratio needs no descaling;
    alternatively callers divide two decrypted elements (sum/count) and the
    scale cancels likewise, as in Alg. 3.
    """

    def __init__(
        self,
        public: PublicKey | None,
        initial: dict[int, list[int]],
        ops: HomomorphicOps | MockHomomorphicOps | None = None,
    ) -> None:
        if ops is None:
            if public is None:
                raise ValueError("EESum needs a public key or explicit ops")
            ops = HomomorphicOps(public)
        self.public = public
        self.ops = ops
        self.initial = initial

    def setup(self, node: Node, rng: random.Random) -> None:
        ciphertexts = list(self.initial[node.node_id])
        omega = 1 if node.node_id == 0 else 0
        node.state[_STATE] = EESumState(ciphertexts, omega)

    def state_of(self, node: Node) -> EESumState:
        """Access a node's EESum state."""
        return node.state[_STATE]

    def exchange(self, initiator: Node, contact: Node, rng: random.Random) -> None:
        a = self.state_of(initiator)
        b = self.state_of(contact)
        if len(a.ciphertexts) != len(b.ciphertexts):
            raise ValueError("EESum vectors must have equal length")
        if a.count != b.count:
            # Scale the less-advanced side up by 2^{difference} (Alg. 2 l.1-5).
            low, high = (a, b) if a.count < b.count else (b, a)
            factor = 1 << (high.count - low.count)
            low.ciphertexts = [
                self.ops.scalar_mul(c, factor) for c in low.ciphertexts
            ]
            low.omega *= factor
        merged = [
            self.ops.add(ca, cb)
            for ca, cb in zip(a.ciphertexts, b.ciphertexts)
        ]
        omega = a.omega + b.omega
        count = max(a.count, b.count) + 1
        for side in (a, b):
            side.ciphertexts = list(merged)
            side.omega = omega
            side.count = count


class VectorizedEESum:
    """Algorithm 2 as whole-population array operations (struct-of-arrays).

    State is three arrays over ``population`` nodes: the value matrix
    ``values`` (``population × dims``), the weight vector ``omega`` and the
    shared exchange counter ``count`` — one counter per node covering the
    whole k×(n+1) Diptych vector, exactly as the object protocol keeps one
    ``EESumState.count`` for its whole ciphertext list.

    **Representation.**  The object plane stores the delayed-division
    integers ``v = σ·2^count`` (and ``ω_int = ω·2^count``); this plane
    stores the *normalized* pair ``(σ, ω)`` plus ``count``.  The Alg. 2
    exchange — scale the less-advanced side by ``2^{|n_r − n_l|}``, add,
    advance both counters to ``max(n_l, n_r) + 1`` — collapses in the
    normalized representation to

        σ' = (σ_l·2^{c_l}·2^{max−c_l} + σ_r·2^{c_r}·2^{max−c_r}) / 2^{max+1}
           = (σ_l + σ_r) / 2,            c' = max(c_l, c_r) + 1,

    i.e. the delayed divisions cancel the alignment scalings *exactly* (a
    restatement of the App. C.2.1 equivalence).  Both representations are
    dyadic-rational–exact: as long as numerators fit a float64 mantissa the
    arrays hold the same numbers the object plane's integers denote (the
    equivalence tests re-materialize those integers and assert identity
    against a mock-homomorphic object run on the same pairing schedule).
    """

    def __init__(self, values: np.ndarray, copy: bool = True) -> None:
        """``copy=False`` takes ownership of ``values`` without duplicating
        it — the k·(n+1) matrix is the dominant allocation at 10⁵–10⁶
        nodes, and the computation step hands over a buffer it built for
        exactly this purpose.  The exchange moves whole rows as single
        items, so the matrix must be C-contiguous: ``copy=False`` on any
        other layout raises instead of copying behind the caller's back."""
        if copy:
            values = np.array(values, dtype=float, order="C")
        else:
            values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or len(values) < 2:
            raise ValueError("values must be a population × dims matrix (pop >= 2)")
        if not values.flags.c_contiguous:
            raise ValueError("copy=False needs a C-contiguous values matrix")
        self.values = values
        self.population, self.dims = values.shape
        self.omega = np.zeros(self.population)
        self.omega[0] = 1.0
        self.count = np.zeros(self.population, dtype=np.int64)
        # The two sides of one exchange block, reused by every cycle.
        self._sides = np.empty(
            (2, block_rows(self.dims * values.itemsize), self.dims)
        )

    def exchange_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        """One batch of disjoint pairwise exchanges (Alg. 2 l.1-7).

        ``left``/``right`` must be disjoint index arrays (each node appears
        at most once across both) — the vectorized analogue of a set of
        simultaneous point-to-point exchanges.  The pairing is walked in
        cache-sized blocks: the arithmetic per element is that of
        ``(values[left] + values[right]) * 0.5`` on the whole batch, but no
        pairs × dims temporary ever exists.  Gathers and scatters see each
        row as one opaque item (a 1-D array of ``dims·8``-byte voids),
        which fancy indexing moves faster than the rows of a 2-D array
        (docs/PERFORMANCE.md, "Row-item exchanges").
        """
        row_bytes = self.dims * self.values.itemsize
        row = np.dtype((np.void, row_bytes))
        rows = self.values.view(row)[:, 0]
        side_l, side_r = self._sides
        rows_l, rows_r = side_l.view(row)[:, 0], side_r.view(row)[:, 0]
        for pairs in row_blocks(len(left), row_bytes):
            l, r = left[pairs], right[pairs]
            n = len(l)
            # mode="wrap" is the unbuffered gather (``raise`` stages ``out``
            # through a copy); it reads negative indices the way the
            # scatters below do, and those still raise on a node that does
            # not exist.
            np.take(rows, l, out=rows_l[:n], mode="wrap")
            np.take(rows, r, out=rows_r[:n], mode="wrap")
            merged = side_l[:n]
            merged += side_r[:n]
            merged *= 0.5
            rows[l] = rows_l[:n]
            rows[r] = rows_l[:n]
        for pairs in row_blocks(len(left), self.omega.itemsize):
            l, r = left[pairs], right[pairs]
            omega = (self.omega[l] + self.omega[r]) * 0.5
            self.omega[l] = omega
            self.omega[r] = omega
            count = np.maximum(self.count[l], self.count[r]) + 1
            self.count[l] = count
            self.count[r] = count

    def estimates(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Per-node sum estimates ``σ/ω`` (rows of NaN where ω is still 0)."""
        values = self.values if nodes is None else self.values[nodes]
        omega = self.omega if nodes is None else self.omega[nodes]
        weights = omega[:, None]
        estimates = np.full(values.shape, np.nan)
        np.divide(values, weights, out=estimates, where=weights > 0)
        return estimates
