"""The computation step (Algorithm 3) over the gossip engine.

One instance executes, for a single k-means iteration:

1. **Epidemic computation of the encrypted means** — the EESum protocol
   over every participant's flattened ``k·(n+1)`` ciphertext vector;
2. **Epidemic noise generation** — the noise-share EESum (carried in the
   *same* exchange stream so scales stay aligned), the cleartext epidemic
   counter ``ctr``, and the min-identifier surplus-correction
   dissemination;
3. **Encrypted perturbation** — homomorphic addition of the converged
   noise to the converged means;
4. **Epidemic decryption** — the threshold protocol of Sec. 4.2.3.

The correction vector is public, data-independent material (it travels in
clear with its identifier); we subtract it right after decryption instead
of homomorphically re-encoding it beforehand — arithmetically identical
(``docs/ARCHITECTURE.md``, "Calibration").

The output is per-node: each participant ends the step with its own decoded
``(sums, counts)`` per cluster; Theorem 1's correctness shows these agree
across nodes up to the epidemic approximation error, and the integration
tests measure exactly that agreement.  :class:`CentralComputationStep` is
the quality plane's stand-in for all four phases: one trusted curator
releasing the same perturbed aggregates (App. B), as one node.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

import numpy as np

from .. import lazy
from ..blocks import row_blocks
from ..clustering.kmeans import compute_means
from ..gossip.decryption import EpidemicDecryption, VectorizedShareCollection
from ..gossip.dissemination import MinIdDissemination, VectorizedMinId
from ..gossip.eesum import EESum, VectorizedEESum
from ..gossip.vectorized_protocol import VectorizedGossipEngine
from ..privacy.probabilistic import lemma2_perturb
from .noise import NoisePlan

if TYPE_CHECKING:
    from ..crypto.backend import CryptoBackend
    from ..crypto.encoding import PackedCodec
    from ..crypto.threshold import ThresholdKeypair
    from ..gossip.engine import GossipEngine

# The real-ciphertext planes' names (repro.lazy): the mock loop imports none.
SerialBackend = lazy.defer(__name__, "..crypto.backend", "SerialBackend")
homomorphic_add_batch = lazy.defer(
    __name__, "..crypto.damgard_jurik", "homomorphic_add_batch"
)
combine_partial_decryptions_batch = lazy.defer(
    __name__, "..crypto.threshold", "combine_partial_decryptions_batch"
)
EpidemicSum = lazy.defer(__name__, "..gossip.aggregation", "EpidemicSum")
CipherEESum = lazy.defer(__name__, "..gossip.cipher_array", "CipherEESum")

__all__ = [
    "CentralComputationStep",
    "ComputationStep",
    "ComputationOutput",
    "VectorizedComputationStep",
    "VectorizedCryptoComputationStep",
]


class ComputationOutput:
    """Per-node decoded aggregates after one computation step."""

    def __init__(self, k: int, series_length: int) -> None:
        self.k = k
        self.series_length = series_length
        self.sums: dict[int, np.ndarray] = {}  # node id → (k, n)
        self.counts: dict[int, np.ndarray] = {}  # node id → (k,)

    def perturbed_means(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(means, counts) for a node; lost clusters carry non-positive counts."""
        sums = self.sums[node_id]
        counts = self.counts[node_id]
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts[:, None]
        return means, counts

    def agreement(self) -> float:
        """Max pairwise relative disagreement of the decoded sums (diagnostic)."""
        stacked = np.array([self.sums[i] for i in sorted(self.sums)])
        spread = stacked.max(axis=0) - stacked.min(axis=0)
        magnitude = np.abs(stacked).max(axis=0) + 1e-12
        return float((spread / magnitude).max())


class ComputationStep:
    """Algorithm 3, parameterized by the crypto material and epidemic knobs.

    Ciphertexts are laid out by ``packed`` (the slot layout of
    :mod:`repro.crypto.encoding`) and every bulk crypto operation goes
    through ``backend`` as a batch.  The supplied ``mean_vectors`` must be
    laid out by the *same* codec (``Participant`` takes one).
    """

    #: This step times none of its crypto (see ``IterationRecord.crypto_ms``).
    crypto_seconds: float | None = None
    #: Every node takes part: no churn subsample to count.
    active_series: int | None = None

    def __init__(
        self,
        keypair: ThresholdKeypair,
        packed: PackedCodec,
        noise_plan: NoisePlan,
        exchanges: int,
        crypto_rng: random.Random,
        noise_rng: np.random.Generator,
        backend: CryptoBackend | None = None,
    ) -> None:
        self.keypair = keypair
        self.packed = packed
        self.noise_plan = noise_plan
        self.exchanges = exchanges
        self.crypto_rng = crypto_rng
        self.noise_rng = noise_rng
        self.backend = backend or SerialBackend()

    def run(
        self,
        engine: GossipEngine,
        mean_vectors: dict[int, list[int]],
    ) -> ComputationOutput:
        """Execute the computation step for every node of ``engine``.

        ``mean_vectors`` maps node id → flattened encrypted means (the
        Alg. 1 l.6 initialization): ``packed_length(k·(n+1))`` ciphertexts.
        """
        public = self.keypair.public
        packed = self.packed
        node_ids = [node.node_id for node in engine.nodes]
        dims = self.noise_plan.dimensions
        payload = packed.packed_length(dims)

        # --- local noise-share generation (Alg. 3 l.4) -------------------
        shares = self.noise_plan.draw_shares(self.noise_rng, len(node_ids))
        noise_vectors = {
            i: self.backend.encrypt_batch(public, packed.pack(share), self.crypto_rng)
            for i, share in zip(node_ids, shares)
        }

        # --- background epidemic sums (Alg. 3 l.2 & l.5) -----------------
        # Means and noise ride the same EESum instance so their delayed-
        # division scales stay aligned; the cleartext counter gossips on
        # the same exchange stream.  The EESum coefficient total exact
        # unpacking needs is 2^count, read off the state's clear counter.
        combined = {i: mean_vectors[i] + noise_vectors[i] for i in node_ids}
        eesum = EESum(public, combined)
        counter = EpidemicSum({i: np.array([1.0]) for i in node_ids})
        engine.setup(eesum, counter)
        engine.run_cycles(self.exchanges, eesum, counter)

        # --- epidemic noise correction (Alg. 3 l.6) ----------------------
        proposals: dict[int, tuple[int, np.ndarray]] = {}
        for node in engine.nodes:
            estimate = counter.estimate(node)
            if estimate is None:
                continue
            contributors = int(round(float(estimate[0])))
            correction = self.noise_plan.correction(contributors, self.noise_rng)
            proposals[node.node_id] = (self.crypto_rng.getrandbits(63), correction)
        dissemination = MinIdDissemination(proposals)
        engine.setup(dissemination)
        engine.run_cycles(self.exchanges, dissemination)

        # --- encrypted perturbation (Alg. 3 l.7) --------------------------
        # Batched: one element-wise homomorphic add of the means half and
        # the noise half; ω and the counter travel on in clear.
        bundles: dict[int, tuple[list[int], int, int]] = {}
        for node in engine.nodes:
            state = eesum.state_of(node)
            perturbed = homomorphic_add_batch(
                public, state.ciphertexts[:payload], state.ciphertexts[payload:]
            )
            bundles[node.node_id] = (perturbed, state.omega, state.count)

        # --- epidemic decryption (Alg. 3 l.8-10) ---------------------------
        key_shares = {
            i: self.keypair.shares[i % len(self.keypair.shares)] for i in node_ids
        }
        decryption = EpidemicDecryption(
            self.keypair.context, bundles, key_shares, backend=self.backend
        )
        engine.setup(decryption)
        for _ in range(10 * self.exchanges):
            engine.run_cycle(decryption)
            if decryption.all_done(engine.nodes):
                break

        # --- decode (Alg. 3 l.10-11) ---------------------------------------
        output = ComputationOutput(self.noise_plan.k, self.noise_plan.series_length)
        stride = self.noise_plan.series_length + 1
        for node in engine.nodes:
            if not decryption.is_done(node):
                # A node that never collected τ key-shares (isolated by
                # churn or a partition for the whole window) holds no
                # decrypted result — it reports nothing, exactly like the
                # vectorized step's holders mask.
                continue
            plaintexts, omega, count = decryption.plaintexts_of(node)
            if omega <= 0:
                continue
            # Bias mass: two biased vectors (means + noise) × C = 2^count.
            values = np.array(
                packed.unpack(plaintexts, dims, bias_multiplier=2 << count)
            )
            values /= float(omega)  # σ/ω — the epidemic sum estimate
            correction_entry = dissemination.value_of(node)
            if correction_entry is not None:
                values -= correction_entry[1]
            grid = values.reshape(self.noise_plan.k, stride)
            output.sums[node.node_id] = grid[:, :-1]
            output.counts[node.node_id] = grid[:, -1]
        return output


class _ArrayComputationStep:
    """Algorithm 3 over the struct-of-arrays engine, written once.

    The pipeline — noise shares, fixed-point staging, the three epidemic
    phases, the surplus-correction walk — is the same whatever carries the
    payload; a carrier supplies two hooks: :meth:`_aggregate` (turn the
    staged payload into the EESum protocol that gossips it) and
    :meth:`_open` (read ``σ/ω`` back out of it for a node sample).

    The working set of a step is one ``(population, dims + 1)`` payload
    plus O(block) (:mod:`repro.blocks`): shares are drawn into the payload,
    the assignment is added into it, the gossip merges it in place.
    """

    #: Wall-clock seconds spent inside crypto batch calls; ``None`` on a
    #: carrier that times nothing.
    crypto_seconds: float | None = None
    #: Every node takes part: no churn subsample to count.
    active_series: int | None = None

    def __init__(
        self,
        noise_plan: NoisePlan,
        exchanges: int,
        threshold: int,
        noise_rng: np.random.Generator,
        agreement_sample: int = 64,
    ) -> None:
        if exchanges < 1:
            raise ValueError("exchanges must be >= 1")
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.noise_plan = noise_plan
        self.exchanges = exchanges
        self.threshold = threshold
        self.noise_rng = noise_rng
        self.agreement_sample = agreement_sample
        #: The fixed-point grid the payload is staged on: the plan's.
        self.fractional_bits = noise_plan.fractional_bits

    def _aggregate(self, payload: np.ndarray):
        """The EESum protocol (``exchange_pairs`` plus ``values`` / ``omega``
        / ``count`` arrays, the counter in ``values[:, -1]``) over the staged
        ``(population, dims + 1)`` payload, whose last column is the
        cleartext counter.  The carrier owns the buffer from here on."""
        raise NotImplementedError

    def _open(self, eesum, sample: np.ndarray) -> dict[int, np.ndarray]:
        """Node → its ``σ/ω`` estimate vector (``dims`` long), for as many
        leading nodes of ``sample`` as the carrier decodes."""
        raise NotImplementedError

    def _add_means(
        self, body: np.ndarray, labels: np.ndarray, series: np.ndarray
    ) -> None:
        """Turn the noise shares in ``body`` into the gossiped values.

        Means and noise are quantized separately (matching the two
        independent encryptions, same round-half-even as
        ``quantize_to_grid``) and summed on the grid: every entry ends as
        ``(round(mean·2^f) + round(share·2^f)) / 2^f`` — bit for bit what
        the dense ``population × dims`` means matrix would give, which is
        never built.  A participant's means are its own ``n + 1`` entries
        (its series and a count of 1 in its cluster's stripe); everywhere
        else the mean is ``+0.0``, which only matters to a share that
        rounded to ``−0.0``.  Row blocks keep the five passes in cache.
        """
        scale = float(1 << self.fractional_bits)
        stride = series.shape[1] + 1
        stripe = np.arange(stride)
        for rows in row_blocks(len(body), body.shape[1] * body.itemsize):
            block = body[rows]
            block *= scale
            np.round(block, out=block)
            means = np.empty((len(block), stride))
            np.multiply(series[rows], scale, out=means[:, :-1])
            np.round(means[:, :-1], out=means[:, :-1])
            means[:, -1] = scale  # the count of 1, on the grid
            own = (
                np.arange(len(block))[:, None],
                labels[rows, None] * stride + stripe,
            )
            means += block[own]  # while the share's zero still has its sign
            block += 0.0  # mean +0.0 everywhere else: −0.0 shares become +0.0
            block[own] = means
            block /= scale

    def run(
        self,
        engine: VectorizedGossipEngine,
        labels: np.ndarray,
        series: np.ndarray,
    ) -> ComputationOutput:
        """Execute the computation step for the whole population at once.

        ``labels`` and ``series`` are the cleartext Diptych initialization
        (Alg. 1 l.6) in its sparse form: participant ``i``'s flattened
        ``k·(n+1)`` means vector carries ``series[i]`` and a count of 1 in
        cluster ``labels[i]``'s stripe and zeros everywhere else.  It is
        quantized to the fixed-point grid here, exactly as encryption would
        quantize it.
        """
        plan = self.noise_plan
        population = engine.population
        dims = plan.dimensions
        if series.shape != (population, plan.series_length):
            raise ValueError(
                f"series must be {(population, plan.series_length)}, "
                f"got {series.shape}"
            )
        if labels.shape != (population,):
            raise ValueError(f"labels must be {(population,)}, got {labels.shape}")

        # Everything up to the gossip is staged in ONE preallocated
        # (population, dims + 1) buffer — value columns plus the cleartext
        # counter — handed to the carrier without a copy: the payload
        # matrix is the dominant allocation at 10⁵–10⁶ nodes, and nothing
        # else of its size exists during the step.
        payload = np.empty((population, dims + 1))
        body = payload[:, :dims]

        # --- local noise-share generation (Alg. 3 l.4) -------------------
        plan.draw_shares(self.noise_rng, population, out=body)

        # --- background epidemic sums (Alg. 3 l.2 & l.5) -----------------
        self._add_means(body, labels, series)
        payload[:, -1] = 1.0
        eesum = self._aggregate(payload)
        del payload, body
        # One object-engine cycle yields ~2 exchange participations per node
        # (every online node initiates once and is contacted ~once); one
        # pairing cycle yields ~1.  The paper's n_e budget is *per-node
        # exchanges*, so the pairing plane runs twice the cycles.
        cycles = 2 * self.exchanges
        engine.run_cycles(cycles, eesum)

        # --- epidemic noise correction (Alg. 3 l.6) ----------------------
        holders = eesum.omega > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ctr_estimates = np.where(
                holders, eesum.values[:, -1] / eesum.omega, np.nan
            )
        proposal_ids = np.full(population, VectorizedMinId.NO_PROPOSAL, dtype=np.int64)
        n_holders = int(holders.sum())
        if n_holders:
            proposal_ids[holders] = engine.rng.integers(
                0, 1 << 62, size=n_holders, dtype=np.int64
            )
        dissemination = VectorizedMinId(proposal_ids)
        engine.run_cycles(cycles, dissemination)

        # --- epidemic decryption collection (Alg. 3 l.8-10) ---------------
        collection = VectorizedShareCollection(population, self.threshold)
        for _ in range(10 * cycles):
            engine.run_cycle(collection)
            if collection.all_done():
                break

        # --- decode (Alg. 3 l.10-11) ---------------------------------------
        output = ComputationOutput(plan.k, plan.series_length)
        sample = np.flatnonzero(holders)[: self.agreement_sample]
        if len(sample) == 0:
            return output
        opened = self._open(eesum, sample)
        # Correction payloads, materialized lazily per surviving identifier
        # (the winner's everywhere after a converged dissemination).  The
        # proposer of an identifier is resolved by a numpy scan — only one
        # or two distinct identifiers survive, so no per-node Python
        # structure is ever built.  The walk covers the whole sample, opened
        # or not, so the noise_rng stream advances identically on every
        # carrier.
        corrections: dict[int, np.ndarray] = {}
        stride = plan.series_length + 1
        for node in sample:
            final_id = int(dissemination.ids[node])
            if final_id != VectorizedMinId.NO_PROPOSAL and final_id not in corrections:
                proposer = int(np.flatnonzero(proposal_ids == final_id)[0])
                contributors = int(round(float(ctr_estimates[proposer])))
                corrections[final_id] = plan.correction(contributors, self.noise_rng)
            values = opened.get(int(node))
            if values is None:
                continue
            if final_id in corrections:
                values = values - corrections[final_id]
            grid = values.reshape(plan.k, stride)
            output.sums[int(node)] = grid[:, :-1]
            output.counts[int(node)] = grid[:, -1]
        return output


class VectorizedComputationStep(_ArrayComputationStep):
    """Algorithm 3 over the struct-of-arrays plane (mock-homomorphic).

    Executes the same four phases as :class:`ComputationStep` — epidemic
    encrypted means, epidemic noise, min-id surplus correction, epidemic
    decryption — but as whole-population array operations on the integer
    plane (``E(a) = a``), which is what makes 10⁵–10⁶ participants
    affordable.  Semantic deltas versus the object step, all documented and
    all validated or bounded:

    * means and noise are summed *before* the gossip instead of
      homomorphically after it — EESum is linear, so the converged result
      is identical (the object step itself relies on the same linearity
      when it rides both vectors on one exchange stream);
    * the cleartext counter ``ctr`` travels as one extra column of the
      EESum matrix (push–pull averaging and Alg. 2's delayed division are
      the same rule, App. C.2.1);
    * the min-id dissemination gossips identifiers and resolves payloads by
      identifier at decode time (exact — an identifier uniquely names its
      proposal);
    * the decryption phase models the share-collection latency
      (:class:`VectorizedShareCollection`); the mock plane's "decryption"
      itself is the identity.

    Decoding every node at 10⁶ × k·(n+1) would be pure waste; the step
    decodes the canonical node plus an ``agreement_sample`` of nodes so
    :meth:`ComputationOutput.agreement` still measures the epidemic spread.
    """

    def _aggregate(self, payload: np.ndarray) -> VectorizedEESum:
        return VectorizedEESum(payload, copy=False)

    def _open(
        self, eesum: VectorizedEESum, sample: np.ndarray
    ) -> dict[int, np.ndarray]:
        return {
            int(node): eesum.values[node, :-1] / eesum.omega[node]
            for node in sample
        }


class VectorizedCryptoComputationStep(_ArrayComputationStep):
    """Algorithm 3 over the struct-of-arrays plane with *real* ciphertexts.

    The missing quadrant: the vectorized engine's scaling with the object
    plane's genuine Damgård–Jurik crypto.  Each node's quantized
    means+noise payload is packed (:class:`~repro.crypto.encoding.
    PackedCodec` striping — one ciphertext amortizes ``slots`` counter
    values) and encrypted once; every gossip round's homomorphic work then
    runs as whole-round batches through a :class:`~repro.gossip.
    cipher_array.CipherEESum`; decryption is real Shoup threshold
    decryption of a decode sample, fused across the batch
    (:func:`~repro.crypto.threshold.combine_partial_decryptions_batch`).

    **Mock parity.**  The pipeline — and with it the ``noise_rng`` and
    engine-RNG consumption — is :class:`VectorizedComputationStep`'s own,
    the clear ω/ctr side is the mock protocol itself, and the decoded
    integers divide back to the very dyadic floats the mock plane carries
    — so decoded per-iteration results are bit-identical to a mock run of
    the same seed (pinned by the shadow-identity tests).  Only the first
    ``decode_sample`` nodes of the ``agreement_sample`` window pay real
    decryption.

    **Keypair.**  Decryption uses the first ``threshold`` dealer shares
    (the committee).  Decoded plaintexts are keypair-independent, so a
    committee-sized keypair (``n_shares`` capped far below the population
    — ``Δ = n_shares!`` must stay small) changes nothing downstream.

    Wall-clock spent inside crypto batch calls accumulates in
    ``crypto_seconds`` for the ``crypto_ms`` telemetry split.
    """

    def __init__(
        self,
        keypair: ThresholdKeypair,
        packed: PackedCodec,
        noise_plan: NoisePlan,
        exchanges: int,
        threshold: int,
        crypto_rng: random.Random,
        noise_rng: np.random.Generator,
        backend: CryptoBackend | None = None,
        agreement_sample: int = 64,
        decode_sample: int = 8,
    ) -> None:
        super().__init__(
            noise_plan, exchanges, threshold, noise_rng, agreement_sample
        )
        # Staged and decoded on the grid of the codec the plan built.
        self.fractional_bits = packed.fractional_bits
        self.keypair = keypair
        self.packed = packed
        self.crypto_rng = crypto_rng
        self.backend = backend or SerialBackend()
        self.decode_sample = decode_sample
        self.crypto_seconds = 0.0

    def _aggregate(self, payload: np.ndarray) -> CipherEESum:
        """Pack and encrypt the staged rows (Alg. 1 l.6 / Alg. 3 l.4 in one
        pass).  The counter column stays cleartext (the object plane's
        EpidemicSum is cleartext too); CipherEESum carries its own."""
        population, dims = payload.shape[0], payload.shape[1] - 1
        width = self.packed.packed_length(dims)
        flat_plaintexts = [
            plaintext
            for stripes in self.packed.pack(payload[:, :dims])
            for plaintext in stripes
        ]
        started = time.perf_counter()
        ciphertexts = self.backend.encrypt_batch(
            self.keypair.public, flat_plaintexts, self.crypto_rng
        )
        self.crypto_seconds += time.perf_counter() - started
        del flat_plaintexts
        rows = np.array(ciphertexts, dtype=object).reshape(population, width)
        del ciphertexts
        return CipherEESum(self.keypair.public, rows, backend=self.backend)

    def _open(self, eesum: CipherEESum, sample: np.ndarray) -> dict[int, np.ndarray]:
        """Real threshold decryption of the first ``decode_sample`` nodes."""
        decode_nodes = sample[: max(1, self.decode_sample)]
        context = self.keypair.context
        committee = self.keypair.shares[: context.threshold]
        flat = eesum.array.rows[decode_nodes].ravel()
        started = time.perf_counter()
        partials = {
            share.index: self.backend.partial_decrypt_batch(
                context, share, flat
            )
            for share in committee
        }
        plaintexts = combine_partial_decryptions_batch(context, partials)
        self.crypto_seconds += time.perf_counter() - started
        self.crypto_seconds += eesum.crypto_seconds  # gossip is over by now

        width = eesum.array.width
        dims = self.noise_plan.dimensions
        opened: dict[int, np.ndarray] = {}
        for slot, node in enumerate(decode_nodes):
            # The coefficient total is C = 2^count (Alg. 2 doubles it on
            # every exchange), so V = σ·2^{count+f} exactly; int/int true
            # division is correctly rounded, so in the dyadic regime the
            # floats are the mock's.
            count = int(eesum.count[node])
            row = plaintexts[slot * width : (slot + 1) * width]
            ints = self.packed.unpack_integers(row, dims, bias_multiplier=1 << count)
            shift = 1 << (count + self.fractional_bits)
            values = np.array([v / shift for v in ints], dtype=float)
            opened[int(node)] = values / eesum.omega[node]
        return opened


class CentralComputationStep:
    """Algorithm 3's release by one trusted curator: the quality plane.

    Sec. 6.1 evaluates quality with "a perturbed centralized k-means"; by
    App. B the protocol releases the same perturbed aggregates, so this step
    stands in for all four phases.  It owns the churn subsample (each series
    sits the iteration out with probability ``churn``; one always stays),
    the true sums and counts, each series counted ``population_scale``
    times (``docs/ARCHITECTURE.md``, "Calibration"), and the Lemma 2 error
    model (:func:`~repro.privacy.probabilistic.lemma2_perturb`).  Sums and
    counts are drawn at ``NoisePlan.scale``, the protocol's joint scale,
    from ``noise_rng``: churn mask, [sums' error], sums' noise, [counts'
    error], counts' noise.  The output holds one node, 0.
    """

    #: This step times no crypto (see ``IterationRecord.crypto_ms``).
    crypto_seconds: float | None = None

    def __init__(
        self,
        noise_plan: NoisePlan,
        noise_rng: np.random.Generator,
        churn: float,
        population_scale: int,
        gossip_e_max: float,
    ) -> None:
        self.noise_plan = noise_plan
        self.noise_rng = noise_rng
        self.churn = churn
        self.population_scale = float(population_scale)
        self.gossip_e_max = gossip_e_max
        #: How many series the last release covers (after the churn subsample).
        self.active_series: int | None = None

    def run(
        self, engine: None, labels: np.ndarray, series: np.ndarray
    ) -> ComputationOutput:
        """Release the perturbed ``(sums, counts)`` of ``labels``' clusters."""
        del engine  # nothing gossips
        rng = self.noise_rng
        if self.churn > 0:
            keep = rng.random(len(series)) >= self.churn
            if not keep.any():
                keep[rng.integers(len(series))] = True
            labels, series = labels[keep], series[keep]
        self.active_series = len(series)

        plan = self.noise_plan
        means, counts = compute_means(series, labels, plan.k)
        sums = np.nan_to_num(means, nan=0.0) * counts[:, None]
        sums *= self.population_scale
        counts *= self.population_scale
        release = (plan.sensitivity, plan.epsilon, self.gossip_e_max, rng)
        output = ComputationOutput(plan.k, plan.series_length)
        output.sums[0] = lemma2_perturb(sums, *release)
        output.counts[0] = lemma2_perturb(counts, *release)
        return output
