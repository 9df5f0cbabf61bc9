"""The full Chiaroscuro execution sequence (Algorithm 1) — one loop, four substrates.

This orchestrates the loop every participant runs:

    while not converged and n_it ≤ n_it^max:
        assignment step   (local, cleartext)
        computation step  (Algorithm 3 — one pipeline, a carrier per plane)
        convergence step  (local, cleartext)

written once (:meth:`ChiaroscuroRun.run_iter`) over one of four
simulation substrates, selected by ``ChiaroscuroRun(..., plane=)``:

* ``"quality"`` — no gossip: Sec. 6.1's "perturbed centralized k-means",
  whose step (:class:`repro.core.computation.CentralComputationStep`)
  releases the aggregates App. B says the protocol delivers, at the
  protocol's noise scale — the plane behind Figs. 2–3;
* ``"object"`` — the cycle-driven gossip engine with genuine Damgård–Jurik
  threshold cryptography (:class:`repro.core.computation.ComputationStep`,
  the Algorithm 3 pipeline carrying per-node ciphertext objects).  The
  "strong proof of concept" plane: faithful down to the ciphertext algebra,
  sized for populations of tens-to-hundreds of devices (the paper's
  Peersim plane had the same reach);
* ``"vectorized"`` — the struct-of-arrays engine over the mock-homomorphic
  integer plane (:class:`repro.core.computation.VectorizedComputationStep`).
  Full Algorithm 2/EpiDis/collection semantics as whole-population array
  operations, sized for the paper's 10⁵–10⁶-participant Figs. 3–4 curves.
  Validated against the object plane by shadow-execution equivalence tests
  at small populations (``tests/gossip``);
* ``"vectorized-crypto"`` — the struct-of-arrays engine carrying *real*
  packed Damgård–Jurik ciphertexts (:class:`repro.core.computation.
  VectorizedCryptoComputationStep` over :class:`repro.gossip.cipher_array.
  CipherEESum`): every exchange round's homomorphic algebra runs as
  whole-round bigint batches, shardable over the process-pool crypto
  backend.  Decoded results are bit-identical to the mock plane at the
  same seed; per-iteration ``crypto_ms`` telemetry splits out the
  ciphertext cost.

The run keeps one canonical trace (the smallest-id weighted node's view —
all nodes agree up to the epidemic approximation error, which is recorded
per iteration as ``IterationRecord.agreement``) and enforces the
iteration-capped termination criterion of Sec. 4.2.4 plus the budget
strategy's own bound.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .. import lazy
from ..clustering.distance import assign_to_closest
from ..clustering.inertia import intra_inertia
from ..clustering.kmeans import compress_labels, compute_means
from ..crypto import bigint
from ..datasets.timeseries import TimeSeriesSet
from ..gossip.vectorized_protocol import VectorizedGossipEngine, pairing_cycles
from ..privacy.accountant import PrivacyAccountant
from ..privacy.budget import BudgetStrategy
from .computation import (
    CentralComputationStep,
    ComputationStep,
    VectorizedComputationStep,
    VectorizedCryptoComputationStep,
)
from .config import ChiaroscuroParams
from .noise import NoisePlan
from .results import IterationRecord, IterationStats
from .smoothing import sma_smooth

if TYPE_CHECKING:
    from ..api.checkpoint import Checkpoint
    from ..crypto.threshold import ThresholdKeypair

# The real-ciphertext planes' names (repro.lazy): the mock loop imports none.
create_backend = lazy.defer(__name__, "..crypto.backend", "create_backend")
FastEncryptor = lazy.defer(__name__, "..crypto.damgard_jurik", "FastEncryptor")
generate_threshold_keypair = lazy.defer(
    __name__, "..crypto.threshold", "generate_threshold_keypair"
)
GossipEngine = lazy.defer(__name__, "..gossip.engine", "GossipEngine")

__all__ = ["ChiaroscuroRun", "PROTOCOL_PLANES"]

#: The substrates that gossip — and so the ones a fault plan can attack.
PROTOCOL_PLANES = ("object", "vectorized", "vectorized-crypto")


class ChiaroscuroRun:
    """One full protocol execution over a (small) population of devices.

    The threshold key (dealt here unless ``keypair`` is given) has
    ``params.key_bits`` and the Damgård–Jurik expansion
    ``params.expansion_s``; a real-crypto run whose plaintext space cannot
    hold one packed slot at the worst-case EESum scaling is refused at
    construction (``NoisePlan.codec`` raises ``ValueError``).  ``plane``
    is the substrate, ``"quality"`` or one of :data:`PROTOCOL_PLANES`
    (module docstring); ``gossip_e_max`` is the quality plane's Lemma 2
    error model (:class:`~repro.core.computation.CentralComputationStep`).
    """

    def __init__(
        self,
        dataset: TimeSeriesSet,
        strategy: BudgetStrategy,
        params: ChiaroscuroParams,
        initial_centroids: np.ndarray,
        seed: int = 0,
        keypair: ThresholdKeypair | None = None,
        cycle_hook: Callable[[int, int], None] | None = None,
        fault_plan=None,
        plane: str = "object",
        gossip_e_max: float = 0.0,
    ) -> None:
        planes = ("quality", *PROTOCOL_PLANES)
        if plane not in planes:
            raise ValueError(f"plane must be one of {', '.join(map(repr, planes))}")
        self.plane = plane
        self.gossip_e_max = gossip_e_max
        self.dataset = dataset
        self.strategy = strategy
        self.params = params
        self.initial_centroids = np.asarray(initial_centroids, dtype=float)
        self.seed = seed
        self.crypto_rng = random.Random(seed)
        self.noise_rng = np.random.default_rng(seed + 1)
        # Resolve the spec'd bigint kernel up front (loud failure on an
        # uninstalled gmpy2 request) without mutating the process-global
        # selection: key/table construction below and every protocol
        # iteration run inside use_backend(self.bigint_backend), so an
        # explicit per-run choice cannot leak into later "auto" runs in
        # the same process.  "auto" keeps the process's active kernel
        # (env-var/import-time resolution, or a programmatic
        # select_backend/use_backend).  Either kernel is result-neutral —
        # both are exact integer arithmetic.
        if params.bigint_backend == "auto":
            self.bigint_backend = bigint.active_backend()
        else:
            self.bigint_backend = bigint.resolve_backend(params.bigint_backend)
        # Observability hook handed to every per-iteration gossip engine:
        # called after each cycle with (cycle_index, exchanges_in_cycle).
        self.cycle_hook = cycle_hook
        # Optional FaultPlan (repro.faults): the protocol never reads it —
        # it only wraps the per-iteration engine and the computation output
        # at the two seams below, so fault-free runs are bit-identical.
        self.fault_plan = fault_plan

        # Defaults are the mock-homomorphic substrate's ("vectorized"): no
        # key material — the whole population lives in arrays.
        self.keypair = keypair
        self.packed = None
        self.encryptor = None
        self.backend = None
        #: The ε ledger of the current (or latest) ``run_iter``.
        self.accountant = PrivacyAccountant(epsilon_budget=strategy.epsilon)

        population = dataset.t
        tau = params.tau_count(population)
        # The run's one release plan, from public parameters only: every
        # plane quantizes on its grid, and the codec holds its worst slice.
        bound = strategy.max_iterations() or params.max_iterations
        slices = tuple(strategy.schedule(min(params.max_iterations, bound)))
        self.noise_plan = NoisePlan(
            k=params.k,
            series_length=dataset.n,
            dmin=dataset.dmin,
            dmax=dataset.dmax,
            epsilon=slices[0],
            n_nu=params.noise_share_count(population),
            slices=slices,
        )
        if plane in ("object", "vectorized-crypto"):
            # Real packed Damgård–Jurik ciphertexts.  On vectorized-crypto
            # the key material is committee-sized, not population-sized:
            # Shoup combination carries Δ = n_shares! in its exponents,
            # which explodes past a few dozen shares — and decoded
            # plaintexts are keypair-independent, so a small committee
            # dealing the key changes nothing downstream.  The epidemic
            # share collection still runs against the population's τ.
            shares = population if plane == "object" else min(population, 16)
            self._ensure_keypair(shares, min(tau, shares))
            # A node takes part in at most one exchange per delivered batch
            # of disjoint pairs, so Alg. 2's counter — and with it the
            # packed coefficient mass C = 2^count — is at most the phase's
            # cycles times the batches a cycle delivers (one, unless a
            # fault plan duplicates or delays messages).  Both planes sum a
            # node's means and noise share on the fixed-point grid before
            # its one encryption, so one biased vector carries that mass.
            batches = 1 if fault_plan is None else fault_plan.batches_per_cycle
            self.packed = self.noise_plan.codec(
                self.keypair.public,
                exchanges=pairing_cycles(params.exchanges) * batches,
            )
            # Per node and iteration: one packed vector.
            self._build_backend(self.packed.packed_length(self.noise_plan.dimensions))
        if self.fault_plan is not None:
            self.fault_plan.bind_run(self)

    def _ensure_keypair(self, n_shares: int, threshold: int) -> None:
        """Deal the run's threshold key unless the caller supplied one."""
        if self.keypair is None:
            with bigint.use_backend(self.bigint_backend):
                self.keypair = generate_threshold_keypair(
                    self.params.key_bits,
                    n_shares=n_shares,
                    threshold=threshold,
                    s=self.params.expansion_s,
                    rng=self.crypto_rng,
                )

    def _build_backend(self, ciphertexts_per_node: int) -> None:
        """The run's table-backed encryptor behind the configured execution
        backend.  The run knows how many encryptions it can ask for at most
        (every device, every iteration), which is what sizes the table."""
        params = self.params
        uses = self.dataset.t * ciphertexts_per_node * params.max_iterations
        with bigint.use_backend(self.bigint_backend):
            self.encryptor = FastEncryptor(
                self.keypair.public, self.crypto_rng, expected_uses=uses
            )
        self.backend = create_backend(
            params.crypto_backend,
            workers=params.backend_workers,
            encryptor=self.encryptor,
        )

    def run_iter(
        self, churn: float = 0.0, resume: Checkpoint | None = None
    ) -> Iterator[IterationRecord]:
        """Algorithm 1 as a generator of per-iteration steps (every plane).

        Yields one :class:`IterationRecord` per completed iteration — the
        streaming primitive for progress reporting, early stopping, and
        checkpointing.  ``resume`` is the state log's last record: both
        streams and the centroids are restored from it, budget charges for
        the prefix are replayed (deterministic) and the loop continues
        after its iteration.  The backend is released when the generator
        finishes or is closed.
        """
        first = 1
        if resume is not None:
            self.noise_rng.bit_generator.state = resume.rng_state
            self.crypto_rng.setstate(resume.crypto_state)
            self.initial_centroids = resume.stats.centroids
            first = resume.stats.iteration + 1
        params = self.params
        dataset = self.dataset
        accountant = self.accountant = PrivacyAccountant(
            epsilon_budget=self.strategy.epsilon
        )
        centroids = self.initial_centroids.copy()
        window, do_smooth = params.smoothing_plan(dataset.n)

        try:
            for iteration, epsilon_i in accountant.charged_schedule(
                self.strategy, params.max_iterations, first
            ):
                # The run's bigint kernel is active only while this iteration
                # computes and is restored before every yield — interleaved
                # generators of runs with different kernels never see each
                # other's selection, and nothing leaks into later runs.
                with bigint.use_backend(self.bigint_backend):
                    engine = self._new_engine(iteration, churn)
                    # Assignment step (Alg. 1 l.5-6): the labels *are* the
                    # cleartext initialization — a gossiping step stages
                    # series i and a count of 1 in its cluster's stripe, the
                    # central step sums each cluster's series — so the
                    # t × k·(n+1) means matrix is never built.
                    labels = assign_to_closest(dataset.values, centroids)

                    # Computation step (Algorithm 3).
                    plan = replace(
                        self.noise_plan, k=len(centroids), epsilon=epsilon_i
                    )
                    step = self._computation_step(plan, churn)
                    output = step.run(engine, labels, dataset.values)
                    if self.fault_plan is not None:
                        output = self.fault_plan.observe_output(output, iteration)
                    if not output.sums:
                        return

                    advanced = self._advance_centroids(
                        output, centroids, labels, iteration, epsilon_i,
                        do_smooth, window,
                    )
                if advanced is None:
                    return
                stats, converged = advanced
                centroids = stats.centroids
                seconds = step.crypto_seconds
                gossiped = engine is not None
                yield IterationRecord(
                    stats=stats,
                    converged=converged,
                    epsilon_spent_total=accountant.spent,
                    epsilon_remaining=accountant.remaining,
                    active_series=step.active_series,
                    agreement=output.agreement() if gossiped else None,
                    exchanges_per_node=(
                        engine.mean_exchanges_per_node if gossiped else None
                    ),
                    crypto_ms=None if seconds is None else seconds * 1000.0,
                    rng_state=self.noise_rng.bit_generator.state,
                    crypto_state=self.crypto_rng.getstate(),
                )
                if converged:
                    return
        finally:
            self.close()

    def _new_engine(self, iteration: int, churn: float):
        """The iteration's gossip engine (own seed, so no shared RNG moves);
        ``None`` on the quality plane, where nothing gossips."""
        if self.plane == "quality":
            return None
        seed = self.seed + 1000 * iteration
        engine_class = GossipEngine if self.plane == "object" else VectorizedGossipEngine
        engine = engine_class(self.dataset.t, seed=seed, churn=churn)
        engine.on_cycle = self.cycle_hook
        if self.fault_plan is not None:
            engine = self.fault_plan.wrap_engine(engine, iteration)
        return engine

    def _computation_step(self, plan: NoisePlan, churn: float):
        """The plane's Algorithm 3 implementation for one iteration."""
        if self.plane == "quality":
            return CentralComputationStep(
                plan, self.noise_rng, churn, self.dataset.population_scale,
                self.gossip_e_max,
            )
        params = self.params
        common = dict(
            noise_plan=plan, exchanges=params.exchanges, noise_rng=self.noise_rng
        )
        crypto = dict(
            keypair=self.keypair,
            packed=self.packed,
            crypto_rng=self.crypto_rng,
            backend=self.backend,
        )
        if self.plane == "object":
            return ComputationStep(**crypto, **common)
        common.update(threshold=params.tau_count(self.dataset.t))
        if self.plane == "vectorized":
            return VectorizedComputationStep(**common)
        return VectorizedCryptoComputationStep(**crypto, **common)

    def _advance_centroids(
        self,
        output,
        centroids: np.ndarray,
        labels: np.ndarray,
        iteration: int,
        epsilon_i: float,
        do_smooth: bool,
        window: int,
    ) -> tuple[IterationStats, bool] | None:
        """Canonical post-processing (every node does the same locally).

        Shared by every substrate: decode the canonical node's perturbed
        means, drop lost clusters, smooth, measure the iteration's quality
        stats over the whole dataset and apply the θ convergence test.
        Returns ``(stats, converged)`` — ``stats.centroids`` are the next
        centroids — or ``None`` when every cluster was lost (the run ends
        without a recordable iteration).  ``labels`` is the assignment
        step's result, so the t × k argmin (the dominant cleartext cost at
        10⁵–10⁶ participants) runs once per iteration.
        """
        params = self.params
        values = self.dataset.values
        canonical = min(output.sums)
        means, counts = output.perturbed_means(canonical)
        survive = counts > 0.5  # counts are perturbed reals; lost below
        if not survive.any():
            return None
        perturbed = means[survive]
        if do_smooth:
            perturbed = sma_smooth(perturbed, window)

        # PRE: the current partition against its true (local) means.
        true_means, true_counts = compute_means(values, labels, len(centroids))
        alive = true_counts > 0
        true_pre = float(intra_inertia(
            values, true_means[alive], compress_labels(labels, alive)
        ))
        # POST, without re-assignment: a series keeps its cluster; one whose
        # cluster was lost — "ignored de facto" (footnote 8) — is measured
        # against its closest surviving centroid.
        if survive.all():
            post_labels = labels
        else:
            post_labels = np.where(
                survive[labels],
                compress_labels(labels, survive),
                assign_to_closest(values, perturbed),
            )
        post = intra_inertia(values, perturbed, post_labels)

        stats = IterationStats(
            iteration=iteration,
            pre_inertia=true_pre,
            post_inertia=float(post),
            n_centroids=int(survive.sum()),
            epsilon_spent=epsilon_i,
            centroids=perturbed,
        )

        converged = False
        if params.theta > 0 and perturbed.shape == centroids.shape:
            displacement = float(np.mean((perturbed - centroids) ** 2))
            converged = displacement < params.theta
        return stats, converged

    def close(self) -> None:
        """Release backend resources (worker pools); the run can be reused —
        a process-pool backend re-creates its executor lazily."""
        if self.backend is not None:
            self.backend.close()
