"""Shadow-execution equivalence: vectorized plane vs object engine.

The struct-of-arrays plane must reproduce the object engine's full
protocol semantics *exactly*.  The tests draw the pairing schedule from
the vectorized engine (``run_cycle`` returns it), replay the identical
schedule on the object engine via ``GossipEngine.run_pairing_cycle``, and
assert identity of:

* the EESum delayed-division integers (the mock-homomorphic ciphertexts),
* the scaled ω-weights and the shared exchange counters,
* the decoded sum estimates (bit-equal floats),
* the dissemination identifiers,
* the per-node exchange participation counts,

under churn, at n ∈ {64, 256}.  Inputs sit on a coarse fixed-point grid
and cycle counts stay small enough that every dyadic numerator fits a
float64 mantissa — the regime where both planes are exactly comparable
(:func:`scaled_state` raises loudly if that ever stops being true).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.crypto import quantize_to_grid
from repro.gossip import (
    EESum,
    EpidemicSum,
    GossipEngine,
    MinIdDissemination,
    MockHomomorphicOps,
    VectorizedEESum,
    VectorizedGossipEngine,
    VectorizedMinId,
    VectorizedShareCollection,
)

FRACTIONAL_BITS = 8
CYCLES = 20


def scaled_state(
    eesum: VectorizedEESum, node: int, fractional_bits: int = 0
) -> tuple[list[int], int]:
    """The node's object-plane integers ``(v·2^{count+f}, ω·2^count)``.

    Exact big-int materialization (via ``Fraction``) of the delayed-division
    integers the object engine would hold.  Raises if the normalized floats
    have left the dyadic grid (float64 rounding occurred and the two planes
    are no longer bit-comparable).
    """
    count = int(eesum.count[node])
    scaled = []
    for value in eesum.values[node]:
        exact = Fraction(value) * (1 << (count + fractional_bits))
        if exact.denominator != 1:
            raise ValueError(
                "normalized value is no longer dyadic at this scale — "
                "float64 mantissa exhausted, exact comparison impossible"
            )
        scaled.append(int(exact))
    omega = Fraction(eesum.omega[node]) * (1 << count)
    if omega.denominator != 1:
        raise ValueError("omega is no longer dyadic — mantissa exhausted")
    return scaled, int(omega)


def _shadow_pair(population: int, churn: float, seed: int, dims: int = 3):
    """Run both planes on one shared schedule; return everything to compare."""
    rng = np.random.default_rng(seed)
    # Values on the 2^-8 grid, small magnitudes: numerators stay well under
    # the 53-bit float64 mantissa for CYCLES <= ~25.
    values = quantize_to_grid(
        rng.uniform(-4.0, 4.0, size=(population, dims)), FRACTIONAL_BITS
    )
    ids = rng.integers(0, 1 << 62, size=population).astype(np.int64)
    # ~1/4 of the nodes propose nothing (the noise-correction scenario where
    # only counter-holding nodes propose).
    no_proposal = rng.random(population) < 0.25
    ids[no_proposal] = VectorizedMinId.NO_PROPOSAL

    vec_engine = VectorizedGossipEngine(population, seed=seed + 1, churn=churn)
    vec_eesum = VectorizedEESum(values)
    vec_minid = VectorizedMinId(ids)

    encoded = np.round(values * (1 << FRACTIONAL_BITS)).astype(object)
    obj_engine = GossipEngine(population, seed=seed + 2)
    obj_eesum = EESum(
        None,
        {i: [int(v) for v in encoded[i]] for i in range(population)},
        ops=MockHomomorphicOps(),
    )
    obj_counter = EpidemicSum({i: np.array([1.0]) for i in range(population)})
    obj_minid = MinIdDissemination(
        {
            i: (int(ids[i]), f"payload-{i}")
            for i in range(population)
            if ids[i] != VectorizedMinId.NO_PROPOSAL
        }
    )
    obj_engine.setup(obj_eesum, obj_counter, obj_minid)

    for _ in range(CYCLES):
        left, right = vec_engine.run_cycle(vec_eesum, vec_minid)
        obj_engine.run_pairing_cycle(
            left, right, obj_eesum, obj_counter, obj_minid
        )

    return vec_engine, vec_eesum, vec_minid, obj_engine, obj_eesum, obj_counter, obj_minid


@pytest.mark.parametrize("population", [64, 256])
@pytest.mark.parametrize("churn", [0.0, 0.25])
def test_eesum_dissemination_churn_equivalence(population, churn):
    (
        vec_engine,
        vec_eesum,
        vec_minid,
        obj_engine,
        obj_eesum,
        obj_counter,
        obj_minid,
    ) = _shadow_pair(population, churn, seed=population + int(churn * 100))

    exchanged_someone = False
    for node in obj_engine.nodes:
        i = node.node_id
        state = obj_eesum.state_of(node)

        # Shared counters and exchange participation counts are identical.
        assert state.count == int(vec_eesum.count[i])
        assert obj_engine.exchanges[i] == vec_engine.exchanges[i]

        # The delayed-division integers themselves are identical: the
        # vectorized plane re-materializes v·2^{count+f} exactly.
        scaled_values, scaled_omega = scaled_state(vec_eesum, i, FRACTIONAL_BITS)
        assert scaled_values == state.ciphertexts
        assert scaled_omega == state.omega

        # Decoded sum estimates are bit-equal floats where ω > 0.
        if state.omega > 0:
            exchanged_someone = True
            decoded = np.array(
                [
                    _decode(c, state.count, FRACTIONAL_BITS) / (state.omega / 2.0**state.count)
                    for c in state.ciphertexts
                ]
            )
            estimate = vec_eesum.estimates(np.array([i]))[0]
            assert np.array_equal(decoded, estimate)

        # Dissemination: identical identifier beliefs (None ↔ NO_PROPOSAL).
        belief = obj_minid.value_of(node)
        if belief is None:
            assert vec_minid.ids[i] == VectorizedMinId.NO_PROPOSAL
        else:
            assert belief[0] == int(vec_minid.ids[i])

    assert exchanged_someone


def _decode(ciphertext: int, count: int, fractional_bits: int) -> float:
    """Mock-plane decode: descale the delayed divisions + fixed point."""
    return ciphertext / 2.0**count / float(1 << fractional_bits)


@pytest.mark.parametrize("population", [64, 256])
def test_cleartext_counter_equivalence(population):
    """The EpidemicSum counter and the EESum ω spread identically — the
    vectorized plane's single-matrix trick (counter as an extra column)
    matches the object plane's separate protocol."""
    (
        _vec_engine,
        vec_eesum,
        _vec_minid,
        obj_engine,
        _obj_eesum,
        obj_counter,
        _obj_minid,
    ) = _shadow_pair(population, churn=0.1, seed=population)

    for node in obj_engine.nodes:
        clear = node.state["episum"]
        assert clear["omega"] == vec_eesum.omega[node.node_id]


class TestVectorizedMinId:
    def test_converged_mirrors_object_semantics(self):
        ids = np.array([5, 9, VectorizedMinId.NO_PROPOSAL, 7], dtype=np.int64)
        protocol = VectorizedMinId(ids)
        assert not protocol.converged()
        engine = VectorizedGossipEngine(4, seed=12)
        for _ in range(12):
            engine.run_cycle(protocol)
            if protocol.converged():
                break
        assert protocol.converged()
        assert (protocol.ids == 5).all()

    def test_all_silent_population_never_converges(self):
        ids = np.full(4, VectorizedMinId.NO_PROPOSAL, dtype=np.int64)
        protocol = VectorizedMinId(ids)
        engine = VectorizedGossipEngine(4, seed=13)
        engine.run_cycles(5, protocol)
        assert not protocol.converged()


class TestVectorizedEngine:
    def test_pairing_is_disjoint(self):
        engine = VectorizedGossipEngine(1001, seed=3, churn=0.2)
        for _ in range(5):
            left, right, idle = engine.draw_pairing()
            both = np.concatenate([left, right])
            assert len(np.unique(both)) == len(both)
            assert engine.online[both].all()
            # The idle node is the online one the pairing left out.
            assert len(idle) == engine.online.sum() % 2
            assert np.array_equal(
                np.sort(np.concatenate([both, idle])), np.flatnonzero(engine.online)
            )

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            VectorizedGossipEngine(1)

    def test_exchange_counting(self):
        """Every node is counted once per pair it joined: an odd population
        leaves one idle node per cycle, churn leaves the offline ones out."""
        cases = [(100, 0.0), (101, 0.0), (3, 0.0), (100, 0.3), (101, 0.3)]
        for population, churn in cases:
            engine = VectorizedGossipEngine(population, seed=4, churn=churn)
            paired = []
            for _ in range(6):
                left, right = engine.run_cycle()
                paired += [left, right]
            total = sum(len(side) for side in paired) // 2
            if churn == 0.0:
                assert total == 6 * (population // 2)
            assert engine.exchanges.sum() == 2 * total
            assert np.array_equal(
                engine.exchanges,
                np.bincount(np.concatenate(paired), minlength=population),
            )

    def test_exchange_counting_counts_the_pairs_a_faulty_network_drew(self):
        """Under a lossy network the engine counts every drawn pair once —
        the sends attempted — not only the pairs that were delivered."""
        from repro.faults import NetworkFault
        from repro.faults.engines import FaultyEngine
        from repro.faults.plan import FaultPlan

        class Recorder:
            def __init__(self):
                self.pairs = []

            def exchange_pairs(self, left, right):
                self.pairs += [left, right]

        config = NetworkFault(loss=0.3)
        plan = FaultPlan([("network", config)], seed=4)
        plan.injectors = [config.build(np.random.default_rng(4))]
        engine = FaultyEngine(
            VectorizedGossipEngine(101, seed=4, churn=0.3), plan, iteration=1
        )
        recorder = Recorder()
        drawn = []
        for _ in range(6):
            drawn += engine.run_cycle(recorder)
        drawn = np.concatenate(drawn)
        ran = np.concatenate(recorder.pairs)
        assert 0 < len(ran) < len(drawn) < 2 * 6 * 50
        assert engine.exchanges.sum() == len(drawn)
        assert np.array_equal(engine.exchanges, np.bincount(drawn, minlength=101))

    def test_full_churn_cycle_is_empty(self):
        engine = VectorizedGossipEngine(50, seed=5, churn=0.999)
        total = engine.run_cycles(3)
        assert total <= 3  # occasionally two nodes survive a cycle


def _relative_error(eesum: VectorizedEESum, exact: float) -> float:
    """Worst relative error of the first column (inf while some ω is 0)."""
    estimates = eesum.estimates()[:, 0]
    if np.isnan(estimates).any():
        return float("inf")
    return float(np.abs(estimates - exact).max() / abs(exact))


class TestEpidemicSumOnTheEngine:
    """Push–pull averaging as the engine + :class:`VectorizedEESum` run it
    (Figs. 3(b), 4(a) are measured on exactly this pair)."""

    def test_converges_to_sum(self):
        engine = VectorizedGossipEngine(1000, seed=0)
        eesum = VectorizedEESum(np.ones(1000))
        engine.run_cycles(60, eesum)
        assert _relative_error(eesum, 1000) < 1e-6

    def test_error_tail_after_seventy_cycles(self):
        engine = VectorizedGossipEngine(2000, seed=5)
        eesum = VectorizedEESum(np.ones(2000))
        engine.run_cycles(70, eesum)
        assert _relative_error(eesum, 2000) < 1e-8

    def test_custom_data(self):
        data = np.arange(100, dtype=float)
        engine = VectorizedGossipEngine(100, seed=2)
        eesum = VectorizedEESum(data)
        engine.run_cycles(60, eesum)
        assert np.allclose(eesum.estimates(), data.sum(), rtol=1e-6)

    def test_mass_conservation(self):
        engine = VectorizedGossipEngine(512, seed=1)
        eesum = VectorizedEESum(np.ones(512))
        for _ in range(10):
            engine.run_cycle(eesum)
            assert eesum.values.sum() == pytest.approx(512.0)
            assert eesum.omega.sum() == pytest.approx(1.0)

    def test_churn_slows_but_converges(self):
        clean_engine = VectorizedGossipEngine(1000, seed=3)
        churned_engine = VectorizedGossipEngine(1000, seed=3, churn=0.5)
        clean, churned = VectorizedEESum(np.ones(1000)), VectorizedEESum(np.ones(1000))
        clean_engine.run_cycles(40, clean)
        churned_engine.run_cycles(40, churned)
        assert _relative_error(clean, 1000) < _relative_error(churned, 1000)
        # Fig. 3(b): even 50 % churn keeps the error a negligible fraction.
        churned_engine.run_cycles(60, churned)
        assert _relative_error(churned, 1000) < 1e-3

    def test_messages_accounting(self):
        engine = VectorizedGossipEngine(100, seed=4)
        engine.run_cycle(VectorizedEESum(np.ones(100)))
        # Every paired node logs one message per cycle.
        assert 0 < engine.mean_exchanges_per_node <= 1.0

    @pytest.mark.parametrize(
        "churn, error, messages",
        [(0.1, 0.0003676943259622931, 45.019), (0.5, 0.5604575008269568, 25.031)],
    )
    def test_pinned_to_the_retired_cleartext_simulator(self, churn, error, messages):
        """What the cleartext push–pull simulator (10⁴ nodes, seed 3) read after
        50 cycles at the commit that deleted it: same draws, same bits."""
        engine = VectorizedGossipEngine(10_000, seed=3, churn=churn)
        eesum = VectorizedEESum(np.ones(10_000))
        engine.run_cycles(50, eesum)
        assert _relative_error(eesum, 10_000) == error
        assert engine.mean_exchanges_per_node == messages


class TestEngineChurn:
    def test_churn_range_enforced(self):
        for churn in (1.0, -0.1):
            with pytest.raises(ValueError):
                VectorizedGossipEngine(10, churn=churn)

    def test_zero_churn_consumes_no_rng(self):
        """A churn-free cycle draws the pairing and nothing else: checkpointed
        engine streams and every protocol digest depend on it."""
        engine = VectorizedGossipEngine(1000, seed=7)
        engine.run_cycle()
        untouched = np.random.default_rng(7)
        untouched.permutation(np.arange(1000))
        assert engine.online.all()
        assert engine.rng.bit_generator.state == untouched.bit_generator.state
        assert np.array_equal(engine.rng.random(8), untouched.random(8))


class TestVectorizedShareCollection:
    def test_matches_token_semantics_shape(self):
        """Replacement + mutual application: counts grow by at most one per
        cycle and stop exactly at the threshold."""
        engine = VectorizedGossipEngine(500, seed=6)
        protocol = VectorizedShareCollection(500, threshold=30)
        previous = protocol.shares.copy()
        for _ in range(50):
            engine.run_cycle(protocol)
            assert (protocol.shares <= 30).all()
            assert (protocol.shares >= previous).all()
            previous = protocol.shares.copy()
        assert protocol.all_done()

    def test_latency_matches_object_engine_order(self):
        """Collection latency agrees with TokenDecryption within 2× at a
        shared population/threshold (the plane's documented approximation
        only drops duplicate share ids)."""
        from repro.gossip import TokenDecryption

        population, tau = 400, 40
        obj_engine = GossipEngine(population, seed=7)
        token = TokenDecryption(threshold_count=tau)
        obj_engine.setup(token)
        cycles_obj = 0
        while token.fraction_done(obj_engine.nodes) < 1.0 and cycles_obj < 500:
            obj_engine.run_cycle(token)
            cycles_obj += 1
        obj_messages = obj_engine.mean_exchanges_per_node

        vec_engine = VectorizedGossipEngine(population, seed=7)
        collection = VectorizedShareCollection(population, tau)
        cycles_vec = 0
        while not collection.all_done() and cycles_vec < 1000:
            vec_engine.run_cycle(collection)
            cycles_vec += 1
        vec_messages = vec_engine.mean_exchanges_per_node

        assert vec_messages == pytest.approx(obj_messages, rel=1.0)
