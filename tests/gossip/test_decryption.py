"""Tests for the epidemic threshold decryption (real and token planes)."""

import random

import pytest

from repro.crypto import PackedCodec, encrypt
from repro.gossip import EpidemicDecryption, GossipEngine, TokenDecryption


class TestEpidemicDecryption:
    def _run(self, tk, values, population, cycles=30, seed=0, backend=None):
        rng = random.Random(seed)
        ciphertexts = [encrypt(tk.public, v, rng=rng) for v in values]
        bundles = {i: (list(ciphertexts), 1, 0) for i in range(population)}
        shares = {i: tk.shares[i % len(tk.shares)] for i in range(population)}
        engine = GossipEngine(population, seed=seed)
        protocol = EpidemicDecryption(tk.context, bundles, shares, backend=backend)
        engine.setup(protocol)
        for _ in range(cycles):
            engine.run_cycle(protocol)
            if protocol.all_done(engine.nodes):
                break
        return engine, protocol

    def test_all_nodes_decrypt(self, threshold_keypair):
        values = [111, 222, 333]
        engine, protocol = self._run(threshold_keypair, values, population=9)
        assert protocol.all_done(engine.nodes)
        for node in engine.nodes:
            plaintexts, omega, count = protocol.plaintexts_of(node)
            assert plaintexts == values
            assert (omega, count) == (1, 0)

    def test_own_share_applied_at_setup(self, threshold_keypair):
        engine, protocol = self._run(threshold_keypair, [5], population=9, cycles=0)
        for node in engine.nodes:
            assert protocol.state_of(node).n_shares_applied == 1

    def test_distinct_share_requirement(self, threshold_keypair):
        """A node never counts the same key-share twice."""
        engine, protocol = self._run(threshold_keypair, [7], population=9, cycles=30)
        for node in engine.nodes:
            state = protocol.state_of(node)
            assert len(state.partials) == len(set(state.partials))

    def test_not_done_raises(self, threshold_keypair):
        engine, protocol = self._run(threshold_keypair, [9], population=9, cycles=0)
        with pytest.raises(RuntimeError):
            protocol.plaintexts_of(engine.nodes[0])

    def test_share_reuse_across_population(self, threshold_keypair):
        """Population larger than n_shares: identifiers repeat but τ distinct
        shares still suffice (the paper assigns shares at bootstrap)."""
        engine, protocol = self._run(
            threshold_keypair, [31415], population=20, cycles=40
        )
        assert protocol.all_done(engine.nodes)
        plaintexts, _, _ = protocol.plaintexts_of(engine.nodes[13])
        assert plaintexts == [31415]

    def test_replacement_adopts_the_leaders_count(self, threshold_keypair):
        """The exchange counter travels with the vector it scales: a laggard
        that adopts a leader's bundle decodes with the *leader's* ``2^count``
        (its own would subtract the wrong bias mass)."""
        tk = threshold_keypair
        packed = PackedCodec(
            tk.public, fractional_bits=16, value_bits=24, accumulation_bits=10
        )
        rng = random.Random(6)
        bundles = {}
        for node, count in enumerate((3, 3, 5, 5)):
            scaled = [p << count for p in packed.pack([node + 0.5, -7.25])]
            ciphertexts = [encrypt(tk.public, p, rng=rng) for p in scaled]
            bundles[node] = (ciphertexts, 1 << count, count)
        shares = {i: tk.shares[i] for i in range(4)}
        engine = GossipEngine(4, seed=6)
        protocol = EpidemicDecryption(tk.context, bundles, shares)
        engine.setup(protocol)
        nodes = engine.nodes
        protocol.exchange(nodes[0], nodes[1])  # both now hold 2 shares
        protocol.exchange(nodes[0], nodes[2])  # 2 adopts 0's bundle
        protocol.exchange(nodes[2], nodes[3])  # 3 adopts it from 2
        for node in (nodes[2], nodes[3]):
            plaintexts, omega, count = protocol.plaintexts_of(node)
            assert (omega, count) == (8, 3)
            assert packed.unpack(
                plaintexts, 2, bias_multiplier=1 << count, extra_shift=count
            ) == [0.5, -7.25]

    def test_partials_are_computed_once_and_never_past_tau(
        self, threshold_keypair_s2, counting_backend
    ):
        """t = 12, τ = 3: replacement *shares* partials, so fewer are
        computed than are present when the nodes decode; and a node at τ
        costs nothing more, however long the gossip goes on."""
        engine, protocol = self._run(
            threshold_keypair_s2, [4, 5], population=12, seed=8,
            backend=counting_backend,
        )
        assert protocol.all_done(engine.nodes)
        present = sum(
            len(vector)
            for node in engine.nodes
            for vector in protocol.state_of(node).partials.values()
        )
        assert present == 12 * 3 * 2
        computed = counting_backend.partials_computed
        assert 12 * 2 <= computed <= present  # own share at setup, then shared
        engine.run_cycles(5, protocol)
        assert counting_backend.partials_computed == computed


class TestTokenPlane:
    def test_all_reach_threshold(self):
        engine = GossipEngine(100, seed=1)
        protocol = TokenDecryption(threshold_count=10)
        engine.setup(protocol)
        cycles = 0
        while protocol.fraction_done(engine.nodes) < 1.0 and cycles < 200:
            engine.run_cycle(protocol)
            cycles += 1
        assert protocol.fraction_done(engine.nodes) == 1.0

    def test_latency_grows_with_threshold(self):
        """Fig. 4(b): messages per peer grow with the key-share threshold."""
        costs = []
        for tau in (5, 20, 60):
            engine = GossipEngine(200, seed=2)
            protocol = TokenDecryption(threshold_count=tau)
            engine.setup(protocol)
            while protocol.fraction_done(engine.nodes) < 1.0:
                engine.run_cycle(protocol)
            costs.append(engine.mean_exchanges_per_node)
        assert costs[0] < costs[1] < costs[2]

    def test_replacement_accelerates(self):
        """The leader-replacement makes collected sets grow by at most one
        *new* share per exchange but laggards jump — everyone finishes in
        O(τ) cycles, not O(τ·log) retries."""
        engine = GossipEngine(64, seed=3)
        protocol = TokenDecryption(threshold_count=32)
        engine.setup(protocol)
        cycles = 0
        while protocol.fraction_done(engine.nodes) < 1.0:
            engine.run_cycle(protocol)
            cycles += 1
        assert cycles <= 4 * 32

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            TokenDecryption(0)
