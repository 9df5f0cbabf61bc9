"""Tests for the object gossip engine (the array engine's schedule)."""

import numpy as np
import pytest

from repro.gossip import GossipEngine, VectorizedGossipEngine
from repro.gossip.engine import GossipProtocol


class CountingProtocol(GossipProtocol):
    """Records every exchange for assertions."""

    def __init__(self):
        self.pairs = []

    def setup(self, node):
        node.state["touched"] = True

    def exchange(self, initiator, contact):
        self.pairs.append((initiator.node_id, contact.node_id))


class TestEngineBasics:
    def test_setup_touches_all_nodes(self):
        engine = GossipEngine(10, seed=0)
        protocol = CountingProtocol()
        engine.setup(protocol)
        assert all(node.state.get("touched") for node in engine.nodes)

    def test_each_online_node_exchanges_once(self):
        """A cycle is a disjoint pairing: every node in exactly one pair."""
        engine = GossipEngine(20, seed=1)
        protocol = CountingProtocol()
        engine.setup(protocol)
        exchanges = engine.run_cycle(protocol)
        assert exchanges == 10
        members = [node for pair in protocol.pairs for node in pair]
        assert sorted(members) == list(range(20))

    @pytest.mark.parametrize("churn", [0.0, 0.3])
    def test_draws_the_array_engines_pairing(self, churn):
        """At one seed both engines gossip the same schedule."""
        engine = GossipEngine(31, seed=5, churn=churn)
        twin = VectorizedGossipEngine(31, seed=5, churn=churn)
        protocol = CountingProtocol()
        engine.setup(protocol)
        for _ in range(4):
            protocol.pairs.clear()
            engine.run_cycle(protocol)
            left, right = twin.run_cycle()
            assert protocol.pairs == list(zip(left.tolist(), right.tolist()))
        assert np.array_equal(engine.online, twin.online)
        assert np.array_equal(engine.exchanges, twin.exchanges)

    def test_no_self_exchange(self):
        engine = GossipEngine(5, seed=2)
        protocol = CountingProtocol()
        engine.setup(protocol)
        engine.run_cycles(20, protocol)
        assert all(a != b for a, b in protocol.pairs)

    def test_exchange_counting(self):
        engine = GossipEngine(8, seed=3)
        protocol = CountingProtocol()
        engine.setup(protocol)
        total = engine.run_cycles(5, protocol)
        assert total == 20
        # Each exchange counts for both participants.
        assert engine.mean_exchanges_per_node == pytest.approx(2 * 20 / 8)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            GossipEngine(1)

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            engine = GossipEngine(12, seed=7)
            protocol = CountingProtocol()
            engine.setup(protocol)
            engine.run_cycles(3, protocol)
            runs.append(protocol.pairs)
        assert runs[0] == runs[1]


class TestChurn:
    def test_churn_reduces_exchanges(self):
        quiet, noisy = [], []
        for churn, sink in ((0.0, quiet), (0.5, noisy)):
            engine = GossipEngine(50, seed=4, churn=churn)
            protocol = CountingProtocol()
            engine.setup(protocol)
            sink.append(engine.run_cycles(10, protocol))
        assert noisy[0] < quiet[0]

    def test_offline_nodes_do_not_participate(self):
        engine = GossipEngine(30, seed=5, churn=0.4)
        protocol = CountingProtocol()
        engine.setup(protocol)
        engine.run_cycle(protocol)
        offline = set(np.flatnonzero(~engine.online).tolist())
        for a, b in protocol.pairs:
            assert a not in offline and b not in offline

    def test_invalid_churn(self):
        with pytest.raises(ValueError):
            GossipEngine(10, churn=1.0)
