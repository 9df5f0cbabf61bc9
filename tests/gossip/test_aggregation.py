"""Tests for the cleartext epidemic sum (Kempe push–pull)."""

import numpy as np
import pytest

from repro.gossip import EpidemicSum, GossipEngine
from repro.gossip.vectorized_protocol import pairing_cycles


def run_sum(values, cycles=pairing_cycles(40), seed=0, churn=0.0):
    engine = GossipEngine(len(values), seed=seed, churn=churn)
    protocol = EpidemicSum({i: np.array([v], dtype=float) for i, v in enumerate(values)})
    engine.setup(protocol)
    engine.run_cycles(cycles, protocol)
    return engine, protocol


class TestConvergence:
    def test_converges_to_sum(self):
        values = list(range(1, 33))
        engine, protocol = run_sum(values)
        exact = float(sum(values))
        for node in engine.nodes:
            estimate = protocol.estimate(node)
            assert estimate is not None
            assert estimate[0] == pytest.approx(exact, rel=1e-6)

    def test_count_protocol(self):
        """Counting (all-ones) — the ctr of the noise generation."""
        engine, protocol = run_sum([1.0] * 50)
        for node in engine.nodes:
            assert protocol.estimate(node)[0] == pytest.approx(50.0, rel=1e-6)

    def test_mass_conservation(self):
        """Σσ and Σω are invariant under exchanges (the key gossip invariant)."""
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        engine = GossipEngine(8, seed=1)
        protocol = EpidemicSum({i: np.array([v]) for i, v in enumerate(values)})
        engine.setup(protocol)
        for _ in range(10):
            engine.run_cycle(protocol)
            sigma_total = sum(n.state["episum"]["sigma"][0] for n in engine.nodes)
            omega_total = sum(n.state["episum"]["omega"] for n in engine.nodes)
            assert sigma_total == pytest.approx(sum(values))
            assert omega_total == pytest.approx(1.0)

    def test_error_decays_exponentially(self):
        values = [1.0] * 64
        engine = GossipEngine(64, seed=2)
        protocol = EpidemicSum({i: np.array([1.0]) for i in range(64)})
        engine.setup(protocol)
        errors = []
        for _ in range(30):
            engine.run_cycle(protocol)
            estimates = [protocol.estimate(node) for node in engine.nodes]
            if all(e is not None for e in estimates):
                errors.append(max(abs(float(e[0]) - 64.0) for e in estimates) / 64.0)
        finite = [e for e in errors if np.isfinite(e) and e > 0]
        # Later errors should be orders of magnitude below early ones.
        assert finite[-1] < finite[0] * 1e-3

    def test_vector_data(self):
        engine = GossipEngine(16, seed=3)
        data = {i: np.array([i, 2.0 * i, -float(i)]) for i in range(16)}
        protocol = EpidemicSum(data)
        engine.setup(protocol)
        engine.run_cycles(40, protocol)
        expected = np.array([120.0, 240.0, -120.0])
        estimate = protocol.estimate(engine.nodes[5])
        assert np.allclose(estimate, expected, rtol=1e-6)

    def test_estimate_none_before_weight_spreads(self):
        engine = GossipEngine(10, seed=4)
        protocol = EpidemicSum({i: np.array([1.0]) for i in range(10)})
        engine.setup(protocol)
        # Before any cycle only the weight holder can estimate.
        estimates = [protocol.estimate(node) for node in engine.nodes]
        assert sum(e is not None for e in estimates) == 1

    def test_churn_still_converges_approximately(self):
        values = [1.0] * 100
        engine, protocol = run_sum(values, cycles=100, seed=5, churn=0.25)
        errors = [
            abs(protocol.estimate(n)[0] - 100.0) / 100.0
            for n in engine.nodes
            if protocol.estimate(n) is not None
        ]
        assert np.median(errors) < 0.01
