"""Tests for the vectorized large-population gossip plane."""

import numpy as np
import pytest

from repro.gossip import (
    PushPullSumSimulator,
    dissemination_cycles,
    messages_to_reach_error,
    simulate_sum_error,
)


class TestPushPullSimulator:
    def test_converges_to_sum(self):
        sim = PushPullSumSimulator(1000, seed=0)
        for _ in range(60):
            sim.run_cycle()
        assert sim.max_relative_error() < 1e-6

    def test_mass_conservation(self):
        sim = PushPullSumSimulator(512, seed=1)
        for _ in range(10):
            sim.run_cycle()
            assert sim.sigma.sum() == pytest.approx(512.0)
            assert sim.omega.sum() == pytest.approx(1.0)

    def test_custom_data(self):
        data = np.arange(100, dtype=float)
        sim = PushPullSumSimulator(100, data=data, seed=2)
        for _ in range(60):
            sim.run_cycle()
        estimates = sim.estimates()
        assert np.allclose(estimates, data.sum(), rtol=1e-6)

    def test_churn_slows_but_converges(self):
        clean = PushPullSumSimulator(1000, seed=3)
        churned = PushPullSumSimulator(1000, churn=0.5, seed=3)
        for _ in range(40):
            clean.run_cycle()
            churned.run_cycle()
        assert clean.max_relative_error() < churned.max_relative_error()
        # Fig. 3(b): even 50 % churn keeps the error a negligible fraction.
        for _ in range(60):
            churned.run_cycle()
        assert churned.max_relative_error() < 1e-3

    def test_messages_accounting(self):
        sim = PushPullSumSimulator(100, seed=4)
        sim.run_cycle()
        # Every paired node logs one message per cycle.
        assert 0 < sim.mean_messages_per_node <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PushPullSumSimulator(1)
        with pytest.raises(ValueError):
            PushPullSumSimulator(10, churn=1.0)


class TestTraces:
    def test_error_trace_monotone_tail(self):
        trace = simulate_sum_error(2000, cycles=70, seed=5)
        finite = [e for e in trace.max_relative_error if np.isfinite(e)]
        assert finite[-1] < 1e-8
        assert len(trace.cycles) == 70

    def test_messages_to_reach_error_logarithmic(self):
        """Fig. 4(a): messages grow roughly logarithmically with population."""
        points = [(1_000, 0), (8_000, 0), (64_000, 0)]
        messages = [
            messages_to_reach_error(pop, target_abs_error=0.001, seed=seed)
            for pop, seed in points
        ]
        assert all(np.isfinite(m) for m in messages)
        assert messages[0] < messages[-1] < 100  # paper: under the hundred
        fit = np.poly1d(np.polyfit(np.log([p for p, _ in points]), messages, 1))
        # Log fit should predict the middle point decently.
        assert fit(np.log(8_000)) == pytest.approx(messages[1], rel=0.25)

    def test_dissemination_latency(self):
        messages, cycles = dissemination_cycles(10_000, seed=6)
        assert np.isfinite(messages)
        assert messages < 50  # paper: < 50 messages for 10⁶ nodes
        assert cycles < 60
