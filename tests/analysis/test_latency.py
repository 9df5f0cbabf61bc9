"""Tests for the Sec. 6.3.2 latency composition and the two Fig. 4(a)
measurements that feed it."""

import numpy as np
import pytest

from repro.analysis import (
    IterationLatency,
    LatencyInputs,
    LocalCostModel,
    dissemination_cycles,
    iteration_latency,
    messages_to_reach_error,
)
from repro.crypto.keys import PublicKey


@pytest.fixture()
def model_1024():
    return LocalCostModel(PublicKey(n=(1 << 1023) + 1, s=1), k=50, series_length=20)


@pytest.fixture()
def paper_inputs():
    """Order-of-magnitude inputs from the paper's own measurements."""
    return LatencyInputs(
        sum_messages_per_node=100.0,
        dissemination_messages_per_node=50.0,
        decryption_messages_per_node=100.0,
        encrypt_seconds=2.0,
        add_seconds=0.08,
        decrypt_seconds=8.0,
        bandwidth_bits_per_s=1e6,
    )


class TestComposition:
    def test_message_total(self, model_1024, paper_inputs):
        latency = iteration_latency(model_1024, paper_inputs)
        # 2 sums + 1 dissemination + 1 decryption
        assert latency.messages_per_node == pytest.approx(2 * 100 + 50 + 100)

    def test_paper_narrative_shape(self, model_1024, paper_inputs):
        """First iteration tens of minutes; a 60 %-lost fifth iteration is
        substantially cheaper (the paper: ~26 min → ~10 min)."""
        first = iteration_latency(model_1024, paper_inputs, alive_fraction=1.0)
        fifth = iteration_latency(model_1024, paper_inputs, alive_fraction=0.4)
        assert 5 <= first.total_minutes <= 120
        assert fifth.total_seconds == pytest.approx(first.total_seconds * 0.4, rel=1e-6)

    def test_components_positive(self, model_1024, paper_inputs):
        latency = iteration_latency(model_1024, paper_inputs)
        assert latency.transfer_seconds > 0
        assert latency.compute_seconds > 0
        assert latency.total_seconds == pytest.approx(
            latency.transfer_seconds + latency.compute_seconds
        )

    def test_alive_fraction_validation(self, model_1024, paper_inputs):
        with pytest.raises(ValueError):
            iteration_latency(model_1024, paper_inputs, alive_fraction=0.0)


class TestGossipMeasurements:
    def test_messages_to_reach_error_logarithmic(self):
        """Fig. 4(a): messages grow roughly logarithmically with population."""
        populations = [1_000, 8_000, 64_000]
        messages = [
            messages_to_reach_error(pop, target_abs_error=0.001) for pop in populations
        ]
        assert all(np.isfinite(m) for m in messages)
        assert messages[0] < messages[-1] < 100  # paper: under the hundred
        fit = np.poly1d(np.polyfit(np.log(populations), messages, 1))
        # Log fit should predict the middle point decently.
        assert fit(np.log(8_000)) == pytest.approx(messages[1], rel=0.25)

    def test_unreachable_error_is_inf(self):
        assert messages_to_reach_error(100, 1e-9, max_cycles=3) == float("inf")
        assert dissemination_cycles(100, max_cycles=1) == (float("inf"), 1)

    def test_dissemination_latency(self):
        messages, cycles = dissemination_cycles(10_000, seed=6)
        assert np.isfinite(messages)
        assert messages < 50  # paper: < 50 messages for 10⁶ nodes
        assert cycles < 60
