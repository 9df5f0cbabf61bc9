"""Iteration-latency composition (Sec. 6.3.2).

The total latency of one Chiaroscuro iteration is the latency of

* two epidemic encrypted sums (means + noise),
* one epidemic dissemination (the noise correction),
* one epidemic decryption,

expressed in messages per participant, converted to wall-clock by charging
each message with its transfer time and each exchange with its local
compute time.  The paper composes exactly these terms to land on "a first
iteration completing after around 26 mins and a fifth one after around
10 mins" — the fifth being cheaper because lost centroids shrink the means
set.  :func:`iteration_latency` reproduces that composition;
:func:`messages_to_reach_error` and :func:`dissemination_cycles` measure its
first two terms (Fig. 4(a)) on the array gossip engine.

Decryption is charged as the protocol reads here: a node computes one
partial decryption of the set, with its own key-share, and combines the τ
partials it received; it forwards the partials of others as it got them,
it does not recompute them.

``bench_fig4_latency.py`` and ``bench_latency_iteration.py`` import it; its
own checks are the ``test_*`` functions at the end:

    cd benchmarks && PYTHONPATH=../src python -m pytest -q latency_composition.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.crypto.keys import PublicKey
from repro.gossip.dissemination import VectorizedMinId
from repro.gossip.eesum import VectorizedEESum
from repro.gossip.vectorized_protocol import VectorizedGossipEngine


def messages_to_reach_error(
    population: int,
    target_abs_error: float,
    churn: float = 0.0,
    seed: int = 0,
    max_cycles: int = 400,
) -> float:
    """Average messages per node until the *absolute* error falls under target.

    This reproduces the Fig. 4(a) y-axis: the paper plots the average
    number of messages per participant needed for the epidemic sum (over
    all-ones data) to reach a given absolute approximation error.
    Returns ``inf`` when ``max_cycles`` does not suffice.
    """
    engine = VectorizedGossipEngine(population, seed=seed, churn=churn)
    eesum = VectorizedEESum(np.ones(population))
    for _ in range(max_cycles):
        engine.run_cycle(eesum)
        # A node the weight has not reached estimates NaN, which fails the
        # comparison like any other error above the target.
        if (np.abs(eesum.estimates() - population) <= target_abs_error).all():
            return engine.mean_exchanges_per_node
    return float("inf")


def dissemination_cycles(
    population: int,
    churn: float = 0.0,
    seed: int = 0,
    max_cycles: int = 400,
) -> tuple[float, int]:
    """Messages/node and cycles for min-id dissemination to reach everyone.

    Every node proposes a random identifier (the noise-correction scenario
    of Sec. 4.2.2).
    """
    engine = VectorizedGossipEngine(population, seed=seed, churn=churn)
    minid = VectorizedMinId(
        engine.rng.integers(VectorizedMinId.NO_PROPOSAL, size=population)
    )
    for cycle in range(1, max_cycles + 1):
        engine.run_cycle(minid)
        if minid.converged():
            return engine.mean_exchanges_per_node, cycle
    return float("inf"), max_cycles


@dataclass(frozen=True)
class LatencyInputs:
    """Measured/derived building blocks for the composition."""

    sum_messages_per_node: float  # one epidemic encrypted sum
    dissemination_messages_per_node: float
    decryption_messages_per_node: float
    encrypt_seconds: float  # one means set
    add_seconds: float  # one homomorphic set addition
    partial_seconds: float  # one set's partial decryption, own key-share
    combine_seconds: float  # one set's combination of τ received partials
    bandwidth_bits_per_s: float = 1e6


@dataclass(frozen=True)
class IterationLatency:
    """The composed per-iteration latency breakdown (seconds)."""

    transfer_seconds: float
    compute_seconds: float
    messages_per_node: float

    @property
    def total_seconds(self) -> float:
        return self.transfer_seconds + self.compute_seconds

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0


def iteration_latency(
    set_bytes: int, inputs: LatencyInputs, alive_fraction: float = 1.0
) -> IterationLatency:
    """Compose one iteration's latency for a given surviving-centroid fraction.

    ``set_bytes`` is one means set on the wire; the paper's layout is
    ``k·(n+1)`` ciphertexts of ``ciphertext_bytes`` each.
    ``alive_fraction`` scales the means-set size: by the fifth iteration the
    paper observed 60 % of centroids lost, i.e. ``alive_fraction = 0.4``,
    which is what shrinks 26 min to ~10 min.
    """
    if not 0 < alive_fraction <= 1:
        raise ValueError("alive_fraction must be in (0, 1]")
    messages = (
        2.0 * inputs.sum_messages_per_node
        + inputs.dissemination_messages_per_node
        + inputs.decryption_messages_per_node
    )
    # push–pull moves a set each way
    per_message_bytes = 2.0 * set_bytes * alive_fraction
    transfer = messages * per_message_bytes * 8 / inputs.bandwidth_bits_per_s

    compute = alive_fraction * (
        inputs.encrypt_seconds  # once per iteration (assignment step)
        + inputs.add_seconds * 2.0 * inputs.sum_messages_per_node
        + inputs.partial_seconds  # once per iteration
        + inputs.combine_seconds  # once per iteration
    )
    return IterationLatency(
        transfer_seconds=transfer,
        compute_seconds=compute,
        messages_per_node=messages,
    )


# ---------------------------------------------------------------- checks


@pytest.fixture()
def model_1024():
    return 50 * (20 + 1) * PublicKey(n=(1 << 1023) + 1, s=1).ciphertext_bytes


@pytest.fixture()
def paper_inputs():
    """Order-of-magnitude inputs from the paper's own measurements."""
    return LatencyInputs(
        sum_messages_per_node=100.0,
        dissemination_messages_per_node=50.0,
        decryption_messages_per_node=100.0,
        encrypt_seconds=2.0,
        add_seconds=0.08,
        partial_seconds=2.0,
        combine_seconds=6.0,
        bandwidth_bits_per_s=1e6,
    )


def test_message_total(model_1024, paper_inputs):
    latency = iteration_latency(model_1024, paper_inputs)
    # 2 sums + 1 dissemination + 1 decryption
    assert latency.messages_per_node == pytest.approx(2 * 100 + 50 + 100)


def test_paper_narrative_shape(model_1024, paper_inputs):
    """First iteration tens of minutes; a 60 %-lost fifth iteration is
    substantially cheaper (the paper: ~26 min → ~10 min)."""
    first = iteration_latency(model_1024, paper_inputs, alive_fraction=1.0)
    fifth = iteration_latency(model_1024, paper_inputs, alive_fraction=0.4)
    assert 5 <= first.total_minutes <= 120
    assert fifth.total_seconds == pytest.approx(first.total_seconds * 0.4, rel=1e-6)


def test_components_positive(model_1024, paper_inputs):
    latency = iteration_latency(model_1024, paper_inputs)
    assert latency.transfer_seconds > 0
    assert latency.compute_seconds > 0
    assert latency.total_seconds == pytest.approx(
        latency.transfer_seconds + latency.compute_seconds
    )


def test_alive_fraction_validation(model_1024, paper_inputs):
    with pytest.raises(ValueError):
        iteration_latency(model_1024, paper_inputs, alive_fraction=0.0)


def test_messages_to_reach_error_logarithmic():
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


def test_unreachable_error_is_inf():
    assert messages_to_reach_error(100, 1e-9, max_cycles=3) == float("inf")
    assert dissemination_cycles(100, max_cycles=1) == (float("inf"), 1)


def test_dissemination_latency():
    messages, cycles = dissemination_cycles(10_000, seed=6)
    assert np.isfinite(messages)
    assert messages < 50  # paper: < 50 messages for 10⁶ nodes
    assert cycles < 60
