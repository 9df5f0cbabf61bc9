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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gossip.dissemination import VectorizedMinId
from ..gossip.eesum import VectorizedEESum
from ..gossip.vectorized_protocol import VectorizedGossipEngine
from .costs import LocalCostModel

__all__ = [
    "LatencyInputs",
    "IterationLatency",
    "dissemination_cycles",
    "iteration_latency",
    "messages_to_reach_error",
]


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
    decrypt_seconds: float  # one threshold decryption of a set
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
    cost_model: LocalCostModel, inputs: LatencyInputs, alive_fraction: float = 1.0
) -> IterationLatency:
    """Compose one iteration's latency for a given surviving-centroid fraction.

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
    set_bytes = cost_model.transfer_bytes * alive_fraction
    per_message_bytes = 2.0 * set_bytes  # push–pull moves a set each way
    transfer = messages * per_message_bytes * 8 / inputs.bandwidth_bits_per_s

    compute = alive_fraction * (
        inputs.encrypt_seconds  # once per iteration (assignment step)
        + inputs.add_seconds * 2.0 * inputs.sum_messages_per_node
        + inputs.decrypt_seconds  # once per iteration
    )
    return IterationLatency(
        transfer_seconds=transfer,
        compute_seconds=compute,
        messages_per_node=messages,
    )
