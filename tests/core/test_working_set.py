"""The array planes' working set: one payload plus O(block).

Algorithm 3 needs one ``population × (dims + 1)`` matrix per iteration.  A
second one appearing anywhere in the step — a dense means matrix, a
whole-population gather, a ``g1 − g2`` temporary — is what pushes a 10⁶-node
run out of memory, so the allocation peak is pinned here, at a size that
takes well under a second.
"""

import tracemalloc

import numpy as np

from repro.blocks import BLOCK_BYTES
from repro.core.computation import VectorizedComputationStep
from repro.core.noise import NoisePlan
from repro.gossip import VectorizedEESum, VectorizedGossipEngine


def _traced_peak(call) -> int:
    """Peak bytes allocated while ``call`` runs, over what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_step_holds_one_payload():
    population, k, n = 20_000, 10, 2
    plan = NoisePlan(
        k=k, series_length=n, dmin=0.0, dmax=40.0, epsilon=1.0, n_nu=population
    )
    data_rng = np.random.default_rng(0)
    series = data_rng.uniform(0.0, 40.0, size=(population, n))
    labels = data_rng.integers(0, k, size=population)
    step = VectorizedComputationStep(
        noise_plan=plan, exchanges=2, threshold=2,
        noise_rng=np.random.default_rng(1),
    )
    engine = VectorizedGossipEngine(population, seed=2)

    peak = _traced_peak(lambda: step.run(engine, labels, series))

    payload_bytes = population * (plan.dimensions + 1) * 8
    # The rest is per-node scalars (pairings, ω, counters, proposal ids):
    # a dozen population-long vectors against 31 columns.
    assert payload_bytes < peak < 1.5 * payload_bytes


def test_an_exchange_cycle_allocates_blocks_not_populations():
    rng = np.random.default_rng(3)
    peaks = {}
    for population in (20_000, 80_000):
        eesum = VectorizedEESum(rng.uniform(size=(population, 31)), copy=False)
        order = rng.permutation(population)
        left, right = order[: population // 2], order[population // 2 :]
        peaks[population] = _traced_peak(lambda: eesum.exchange_pairs(left, right))
    # One side of the 80 000-node gather alone would be 9.9 MB.
    assert max(peaks.values()) < 6 * BLOCK_BYTES
