"""The invariant packed decoding rests on: an EESum coefficient total is 2^count.

Algorithm 2 scales the lagging side of an exchange by ``2^{|n_r − n_l|}``,
adds, and moves both counters to ``max + 1``; by induction the public
integer coefficients a node has accumulated sum to ``C = 2^count``.  The
real-crypto planes subtract the packed bias mass ``B·terms·C`` with that
clear ``C`` instead of decrypting it, so it is stated here once, for all
three EESum implementations, over schedules nobody hand-picked.  (The
threshold-decryption witness is ``test_tracker_counts_coefficient_mass`` in
``tests/core/test_batching.py``.)
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import decrypt, encrypt
from repro.gossip import EESum, GossipEngine
from repro.gossip.cipher_array import CipherEESum
from repro.gossip.eesum import MockHomomorphicOps, VectorizedEESum


def _schedule(rng: random.Random, population: int, rounds: int, churn: float):
    """Rounds of disjoint pairs: offline nodes sit a round out, and so does
    the odd one left over."""
    for _ in range(rounds):
        online = [node for node in range(population) if rng.random() >= churn]
        rng.shuffle(online)
        pairs = list(zip(online[0::2], online[1::2]))
        if pairs:
            yield pairs


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    population=st.integers(2, 9),
    rounds=st.integers(1, 6),
    churn=st.sampled_from([0.0, 0.3, 0.6]),
)
def test_coefficient_total_is_two_to_the_count(
    keypair128, seed, population, rounds, churn
):
    """Every node carries a 1; whatever the schedule, after every exchange
    its accumulated total is exactly ``1 << count`` on every plane."""
    rng = random.Random(seed)
    engine = GossipEngine(population, seed=seed)
    mock = EESum(
        None, {i: [1] for i in range(population)}, ops=MockHomomorphicOps()
    )
    engine.setup(mock)
    vectorized = VectorizedEESum(np.ones((population, 1)))
    cipher = CipherEESum(
        keypair128.public,
        [[encrypt(keypair128.public, 1, rng=rng)] for _ in range(population)],
    )

    for pairs in _schedule(rng, population, rounds, churn):
        for a, b in pairs:
            mock.exchange(engine.nodes[a], engine.nodes[b])
            for node in engine.nodes:
                state = mock.state_of(node)
                assert state.ciphertexts == [1 << state.count]
        left, right = (np.array(side) for side in zip(*pairs))
        vectorized.exchange_pairs(left, right)
        cipher.exchange_pairs(left, right)
        for node in range(population):
            count = mock.state_of(engine.nodes[node]).count
            assert vectorized.count[node] == cipher.count[node] == count
            # The normalized float, re-scaled exactly: the object-plane integer.
            assert Fraction(vectorized.values[node, 0]) * (1 << count) == 1 << count
            assert decrypt(keypair128, cipher.row(node)[0]) == 1 << count
