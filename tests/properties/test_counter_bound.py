"""The counter bound both real-ciphertext codecs are sized from.

Alg. 2 moves both counters of an exchange to ``max + 1``.  On a disjoint
pairing a node takes part in at most one exchange per delivered batch, so
after a phase of ``c`` cycles every counter is at most
``c × FaultPlan.batches_per_cycle``: ``c`` fault-free, more when a network
fault duplicates or delays messages.  The bound is checked here on both
engines over schedules nobody hand-picked, and then *decoded*: a codec with
exactly the accumulation room of a mass at the bound decodes it exactly,
and one exchange less is refused by the decode gate.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import PackedCodec, decrypt, encrypt_batch
from repro.crypto.damgard_jurik import homomorphic_add
from repro.faults.base import fault_rng
from repro.faults.network import NetworkFault
from repro.faults.plan import FaultPlan
from repro.gossip import EESum, GossipEngine, VectorizedGossipEngine
from repro.gossip.eesum import MockHomomorphicOps, VectorizedEESum
from repro.gossip.vectorized_protocol import pairing_cycles

NETWORKS = (
    None,
    {"loss": 0.2, "duplicate": 0.9},
    {"duplicate": 0.5, "delay": 0.5, "max_delay": 3},
)


def _faulted(engine, network, seed):
    """``engine`` behind the fault proxy, with its plan's batch bound."""
    entries = [] if network is None else [("network", NetworkFault(**network))]
    plan = FaultPlan(entries, seed=seed)
    plan.injectors = [
        config.build(fault_rng(seed, kind, index))
        for index, (kind, config) in enumerate(entries)
    ]
    return plan.wrap_engine(engine, iteration=1), plan.batches_per_cycle


@settings(max_examples=40, deadline=None)
@given(
    population=st.integers(2, 40),
    exchanges=st.integers(1, 8),
    churn=st.sampled_from([0.0, 0.3, 0.6]),
    network=st.sampled_from(NETWORKS),
    seed=st.integers(0, 2**16),
)
def test_every_counter_stays_within_cycles_times_batches(
    population, exchanges, churn, network, seed
):
    cycles = pairing_cycles(exchanges)
    objects = EESum(
        None, {i: [1] for i in range(population)}, ops=MockHomomorphicOps()
    )
    object_engine = GossipEngine(population, seed=seed, churn=churn)
    object_engine.setup(objects)
    arrays = VectorizedEESum(np.ones((population, 1)))
    array_engine = VectorizedGossipEngine(population, seed=seed, churn=churn)
    for engine, protocol in ((object_engine, objects), (array_engine, arrays)):
        faulted, batches = _faulted(engine, network, seed)
        faulted.run_cycles(cycles, protocol)
    counts = [objects.state_of(node).count for node in object_engine.nodes]
    assert max(counts) <= cycles * batches
    assert arrays.count.max() <= cycles * batches
    if network is None and churn == 0.0 and population == 2:
        assert counts == [cycles, cycles]  # the bound is reached


@pytest.mark.parametrize("terms", [1, 2])
def test_a_codec_at_the_bound_decodes_it_and_one_exchange_less_refuses(
    keypair128, terms
):
    """Two nodes pair in every cycle, so both counters reach the bound.  Each
    node holds ``terms`` vectors of the extreme values a slot admits, which
    are summed homomorphically after the gossip; the protocol planes sum
    means and noise on the grid instead and encrypt one vector (``terms``
    = 1).  The codec with exactly ``terms · 2^bound`` of room
    decodes the mass exactly; with room for one exchange less the decode
    gate refuses it.  ``NoisePlan.codec`` reserves at least that room."""
    public = keypair128.public
    cycles = pairing_cycles(3)
    dims = 5
    planned = PackedCodec.plan(public, 16, 100.0, exchanges=cycles, terms=terms)
    exact = replace(
        planned, accumulation_bits=((terms << cycles) - 1).bit_length()
    )
    assert exact.accumulation_bits <= planned.accumulation_bits
    narrow = replace(exact, accumulation_bits=exact.accumulation_bits - 1)

    def decode(codec):
        top = (codec.bias - 1) / codec.scale  # the largest value pack admits
        vectors = [
            [np.array([top, -top, top, -top, 0.5 * node - term])
             for term in range(terms)]
            for node in range(2)
        ]
        rng = random.Random(7)
        initial = {
            node: [
                c
                for vector in vectors[node]
                for c in encrypt_batch(public, codec.pack(vector), rng)
            ]
            for node in range(2)
        }
        engine = GossipEngine(2, seed=1)
        eesum = EESum(public, initial)
        engine.setup(eesum)
        engine.run_cycles(cycles, eesum)
        state = eesum.state_of(engine.nodes[0])
        assert state.count == cycles
        width = codec.packed_length(dims)
        summed = state.ciphertexts[:width]
        for term in range(1, terms):
            summed = [
                homomorphic_add(public, a, b)
                for a, b in zip(
                    summed, state.ciphertexts[term * width:(term + 1) * width]
                )
            ]
        plaintexts = [decrypt(keypair128, c) for c in summed]
        fixed = np.rint(np.array(vectors) * codec.scale).astype(np.int64)
        # Two nodes with equal counters: each holds 2^(count − 1) of both.
        expected = (fixed.sum(axis=(0, 1)) << (state.count - 1)).tolist()
        mass = terms << state.count
        return codec.unpack_integers(plaintexts, dims, mass), expected

    decoded, expected = decode(exact)
    assert decoded == expected
    with pytest.raises(ValueError, match="coefficient mass exceeds"):
        decode(narrow)
