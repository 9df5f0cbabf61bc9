"""The counter bound both real-ciphertext codecs are sized from.

Alg. 2 moves both counters of an exchange to ``max + 1``.  On a disjoint
pairing a node takes part in at most one exchange per delivered batch, so
after a phase of ``c`` cycles every counter is at most
``c × FaultPlan.batches_per_cycle``: ``c`` fault-free, more when a network
fault duplicates or delays messages.  The bound is checked here on both
engines over schedules nobody hand-picked, and then *decoded*: a codec with
exactly the accumulation room of a mass at the bound decodes it exactly,
and one exchange less is refused by the decode gate.  The slot's value
bound — the noise tail ``NoisePlan.codec`` sizes — is decoded the same way.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NoisePlan
from repro.crypto import PackedCodec, decrypt, encrypt_batch
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


def _gossip_and_decode(keypair, codec, vectors, cycles):
    """Encrypt each of two nodes' vectors under ``codec``, pair them for
    ``cycles`` cycles so both counters reach ``cycles``, and unpack node 0's
    decrypted sum at the ``2^count`` mass.  Returns ``(decoded, expected)``
    signed slot integers."""
    public = keypair.public
    rng = random.Random(7)
    initial = {
        node: encrypt_batch(public, codec.pack(vector), rng)
        for node, vector in enumerate(vectors)
    }
    engine = GossipEngine(2, seed=1)
    eesum = EESum(public, initial)
    engine.setup(eesum)
    engine.run_cycles(cycles, eesum)
    state = eesum.state_of(engine.nodes[0])
    assert state.count == cycles
    plaintexts = [decrypt(keypair, c) for c in state.ciphertexts]
    fixed = np.rint(np.array(vectors) * codec.scale).astype(np.int64)
    # Two nodes with equal counters: each holds 2^(count − 1) of both.
    expected = (fixed.sum(axis=0) << (state.count - 1)).tolist()
    decoded = codec.unpack_integers(plaintexts, len(vectors[0]), 1 << state.count)
    return decoded, expected


def test_a_codec_at_the_bound_decodes_it_and_one_exchange_less_refuses(
    keypair128,
):
    """Two nodes pair in every cycle, so both counters reach the bound.  Each
    node holds one vector of the extreme values a slot admits, as the
    protocol planes encrypt one vector per node (its means and noise share
    summed on the grid).  The codec with exactly ``2^bound`` of room
    decodes the mass exactly; with room for one exchange less the decode
    gate refuses it.  ``NoisePlan.codec`` reserves at least that room."""
    cycles = pairing_cycles(3)
    planned = PackedCodec.plan(keypair128.public, 16, 100.0, exchanges=cycles)
    exact = replace(planned, accumulation_bits=((1 << cycles) - 1).bit_length())
    assert exact.accumulation_bits <= planned.accumulation_bits
    narrow = replace(exact, accumulation_bits=exact.accumulation_bits - 1)

    def extremes(codec):
        top = (codec.bias - 1) / codec.scale  # the largest value pack admits
        return [np.array([top, -top, top, -top, 0.5 * node]) for node in range(2)]

    decoded, expected = _gossip_and_decode(keypair128, exact, extremes(exact), cycles)
    assert decoded == expected
    with pytest.raises(ValueError, match="coefficient mass exceeds"):
        _gossip_and_decode(keypair128, narrow, extremes(narrow), cycles)


def test_the_slot_tail_decodes_and_one_value_bit_less_refuses(keypair128):
    """A slot holds a data value plus a noise share out to the exponential
    tail, ``max(|dmin|, |dmax|) + 60·sensitivity / min(slices)`` (computed
    here, not read off the plan).  A vector at ± that value, gossiped to the
    counter bound, decodes exactly through ``NoisePlan.codec``'s codec; a
    codec one value bit narrower than that value needs refuses it."""
    plan = NoisePlan(
        k=2, series_length=3, dmin=-40.0, dmax=30.0, epsilon=0.5, n_nu=2,
        slices=(0.5, 0.25),
    )
    tail = max(abs(plan.dmin), abs(plan.dmax)) + 60.0 * plan.sensitivity / 0.25
    cycles = pairing_cycles(3)
    codec = plan.codec(keypair128.public, exchanges=cycles)
    vector = tail * np.resize([1.0, -1.0], plan.dimensions)

    decoded, expected = _gossip_and_decode(keypair128, codec, [vector] * 2, cycles)
    assert decoded == expected
    needed = int(np.rint(tail * codec.scale)).bit_length()  # |f| < 2^value_bits
    assert codec.value_bits >= needed
    narrow = replace(codec, value_bits=needed - 1)
    with pytest.raises(ValueError, match="capacity"):
        _gossip_and_decode(keypair128, narrow, [vector] * 2, cycles)
