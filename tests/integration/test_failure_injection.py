"""Failure-injection tests: the system under adversity.

Chiaroscuro's operating environment is hostile by construction — churn,
stragglers, and (Sec. 4.4) participants that deviate.  These tests inject
the failures and assert the designed behaviour: graceful degradation,
detection, or a hard refusal, never a silently-wrong answer.
"""

import random

import numpy as np
import pytest

from repro.core import DecryptionCrossCheck, DeviceRegistry
from repro.crypto import (
    PackedCodec,
    combine_partial_decryptions,
    encrypt,
    partial_decrypt,
)
from repro.gossip import (
    EESum,
    EpidemicDecryption,
    EpidemicSum,
    GossipEngine,
    MinIdDissemination,
)


class TestExtremeChurn:
    def test_sum_survives_90_percent_churn(self):
        """At 90 % per-cycle churn the sum still converges, just slower."""
        engine = GossipEngine(100, seed=0, churn=0.9)
        protocol = EpidemicSum({i: np.array([1.0]) for i in range(100)})
        engine.setup(protocol)
        engine.run_cycles(400, protocol)
        estimates = [protocol.estimate(n) for n in engine.nodes]
        have = [e[0] for e in estimates if e is not None]
        assert len(have) > 50
        assert np.median(np.abs(np.array(have) - 100.0)) < 1.0

    def test_dissemination_heals_after_total_outage(self):
        """Cycles where fewer than two nodes are online are lost, not fatal."""
        proposals = {i: (i + 1, i) for i in range(10)}
        engine = GossipEngine(10, seed=1, churn=0.95)
        protocol = MinIdDissemination(proposals)
        engine.setup(protocol)
        engine.run_cycles(50, protocol)
        engine.churn = 0.0  # network heals
        engine.run_cycles(10, protocol)
        assert protocol.converged(engine.nodes)


class TestTamperedParticipants:
    def test_cross_check_catches_tampered_decryption(self, threshold_keypair):
        """A participant reporting a manipulated plaintext is flagged by the
        Sec. 4.4 epidemic cross-check."""
        tk = threshold_keypair
        rng = random.Random(2)
        c = encrypt(tk.public, 5_000_000, rng=rng)
        honest = {}
        for node in range(8):
            partials = {
                s.index: partial_decrypt(tk.context, s, c) for s in tk.shares[:3]
            }
            honest[node] = np.array(
                [float(combine_partial_decryptions(tk.context, partials))]
            )
        honest[3] = honest[3] * 1.02  # subtle manipulation (+2 %)
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(honest)
        assert report.deviating == [3]

    def test_forged_partial_decryption_breaks_loudly(self, threshold_keypair):
        """Corrupting one partial decryption never yields the true plaintext
        (it yields garbage — detectable by the cross-check, never a silent
        off-by-a-bit)."""
        tk = threshold_keypair
        rng = random.Random(3)
        value = 123_456
        c = encrypt(tk.public, value, rng=rng)
        partials = {
            s.index: partial_decrypt(tk.context, s, c) for s in tk.shares[:3]
        }
        forged = dict(partials)
        first = sorted(forged)[0]
        forged[first] = forged[first] * 7 % tk.public.n_s1
        result = combine_partial_decryptions(tk.context, forged)
        assert result != value

    def test_unenrolled_device_never_gets_a_slot(self):
        registry = DeviceRegistry(secret=b"k")
        with pytest.raises(PermissionError):
            registry.enroll(99, "not-a-token")
        assert not registry.is_authorized(99)


class TestMalformedProtocolInputs:
    def test_eesum_rejects_vector_length_mismatch(self, keypair128):
        rng = random.Random(4)
        pub = keypair128.public
        initial = {
            0: [encrypt(pub, 1, rng=rng)],
            1: [encrypt(pub, 1, rng=rng), encrypt(pub, 2, rng=rng)],
        }
        engine = GossipEngine(2, seed=4)
        protocol = EESum(pub, initial)
        engine.setup(protocol)
        with pytest.raises(ValueError):
            protocol.exchange(engine.nodes[0], engine.nodes[1])

    def test_decryption_stalls_without_enough_distinct_shares(self, threshold_keypair):
        """If the population holds fewer distinct key-shares than τ, the
        epidemic decryption never falsely reports completion."""
        tk = threshold_keypair
        rng = random.Random(5)
        c = encrypt(tk.public, 9, rng=rng)
        bundles = {i: ([c], 1, 0) for i in range(6)}
        # Everyone holds the *same* two shares — below τ = 3 distinct.
        shares = {i: tk.shares[i % 2] for i in range(6)}
        engine = GossipEngine(6, seed=5)
        protocol = EpidemicDecryption(tk.context, bundles, shares)
        engine.setup(protocol)
        engine.run_cycles(30, protocol)
        assert not protocol.all_done(engine.nodes)
        with pytest.raises(RuntimeError):
            protocol.plaintexts_of(engine.nodes[0])

    def test_codec_capacity_guard_trips_before_overflow(self, keypair128):
        """The protocol refuses configurations whose EESum scaling could
        silently wrap the plaintext space."""
        with pytest.raises(ValueError, match="plaintext space too small"):
            PackedCodec.plan(
                keypair128.public, fractional_bits=40, max_abs_value=1e6,
                exchanges=220,
            )
