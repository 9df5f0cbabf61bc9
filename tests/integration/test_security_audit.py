"""Information-flow audit — the executable shape of the Theorem 2 proof.

The proof of security enumerates every data structure communicated during
the computation step and checks each is (1) semantically-securely encrypted,
(2) differentially-private, or (3) independent of the input series and the
noise.  These tests walk the actual protocol structures and enforce that
trichotomy mechanically.
"""

import random

import numpy as np
import pytest

from repro.core import NoisePlan
from repro.core.computation import add_means
from repro.crypto import FixedPointCodec, PackedCodec, decrypt, encrypt_batch
from repro.gossip import EESum, GossipEngine


@pytest.fixture()
def packed(keypair128):
    return PackedCodec(
        keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=12
    )


def _encrypted_vector(series, label, share, packed, rng):
    """What a participant puts on the wire on a ciphertext plane: its noise
    share plus its means vector (its series and a count of 1 in cluster
    ``label``'s stripe), summed on the grid, packed and encrypted as one
    vector."""
    staged = share[None, :].copy()
    add_means(staged, np.array([label]), series[None, :], packed.fractional_bits)
    return encrypt_batch(packed.public, packed.pack(staged[0]), rng)


class TestCiphertextIndistinguishability:
    def test_assigned_and_unassigned_slots_look_alike(self, keypair128, packed):
        """An observer of the encrypted means must not tell which cluster a
        participant's series went to: ciphertext *sizes* and value ranges
        are identical across the packed vector, whichever stripe holds the
        series (semantic security provides the rest — the scheme is
        probabilistic, tested in crypto/)."""
        series = np.array([42.0, 17.0])
        plan = NoisePlan(k=3, series_length=2, dmin=0, dmax=50, epsilon=1e3, n_nu=10)
        shares = plan.draw_shares(np.random.default_rng(0), 3)
        rng = random.Random(0)
        vector = _encrypted_vector(series, 0, shares[0], packed, rng)
        assert len(vector) == packed.packed_length(3 * 3) > 1
        n_s1 = keypair128.public.n_s1
        assert all(0 < c < n_s1 for c in vector)
        # Re-encrypting yields entirely different ciphertexts (probabilistic).
        vector2 = _encrypted_vector(series, 0, shares[1], packed, rng)
        assert all(a != b for a, b in zip(vector, vector2))
        # Assigned elsewhere: same count, same range.
        moved = _encrypted_vector(series, 2, shares[2], packed, rng)
        assert len(moved) == len(vector)
        assert all(0 < c < n_s1 for c in moved)

    def test_noise_shares_travel_encrypted(self, keypair128, packed):
        """The share is folded into the participant's one encryption: what
        goes on the wire is the ciphertext of means + share, never the share
        itself."""
        series = np.array([4.0, 5.0, 6.0])
        plan = NoisePlan(k=2, series_length=3, dmin=0, dmax=10, epsilon=1.0, n_nu=10)
        share = plan.draw_shares(np.random.default_rng(0), 1)[0]
        means = np.concatenate([np.zeros(4), series, [1.0]])  # cluster 1's stripe
        ciphertexts = _encrypted_vector(series, 1, share, packed, random.Random(1))
        assert all(isinstance(c, int) for c in ciphertexts)
        plaintexts = [decrypt(keypair128, c) for c in ciphertexts]
        decoded = np.array(packed.unpack(plaintexts, plan.dimensions))
        assert np.allclose(decoded, means + share, atol=1e-4)


class TestExchangeSurface:
    def test_eesum_state_exposes_only_safe_fields(self, keypair128):
        """The EESum exchange surface is: ciphertexts (encrypted), ω and the
        exchange counter (data-independent).  Nothing else exists in the
        state object."""
        codec = FixedPointCodec(keypair128.public, fractional_bits=16)
        rng = random.Random(2)
        from repro.crypto import encrypt

        initial = {
            i: [encrypt(keypair128.public, codec.encode(float(i)), rng=rng)]
            for i in range(4)
        }
        engine = GossipEngine(4, seed=2)
        protocol = EESum(keypair128.public, initial)
        engine.setup(protocol)
        state = protocol.state_of(engine.nodes[0])
        assert set(state.__slots__) == {"ciphertexts", "omega", "count"}

    def test_omega_is_data_independent(self, keypair128):
        """ω depends only on the exchange schedule, never on series values."""
        codec = FixedPointCodec(keypair128.public, fractional_bits=16)
        from repro.crypto import encrypt

        omegas = []
        for payload in (1.0, 999.0):
            rng = random.Random(3)
            initial = {
                i: [encrypt(keypair128.public, codec.encode(payload), rng=rng)]
                for i in range(6)
            }
            engine = GossipEngine(6, seed=3)
            protocol = EESum(keypair128.public, initial)
            engine.setup(protocol)
            engine.run_cycles(5, protocol)
            omegas.append([protocol.state_of(n).omega for n in engine.nodes])
        assert omegas[0] == omegas[1]


class TestCollusionBoundary:
    def test_below_threshold_cannot_decrypt(self, threshold_keypair):
        """τ−1 partial decryptions yield nothing (combination refuses)."""
        from repro.crypto import combine_partial_decryptions, encrypt, partial_decrypt

        tk = threshold_keypair
        c = encrypt(tk.public, 123456, rng=random.Random(4))
        partials = {
            s.index: partial_decrypt(tk.context, s, c)
            for s in tk.shares[: tk.context.threshold - 1]
        }
        with pytest.raises(ValueError):
            combine_partial_decryptions(tk.context, partials)
