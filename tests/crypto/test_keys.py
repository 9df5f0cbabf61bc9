"""Tests for key containers and the ciphertext-size accounting."""

import dataclasses
import math
import pickle

import pytest

from repro.crypto import PublicKey, ThresholdContext
from repro.crypto.damgard_jurik import decrypt, encrypt, generate_keypair


class TestPublicKey:
    def test_g_is_n_plus_one(self):
        pub = PublicKey(n=77, s=1)
        assert pub.g == 78

    def test_moduli(self):
        pub = PublicKey(n=77, s=2)
        assert pub.n_s == 77**2
        assert pub.n_s1 == 77**3

    def test_key_bits(self, keypair128):
        assert keypair128.public.key_bits in (255, 256)

    def test_ciphertext_bytes_s1(self, keypair128):
        # s = 1 → ciphertexts live mod n², about twice the key size.
        expected = (keypair128.public.n_s1.bit_length() + 7) // 8
        assert keypair128.public.ciphertext_bytes == expected
        assert 60 <= keypair128.public.ciphertext_bytes <= 66

    def test_derived_moduli_computed_once_per_key(self):
        """``n**s`` used to be recomputed on every property access (10⁵
        times per vectorized-crypto run); now the first access caches it."""
        pub = PublicKey(n=(1 << 127) - 1, s=2)
        for name in ("n_s", "n_s1", "g_coefficients"):
            assert getattr(pub, name) is getattr(pub, name)
        assert pub.plaintext_bits == pub.n_s.bit_length() - 1
        assert pub.ciphertext_bytes == (pub.n_s1.bit_length() + 7) // 8

    def test_caching_keeps_the_dataclass_contract(self):
        """Frozen, hashable, equal-by-fields, picklable — warm or cold."""
        warm, cold = PublicKey(n=77, s=2), PublicKey(n=77, s=2)
        warm.n_s, warm.n_s1, warm.plaintext_bits, warm.ciphertext_bytes
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.n = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.n_s = 5
        assert warm == cold and hash(warm) == hash(cold)
        assert {warm: 1}[cold] == 1
        assert repr(warm) == repr(cold) == "PublicKey(n=77, s=2)"
        assert warm != PublicKey(n=77, s=1)
        for key in (warm, cold):
            clone = pickle.loads(pickle.dumps(key))
            assert clone == key and hash(clone) == hash(key)
            assert clone.n_s1 == 77**3
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone.s = 1
        assert dataclasses.replace(warm, s=1).n_s == 77  # no stale cache

    def test_key_survives_a_pool_worker_round_trip(self, keypair128):
        from concurrent.futures import ProcessPoolExecutor

        public = keypair128.public
        public.n_s1  # ship it warm
        with ProcessPoolExecutor(max_workers=1) as pool:
            echoed, n_s1 = pool.submit(_echo_key, public).result()
        assert echoed == public and n_s1 == public.n**2

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            PublicKey(n=77, s=0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            PublicKey(n=2)


def _echo_key(public):
    return public, public.n_s1


class TestThresholdContext:
    def test_delta(self, keypair128):
        ctx = ThresholdContext(public=keypair128.public, n_shares=6, threshold=2)
        assert ctx.delta == math.factorial(6)

    def test_invalid_threshold(self, keypair128):
        with pytest.raises(ValueError):
            ThresholdContext(public=keypair128.public, n_shares=2, threshold=3)


class TestPaillierSpecialCase:
    """Plain Paillier is Damgård–Jurik at ``s = 1``."""

    def test_roundtrip(self, crypto_rng):
        kp = generate_keypair(128, s=1, rng=crypto_rng)
        ciphertext = encrypt(kp.public, 12345, rng=crypto_rng)
        assert ciphertext < kp.public.n**2
        assert decrypt(kp, ciphertext) == 12345
