"""Unit + property tests for the Damgård–Jurik scheme."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    PublicKey,
    decrypt,
    dlog_1_plus_n,
    encrypt,
    generate_keypair,
    homomorphic_add,
    homomorphic_scalar_mul,
    powers_of_g,
)


class TestRoundTrip:
    def test_zero(self, keypair128, crypto_rng):
        c = encrypt(keypair128.public, 0, rng=crypto_rng)
        assert decrypt(keypair128, c) == 0

    def test_small_values(self, keypair128, crypto_rng):
        for value in (1, 2, 255, 10**9):
            c = encrypt(keypair128.public, value, rng=crypto_rng)
            assert decrypt(keypair128, c) == value

    def test_max_plaintext(self, keypair128, crypto_rng):
        top = keypair128.public.n_s - 1
        c = encrypt(keypair128.public, top, rng=crypto_rng)
        assert decrypt(keypair128, c) == top

    def test_s2_large_plaintext(self, keypair_s2, crypto_rng):
        value = 2**300 + 12345  # needs the expanded plaintext space
        c = encrypt(keypair_s2.public, value, rng=crypto_rng)
        assert decrypt(keypair_s2, c) == value

    def test_semantic_security_not_deterministic(self, keypair128, crypto_rng):
        c1 = encrypt(keypair128.public, 42, rng=crypto_rng)
        c2 = encrypt(keypair128.public, 42, rng=crypto_rng)
        assert c1 != c2
        assert decrypt(keypair128, c1) == decrypt(keypair128, c2) == 42


class TestHomomorphism:
    def test_addition(self, keypair128, crypto_rng):
        pub = keypair128.public
        c = homomorphic_add(
            pub,
            encrypt(pub, 1234, rng=crypto_rng),
            encrypt(pub, 8765, rng=crypto_rng),
        )
        assert decrypt(keypair128, c) == 9999

    def test_addition_wraps_modulo(self, keypair128, crypto_rng):
        pub = keypair128.public
        a = pub.n_s - 1
        c = homomorphic_add(
            pub, encrypt(pub, a, rng=crypto_rng), encrypt(pub, 2, rng=crypto_rng)
        )
        assert decrypt(keypair128, c) == 1

    def test_scalar_mul(self, keypair128, crypto_rng):
        pub = keypair128.public
        c = homomorphic_scalar_mul(pub, encrypt(pub, 321, rng=crypto_rng), 1000)
        assert decrypt(keypair128, c) == 321000

    def test_scalar_mul_negative(self, keypair128, crypto_rng):
        pub = keypair128.public
        c = homomorphic_scalar_mul(pub, encrypt(pub, 5, rng=crypto_rng), -3)
        assert decrypt(keypair128, c) == (-15) % pub.n_s

    def test_scalar_mul_power_of_two(self, keypair128, crypto_rng):
        """The EESum scaling operation: multiply by 2^j."""
        pub = keypair128.public
        c = encrypt(pub, 7, rng=crypto_rng)
        for j in (1, 5, 16):
            assert decrypt(keypair128, homomorphic_scalar_mul(pub, c, 1 << j)) == 7 << j

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(min_value=0, max_value=2**64), b=st.integers(min_value=0, max_value=2**64))
    def test_addition_law_property(self, keypair128, a, b):
        pub = keypair128.public
        rng = random.Random(a ^ b)
        c = homomorphic_add(
            pub, encrypt(pub, a, rng=rng), encrypt(pub, b, rng=rng)
        )
        assert decrypt(keypair128, c) == (a + b) % pub.n_s

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(min_value=0, max_value=2**48), k=st.integers(min_value=-1000, max_value=1000))
    def test_scalar_law_property(self, keypair128, a, k):
        pub = keypair128.public
        rng = random.Random(a * 31 + k)
        c = homomorphic_scalar_mul(pub, encrypt(pub, a, rng=rng), k)
        if k == 0:
            assert decrypt(keypair128, c) == 0
        else:
            assert decrypt(keypair128, c) == (a * k) % pub.n_s


class TestInternals:
    def test_powers_of_g_matches_pow(self, keypair128):
        pub = keypair128.public
        for a in (0, 1, 7, 123456789, pub.n_s - 1):
            assert powers_of_g(pub, a) == pow(pub.g, a, pub.n_s1)

    def test_powers_of_g_matches_pow_s2(self, keypair_s2):
        pub = keypair_s2.public
        for a in (0, 1, 2**200 + 5):
            assert powers_of_g(pub, a) == pow(pub.g, a, pub.n_s1)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_powers_of_g_hoisted_constants_every_s(self, keypair128, s):
        """One code path for every ``s``: falling factorials times the
        per-key ``n^i / i!`` constants — for one ``int`` and, elementwise,
        for an object array of them (whose input is left as it was)."""
        pub = PublicKey(n=keypair128.public.n, s=s)
        assert len(pub.g_coefficients) == s
        assert pub.g_coefficients[0] == pub.n
        values = [0, 1, 2, s, pub.n - 1, pub.n + 1, 2**200 + 5, pub.n_s - 1, pub.n_s]
        for a in values:
            assert powers_of_g(pub, a) == pow(pub.g, a, pub.n_s1)
        batch = np.array(values, dtype=object)
        got = powers_of_g(pub, batch)
        assert got.dtype == object
        assert got.tolist() == [pow(pub.g, a, pub.n_s1) for a in values]
        assert batch.tolist() == values

    def test_dlog_inverts_powers(self, keypair_s2):
        pub = keypair_s2.public
        for a in (0, 1, 17, 2**150, pub.n_s - 2):
            assert dlog_1_plus_n(pub, powers_of_g(pub, a)) == a


class TestKeyGeneration:
    def test_distinct_primes_required(self):
        assert generate_keypair(128, rng=random.Random(0)).p != generate_keypair(
            128, rng=random.Random(0)
        ).q

    def test_fresh_generation_small(self):
        kp = generate_keypair(64, use_fixtures=False, rng=random.Random(4))
        c = encrypt(kp.public, 99, rng=random.Random(5))
        assert decrypt(kp, c) == 99

    def test_d_is_crt_exponent(self, keypair128):
        pub = keypair128.public
        lam = (keypair128.p - 1) * (keypair128.q - 1) // __import__("math").gcd(
            keypair128.p - 1, keypair128.q - 1
        )
        assert keypair128.d % lam == 0
        assert keypair128.d % pub.n_s == 1


class TestCRTSplitDecryption:
    """decrypt() is CRT-split; it must be bit-identical to the reference
    single-modexp path, and measurably faster."""

    def test_bit_identical_s1(self, keypair128, crypto_rng):
        from repro.crypto.damgard_jurik import _decrypt_reference

        pub = keypair128.public
        values = [0, 1, 2**20 + 7, pub.n_s - 1, pub.n_s // 2 + 3]
        for value in values:
            c = encrypt(pub, value, rng=crypto_rng)
            assert decrypt(keypair128, c) == _decrypt_reference(keypair128, c) == value

    def test_bit_identical_s2(self, keypair_s2, crypto_rng):
        from repro.crypto.damgard_jurik import _decrypt_reference

        pub = keypair_s2.public
        for value in (0, 2**300 + 12345, pub.n_s - 1):
            c = encrypt(pub, value, rng=crypto_rng)
            assert decrypt(keypair_s2, c) == _decrypt_reference(keypair_s2, c) == value

    def test_bit_identical_after_homomorphic_ops(self, keypair128, crypto_rng):
        from repro.crypto.damgard_jurik import _decrypt_reference

        pub = keypair128.public
        c = homomorphic_scalar_mul(
            pub,
            homomorphic_add(
                pub,
                encrypt(pub, 12345, rng=crypto_rng),
                encrypt(pub, 67890, rng=crypto_rng),
            ),
            1 << 16,
        )
        assert decrypt(keypair128, c) == _decrypt_reference(keypair128, c)

    def test_bit_identical_at_1024_bits(self, crypto_rng):
        """The production key size; the timing claim itself lives in
        ``benchmarks/bench_fig5_local_costs.py`` (wall-clock assertions do
        not belong in a correctness suite)."""
        from repro.crypto.damgard_jurik import _decrypt_reference

        keypair = generate_keypair(1024, s=1, rng=random.Random(5))
        for value in (0, 1, 2**512 + 99):
            c = encrypt(keypair.public, value, rng=crypto_rng)
            assert decrypt(keypair, c) == _decrypt_reference(keypair, c) == value
