"""Unit tests for the number-theory primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import bigint
from repro.crypto.numtheory import (
    FixedBaseTable,
    crt_pair,
    fixture_safe_primes,
    gcd,
    is_probable_prime,
    lcm,
    modinv,
    random_safe_prime,
)


class TestMillerRabin:
    def test_small_primes(self):
        rng = random.Random(0)
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert is_probable_prime(p, rng=rng)

    def test_small_composites(self):
        rng = random.Random(1)
        for c in (0, 1, 4, 9, 15, 91, 7917, 561, 41041):  # incl. Carmichael
            assert not is_probable_prime(c, rng=rng)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1, rng=random.Random(2))  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime(2**128 + 1, rng=random.Random(3))

    def test_negative(self):
        assert not is_probable_prime(-7, rng=random.Random(4))

    def test_witnesses_come_from_the_given_stream(self):
        """No module-global fallback: the witness stream is the caller's,
        so a run's primality verdicts replay from its seed."""
        with pytest.raises(TypeError):
            is_probable_prime(7919)
        state = random.getstate()
        rng = random.Random(5)
        assert is_probable_prime(2**127 - 1, rounds=3, rng=rng)
        assert rng.getstate() != random.Random(5).getstate()
        assert random.getstate() == state


class TestPrimeGeneration:
    def test_safe_prime_structure(self):
        rng = random.Random(0)
        p = random_safe_prime(32, rng)
        assert is_probable_prime(p, rng=rng)
        assert is_probable_prime((p - 1) // 2, rng=rng)
        assert p.bit_length() == 32


class TestFixtures:
    @pytest.mark.parametrize("bits", [64, 96, 128, 192, 256, 512])
    def test_fixture_safe_primes_are_safe(self, bits):
        rng = random.Random(bits)
        for p in fixture_safe_primes(bits, count=2):
            assert p.bit_length() == bits
            assert is_probable_prime(p, rounds=10, rng=rng)
            assert is_probable_prime((p - 1) // 2, rounds=10, rng=rng)

    def test_fixtures_distinct(self):
        primes = fixture_safe_primes(128, count=4)
        assert len(set(primes)) == 4

    def test_missing_size_raises(self):
        with pytest.raises(KeyError):
            fixture_safe_primes(77, count=2)


class TestFixedBaseTable:
    def test_matches_builtin_pow(self):
        rng = random.Random(0)
        modulus = fixture_safe_primes(128, count=1)[0]
        base = rng.randrange(2, modulus)
        table = FixedBaseTable(base, modulus, max_exponent_bits=96)
        for _ in range(25):
            e = rng.getrandbits(96)
            assert table.pow(e) == pow(base, e, modulus)

    @pytest.mark.parametrize("teeth", [1, 3, 5, 8])
    def test_window_sizes_agree(self, teeth):
        modulus = 10**12 + 39
        for blocks in (1, 2, 5):
            table = FixedBaseTable(7, modulus, 64, (teeth, blocks))
            for e in (0, 1, 2, 63, 2**40 + 17, 2**64 - 1):
                assert table.pow(e) == pow(7, e, modulus)

    def test_exponent_zero_and_max(self):
        table = FixedBaseTable(3, 1009, 8)
        assert table.pow(0) == 1
        assert table.pow(255) == pow(3, 255, 1009)

    def test_out_of_range_exponent_rejected(self):
        table = FixedBaseTable(3, 1009, 8)
        with pytest.raises(ValueError):
            table.pow(256)
        with pytest.raises(ValueError):
            table.pow(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FixedBaseTable(3, 1, 8)
        with pytest.raises(ValueError):
            FixedBaseTable(3, 1009, 0)
        for shape in ((0, 1), (4, 0), (14, 2), (15, 1)):
            with pytest.raises(ValueError, match="entries"):
                FixedBaseTable(3, 1009, 8, shape)


BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in bigint.available_backends(), reason=f"{name} not installed"
        ),
    )
    for name in ("python", "gmpy2")
]
EDGE_EXPONENTS = [
    0,
    1,
    (1 << 64) - 1,  # all-0xFF
    0xAB00_0000_00CD_0001,  # interior zero bytes
    0x0100_0000_0000_0000,  # only the top byte set
    0x00FF_00FF_00FF_00FF,
]


def _blob(exponents, width=8):
    return b"".join(e.to_bytes(width, "little") for e in exponents)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("teeth", [4, 8])
class TestColumnarTable:
    """``pow_batch`` (comb columns applied once per batch) is the same
    function as ``bigint.powmod`` — for every exponent, at 4- and 8-teeth
    combs of two blocks, on both kernels."""

    MODULUS = fixture_safe_primes(64, count=2)[0] * fixture_safe_primes(64, count=2)[1]

    def test_edge_exponents(self, backend, teeth):
        with bigint.use_backend(backend):
            table = FixedBaseTable(5, self.MODULUS, 64, (teeth, 2))
            got = table.pow_batch(_blob(EDGE_EXPONENTS))
            assert got == [bigint.powmod(5, e, self.MODULUS) for e in EDGE_EXPONENTS]
            assert all(type(value) is int for value in got)  # no mpz leaks

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(min_value=2, max_value=(1 << 127)),
        exponents=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=(1 << 64) - 1),
                st.sampled_from(EDGE_EXPONENTS),
            ),
            max_size=12,
        ),
    )
    def test_matches_powmod_property(self, backend, teeth, base, exponents):
        with bigint.use_backend(backend):
            table = FixedBaseTable(base, self.MODULUS, 64, (teeth, 2))
            assert table.pow_batch(_blob(exponents)) == [
                bigint.powmod(base, e, self.MODULUS) for e in exponents
            ]
            assert [table.pow(e) for e in exponents] == table.pow_batch(
                _blob(exponents)
            )

    def test_ragged_blob_rejected(self, backend, teeth):
        with bigint.use_backend(backend):
            table = FixedBaseTable(5, self.MODULUS, 64, (teeth, 2))
            with pytest.raises(ValueError, match="8 bytes apiece"):
                table.pow_batch(bytes(12))
            with pytest.raises(ValueError):
                table.pow(1 << 64)  # the scalar range check is still there


class TestColumnarTableShape:
    def test_teeth_need_not_divide_eight(self):
        """A comb digit gathers bits, not bytes: any tooth count reads the
        same byte blob (the byte-digit table it replaced refused a 6-bit
        window)."""
        table = FixedBaseTable(3, 1009, 16, (6, 2))
        exponents = [0, 1, 0xBEEF, 0xFFFF]
        blob = b"".join(e.to_bytes(2, "little") for e in exponents)
        assert table.pow_batch(blob) == [pow(3, e, 1009) for e in exponents]

    def test_exponent_bits_must_fill_bytes(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            FixedBaseTable(3, 1009, 12, (4, 1)).pow_batch(bytes(2))

    def test_rows_carry_the_identity_at_digit_zero(self):
        table = FixedBaseTable(3, 1009, 16, (4, 4))
        assert all(row[0] == 1 and len(row) == 16 for row in table._rows)
        assert len(table._rows) == 4

    def test_blocks_the_exponent_does_not_fill_are_not_built(self):
        # 16 bits over 5 teeth: rows of 4 bits, so 7 blocks of 1 bit are 4.
        table = FixedBaseTable(3, 1009, 16, (5, 7))
        assert table.shape == (5, 4) and len(table._rows) == 4
        assert table.pow(0xFFFF) == pow(3, 0xFFFF, 1009)


class TestModularArithmetic:
    def test_modinv(self):
        assert modinv(3, 11) == 4
        assert 3 * modinv(3, 10**9 + 7) % (10**9 + 7) == 1

    def test_modinv_not_invertible(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_crt_pair(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    def test_crt_pair_large(self):
        m1, m2 = 2**61 - 1, 2**89 - 1
        x = crt_pair(0, m1, 1, m2)
        assert x % m1 == 0 and x % m2 == 1

    def test_crt_requires_coprime(self):
        with pytest.raises(ValueError):
            crt_pair(1, 4, 2, 6)

    def test_gcd_lcm(self):
        assert gcd(12, 18) == 6
        assert lcm(4, 6) == 12
        assert gcd(0, 5) == 5
