"""The Lim–Lee comb behind every table-backed encryption.

* golden ciphertext digests recorded with the byte-digit table the comb
  replaced: the comb changes how a randomizer is computed, never which;
* comb ``pow_batch`` ≡ builtin ``pow`` at every shape the sizing rule
  returns, on edge exponents (0, 1, powers of two, all-ones bytes, the
  maximum) as well as random ones;
* the memory bounds: at most ``2^14`` residues per table, and digits
  gathered without a bit matrix of the batch.
"""

import functools
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import BLOCK_BYTES
from repro.crypto import bigint, generate_threshold_keypair
from repro.crypto.backend import ProcessPoolBackend, SerialBackend
from repro.crypto.damgard_jurik import FastEncryptor, encrypt_batch
from repro.crypto.numtheory import (
    _COMB_MAX_ENTRIES,
    FixedBaseTable,
    comb_shape,
    fixture_safe_primes,
)

BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in bigint.available_backends(), reason=f"{name} not installed"
        ),
    )
    for name in ("python", "gmpy2")
]

#: Encryption counts the sizing rule is pinned at: none, one, the object
#: plane's tens, the former window crossover, the two population-scale
#: reference workloads, and far past the cap.
USES = (0, 1, 54, 225, 6_660, 8_160, 10**6)
EXPONENT_BITS = (64, 256, 264)
SHAPES = sorted(
    {(bits, comb_shape(bits, uses)) for bits in EXPONENT_BITS for uses in USES}
)

MODULUS = fixture_safe_primes(64, count=2)[0] * fixture_safe_primes(64, count=2)[1]
BASE = 0x5DEECE66D


def _digest(ciphertexts: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, ciphertexts)).encode()).hexdigest()


#: sha256 of the ciphertexts, recorded with the byte-digit table: (key
#: bits, dealer kwargs, items, expected uses, seed) → digest.  The first
#: is the ``vcrypto_encrypt`` batch shape, the second ``object_decrypt``'s.
GOLDEN = [
    (
        256, {"n_shares": 9, "threshold": 3, "s": 1}, 2040, 8160, 13,
        "c4ab9a75629f2483efc589c5bfe0051393b9a50b2a9fef482fe20bb12512ec86",
    ),
    (
        1024, {"n_shares": 3, "threshold": 2}, 36, 54, 0,
        "8873de47ab4fdece56366590149a05059c0ae39b4787294247188fceccc6d815",
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "key_bits, dealer, count, uses, seed, digest",
    GOLDEN,
    ids=["vcrypto_encrypt", "object_decrypt"],
)
def test_ciphertexts_are_bit_identical_to_the_byte_digit_table(
    backend, key_bits, dealer, count, uses, seed, digest
):
    keypair = generate_threshold_keypair(key_bits, rng=random.Random(seed), **dealer)
    public = keypair.public
    with bigint.use_backend(backend):
        encryptor = FastEncryptor(public, random.Random(seed + 1), expected_uses=uses)
        draw = random.Random(seed + 2)
        plaintexts = [draw.randrange(public.n_s) for _ in range(count)]
        assert _digest(
            encrypt_batch(public, plaintexts, random.Random(seed + 3), encryptor)
        ) == digest
        assert _digest(
            SerialBackend(encryptor).encrypt_batch(
                public, plaintexts, random.Random(seed + 3)
            )
        ) == digest
        pool = ProcessPoolBackend(max_workers=2, encryptor=encryptor, min_batch=1)
        try:
            assert _digest(
                pool.encrypt_batch(public, plaintexts, random.Random(seed + 3))
            ) == digest
        finally:
            pool.close()


@functools.lru_cache(maxsize=None)
def _table(bits: int, shape: tuple[int, int]) -> FixedBaseTable:
    return FixedBaseTable(BASE, MODULUS, bits, shape)


@st.composite
def _exponents(draw, bits: int) -> list[int]:
    width = bits // 8
    return draw(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, (1 << bits) - 1]),
                st.integers(0, bits - 1).map(lambda k: 1 << k),
                st.integers(1, width).map(lambda n: (1 << 8 * n) - 1),
                st.integers(0, width - 1).map(lambda j: 0xFF << 8 * j),
                st.integers(0, (1 << bits) - 1),
            ),
            max_size=12,
        )
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "bits, shape", SHAPES, ids=[f"{bits}-{h}x{v}" for bits, (h, v) in SHAPES]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_comb_matches_builtin_pow(backend, bits, shape, data):
    exponents = data.draw(_exponents(bits))
    blob = b"".join(e.to_bytes(bits // 8, "little") for e in exponents)
    with bigint.use_backend(backend):
        got = _table(bits, shape).pow_batch(blob)
    assert got == [pow(BASE, e, MODULUS) for e in exponents]
    assert all(type(value) is int for value in got)


def test_the_rule_stays_under_the_cap():
    for bits in (8, 64, 256, 264, 1024, 2048):
        for uses in USES + (10**9,):
            teeth, blocks = comb_shape(bits, uses)
            assert blocks << teeth <= _COMB_MAX_ENTRIES
    with pytest.raises(ValueError, match="entries"):
        FixedBaseTable(BASE, MODULUS, 256, (12, 5))
    table = _table(256, comb_shape(256, 10**6))
    assert sum(map(len, table._rows)) == _COMB_MAX_ENTRIES


def _peak_beside_result(fn):
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def test_a_batch_gathers_digits_without_a_bit_matrix():
    """2 040 items (a ``vcrypto_encrypt`` batch) at a 512-bit modulus: the
    walk holds the batch's digits and two accumulator lists, and the digits
    are gathered one 128 KiB block of bits at a time — never a
    ``count × bits`` matrix (0.5 MB of uint8, 4.2 MB of int64)."""
    p, q = fixture_safe_primes(128, count=2)
    teeth, blocks = comb_shape(256, 8160)
    blob = random.Random(7).randbytes(32 * 2040)
    with bigint.use_backend("python"):
        table = FixedBaseTable(BASE, (p * q) ** 2, 256, (teeth, blocks))
        out, beside = _peak_beside_result(lambda: table.pow_batch(blob))
    assert len(out) == 2040
    assert beside < 0.5 * 2**20
    digits, beside = _peak_beside_result(
        lambda: bigint._comb_digits(blob, 32, teeth, table.spacing)
    )
    assert digits.shape == (table.spacing, 2040)
    assert beside < 3 * BLOCK_BYTES  # one block of bits plus einsum's buffers


def test_the_reference_benchmark_probe_call_still_works():
    """``perf/op.py`` times ``FixedBaseTable(base, modulus,
    max_exponent_bits=256).pow(e)`` at 512- and 2048-bit moduli."""
    rng = random.Random(0)
    for bits in (128, 512):
        p, q = fixture_safe_primes(bits, count=2)
        modulus = (p * q) ** 2
        base = rng.randrange(2, modulus)
        table = FixedBaseTable(base, modulus, max_exponent_bits=256)
        for exponent in [0, (1 << 256) - 1] + [rng.getrandbits(256) for _ in range(4)]:
            assert table.pow(exponent) == pow(base, exponent, modulus)
