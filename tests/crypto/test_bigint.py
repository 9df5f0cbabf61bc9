"""Tests for the pluggable bigint kernel (:mod:`repro.crypto.bigint`).

Two layers:

* kernel unit tests — every primitive against its naive counterpart on the
  always-available python backend;
* cross-backend property tests — random 512-bit keys/plaintexts/scalars
  asserting *bit-identical* ciphertexts, homomorphic sums, scalar
  multiplications and threshold decryptions between the ``python`` and
  ``gmpy2`` backends.  The gmpy2 leg auto-skips when the package is absent
  (the soft-dependency boundary under test in CI's default leg).
"""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import bigint
from repro.crypto.backend import SerialBackend
from repro.crypto.damgard_jurik import (
    FastEncryptor,
    _random_unit,
    decrypt,
    encrypt,
    generate_keypair,
    homomorphic_add,
    homomorphic_scalar_mul,
)
from repro.crypto.numtheory import FixedBaseTable, fixture_safe_primes, modinv
from repro.crypto.threshold import (
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
)
from repro.gossip.eesum import EESum
from repro.gossip.engine import Node

GMPY2 = "gmpy2" in bigint.available_backends()
needs_gmpy2 = pytest.mark.skipif(
    not GMPY2, reason="gmpy2 not installed (python backend is the default)"
)

M = (1 << 607) - 1  # a Mersenne prime: every nonzero value is invertible


class TestSelection:
    def test_python_always_available(self):
        assert "python" in bigint.available_backends()
        assert bigint.resolve_backend("python") == "python"

    def test_active_is_concrete(self):
        assert bigint.active_backend() in ("python", "gmpy2")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown bigint backend"):
            bigint.resolve_backend("fft")

    def test_env_var_drives_auto(self, monkeypatch):
        monkeypatch.setenv(bigint.BACKEND_ENV, "python")
        assert bigint.resolve_backend("auto") == "python"
        monkeypatch.setenv(bigint.BACKEND_ENV, "nonsense")
        with pytest.raises(ValueError, match="unknown bigint backend"):
            bigint.resolve_backend("auto")

    def test_explicit_name_overrides_env(self, monkeypatch):
        monkeypatch.setenv(bigint.BACKEND_ENV, "python")
        assert bigint.resolve_backend("python") == "python"

    def test_gmpy2_request_without_package_is_loud(self):
        if GMPY2:
            assert bigint.resolve_backend("gmpy2") == "gmpy2"
        else:
            with pytest.raises(ValueError, match="not installed"):
                bigint.resolve_backend("gmpy2")

    def test_use_backend_restores(self):
        before = bigint.active_backend()
        with bigint.use_backend("python") as name:
            assert name == "python" == bigint.active_backend()
        assert bigint.active_backend() == before


@st.composite
def _chain_inputs(draw):
    """A root ``r`` ≥ 2 (odd, even, prime power), bases at the ring's
    edges and an exponent of a telling shape, for the n-adic chain."""
    root = draw(
        st.one_of(
            st.integers(2, 1 << 96),
            st.integers(1, 96).map(lambda k: 1 << k),
            st.builds(pow, st.sampled_from([3, 5, 251, 65537]), st.integers(1, 5)),
        )
    )
    square = root * root
    base = st.one_of(
        st.sampled_from([0, 1, -1]),
        st.integers(-3 * square, -1),
        st.integers(0, 4 * root).map(lambda k: k * root),
        st.integers(square, 3 * square),
        st.integers(0, square - 1),
    )
    bits = 3 * root.bit_length()
    k = st.integers(0, bits)
    # Around the split ``e = E·root + e0``: ``E = 0`` (below the root, and
    # from the real 2⁶³ floor up when the root allows), ``e0 = 0`` and
    # ``e0 = 1``; ``e = root`` is FastEncryptor's ``h = r₀^n``.
    multiple = st.integers(1, 2 * root).map(lambda k: k * root)
    exponent = draw(
        st.one_of(
            st.just(1),
            k.map(lambda k: 1 << k),
            k.map(lambda k: (1 << k) + 1),
            st.integers(1, bits).map(lambda k: (1 << k) - 1),
            st.integers(1, bits).flatmap(lambda k: st.integers(1, (1 << k) - 1)),
            st.integers(min(1 << 63, root - 1), root - 1),
            st.integers(1, root - 1),
            st.just(root),
            multiple,
            multiple.map(lambda e: e + 1),
        )
    )
    return root, draw(st.lists(base, min_size=1, max_size=4)), exponent


def _real_size_cases():
    """Three inputs at the real cutoffs, built on the 1024-bit key's
    fixture primes: ``n²`` with a partial-decryption-length exponent,
    ``p²`` (the CRT half, root at 512 bits) and ``n²`` with an exponent
    exactly at the floor."""
    p, q = fixture_safe_primes(512, count=2)
    n = p * q
    rng = random.Random(5)
    return [
        (n, rng.getrandbits(2 * 1024 + 12)),
        (p, rng.getrandbits(2 * 512) | 1),
        (n, 1 << (bigint._NADIC_MIN_EXPONENT_BITS - 1)),
    ]


class TestKernelPrimitives:
    def test_powmod_matches_builtin(self):
        rng = random.Random(0)
        for _ in range(10):
            b, e = rng.getrandbits(512), rng.getrandbits(256)
            assert bigint.powmod(b, e, M) == pow(b, e, M)
        for root, e in _real_size_cases():
            square = root * root
            assert bigint._nadic_root(e, square) == root  # the chain runs
            for b in (rng.randrange(square), -rng.randrange(square), 7 * root):
                assert bigint.powmod(b, e, square) == pow(b, e, square)
        # Same size, but not a square / not a positive long exponent:
        # builtin pow, with its error contract.
        p, q = fixture_safe_primes(512, count=2)
        n = p * q
        e = rng.getrandbits(2 * 1024 + 12)
        for modulus, exponent in ((n * (n + 2), e), (n * n, 0), (n * n, -e)):
            assert bigint._nadic_root(exponent, modulus) == 0
            c = rng.randrange(modulus) | 1
            assert bigint.powmod(c, exponent, modulus) == pow(c, exponent, modulus)
        with pytest.raises(ValueError):
            bigint.powmod(p, -e, n * n)

    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=_chain_inputs())
    def test_powmod_chain_matches_builtin(self, monkeypatch, case):
        """With both cutoffs lowered, every square and positive exponent
        rides the n-adic chain and its split at the root; it must equal
        builtin pow bit for bit."""
        monkeypatch.setattr(bigint, "_NADIC_MIN_ROOT_BITS", 1)
        monkeypatch.setattr(bigint, "_NADIC_MIN_EXPONENT_BITS", 1)
        root, bases, e = case
        square = root * root
        assert bigint._nadic_root(e, square) == root
        expected = [pow(b, e, square) for b in bases]
        with bigint.use_backend("python"):
            assert bigint.powmod_batch(bases, e, square) == expected
            assert bigint.powmod(bases[0], e, square) == expected[0]

    def test_powmod_negative_exponent(self):
        assert bigint.powmod(3, -5, M) == pow(3, -5, M)

    def test_powmod_non_invertible_raises(self):
        with pytest.raises(ValueError):
            bigint.powmod(6, -1, 9)

    def test_powmod_batch(self):
        rng = random.Random(1)
        bases = [rng.getrandbits(512) for _ in range(17)]
        e = rng.getrandbits(300)
        assert bigint.powmod_batch(bases, e, M) == [pow(b, e, M) for b in bases]
        assert bigint.powmod_batch([], e, M) == []
        for root, e in _real_size_cases():
            square = root * root
            bases = [0, -1, root, 3 * square + 5, rng.randrange(square)]
            expected = [pow(b, e, square) for b in bases]
            assert bigint.powmod_batch(bases, e, square) == expected
            assert bigint.powmod_batch([], e, square) == []

    def test_invert_matches_modinv(self):
        rng = random.Random(2)
        for _ in range(10):
            v = rng.randrange(1, M)
            assert bigint.invert(v, M) == modinv(v, M) == pow(v, -1, M)

    def test_invert_batch_montgomery_trick(self):
        rng = random.Random(3)
        values = [rng.randrange(1, M) for _ in range(33)]
        assert bigint.invert_batch(values, M) == [modinv(v, M) for v in values]

    def test_invert_batch_edge_cases(self):
        assert bigint.invert_batch([], M) == []
        assert bigint.invert_batch([42], M) == [modinv(42, M)]
        with pytest.raises(ValueError):
            bigint.invert_batch([5, 6, 7], 9)  # gcd(6, 9) != 1

    @pytest.mark.parametrize("count", [1, 2, 4, 5, 9, 13])
    def test_multi_powmod_matches_product_of_pows(self, count):
        """Counts straddle the Straus group size (4) on both sides."""
        rng = random.Random(count)
        bases = [rng.getrandbits(512) for _ in range(count)]
        exps = [rng.randrange(-(1 << 300), 1 << 300) for _ in range(count)]
        expected = 1
        for b, e in zip(bases, exps):
            expected = expected * pow(b, e, M) % M
        assert bigint.multi_powmod(bases, exps, M) == expected

    def test_multi_powmod_edge_cases(self):
        assert bigint.multi_powmod([], [], M) == 1
        assert bigint.multi_powmod([7, 11], [0, 0], M) == 1
        assert bigint.multi_powmod([7], [5], M) == pow(7, 5, M)
        with pytest.raises(ValueError):
            bigint.multi_powmod([1, 2], [3], M)


def _square_of_fixture_key(prime_bits: int) -> int:
    p, q = fixture_safe_primes(prime_bits, count=2)
    return (p * q) ** 2


#: ``n²`` of the fixture keys: 512 bits (the ``vcrypto_*`` 256-bit key) and
#: 2048 bits (the paper's 1024-bit key).
MERGE_MODULI = (_square_of_fixture_key(128), _square_of_fixture_key(512))


@st.composite
def _merge_batches(draw):
    modulus = draw(st.sampled_from(MERGE_MODULI))
    length = draw(st.integers(0, 64))
    operands = st.lists(
        st.integers(0, 2 * modulus - 1), min_size=length, max_size=length
    )
    return modulus, draw(operands), draw(operands)


@pytest.mark.parametrize("backend", bigint.available_backends())
@settings(max_examples=60, deadline=None)
@given(batch=_merge_batches())
def test_mulmod_pairwise_is_the_per_item_product(backend, batch):
    """Over lists and 1-D object arrays alike, the merge kernel is
    ``[a·b mod m]``, as a 1-D object ndarray of plain ``int``, and leaves
    its operands as they were."""
    modulus, lefts, rights = batch
    expected = [a * b % modulus for a, b in zip(lefts, rights)]
    left_array = np.array(lefts, dtype=object)
    right_array = np.array(rights, dtype=object)
    with bigint.use_backend(backend):
        for operands in ((lefts, rights), (left_array, right_array)):
            got = bigint.mulmod_pairwise(*operands, modulus)
            assert isinstance(got, np.ndarray)
            assert got.dtype == object and got.shape == (len(lefts),)
            assert got.tolist() == expected
            assert all(type(value) is int for value in got)
    assert left_array.tolist() == lefts and right_array.tolist() == rights


def test_mulmod_pairwise_needs_equal_lengths():
    with pytest.raises(ValueError, match="equally long"):
        bigint.mulmod_pairwise([1, 2], [3], M)


@pytest.fixture(scope="module")
def key1024():
    """A 1024-bit threshold key and one ciphertext under it, built before
    any function-scoped spy is installed."""
    keypair = generate_threshold_keypair(
        1024, n_shares=3, threshold=2, rng=random.Random(0)
    )
    return keypair, encrypt(keypair.public, 123456789, rng=random.Random(1))


class TestNadicEngagement:
    """Which exponentiations ride the n-adic chain: long positive exponents
    modulo a square at or above the crossover, on the python backend —
    never the 256-bit planes, never the gossip ``2^gap`` scalings."""

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        calls = []
        chain = bigint._nadic_powmod_batch

        def spy(bases, exponent, root):
            calls.append(root.bit_length())
            return chain(bases, exponent, root)

        monkeypatch.setattr(bigint, "_nadic_powmod_batch", spy)
        return calls

    def test_toy_vectorized_crypto_run_stays_on_pow(self, chain_calls):
        from repro.api import Experiment, RunSpec

        spec = RunSpec.from_dict({
            "plane": "vectorized-crypto",
            "seed": 5,
            "strategy": "UF3",
            "dataset": {"kind": "cer",
                        "params": {"n_series": 24, "population_scale": 1}},
            "init": {"kind": "courbogen"},
            "params": {"k": 3, "max_iterations": 1, "exchanges": 2,
                       "epsilon": 2000.0, "key_bits": 256, "theta": 0.0,
                       "bigint_backend": "python"},
        })
        assert Experiment.from_spec(spec).run().iterations == 1
        assert chain_calls == []

    def test_object_plane_gap_scalings_stay_on_pow(self, chain_calls, key1024):
        """A 1024-bit key clears the root crossover; only the exponent
        floor keeps ``E(a)^(2^gap)`` on builtin pow."""
        keypair, ciphertext = key1024
        eesum = EESum(keypair.public, {i: [ciphertext] for i in range(3)})
        nodes = [Node(i) for i in range(3)]
        for node in nodes:
            eesum.setup(node)
        with bigint.use_backend("python"):
            for _ in range(12):
                eesum.exchange(nodes[0], nodes[1])
            eesum.exchange(nodes[2], nodes[0])  # scales node 2 by 2^12
        assert eesum.state_of(nodes[2]).count == 13
        assert chain_calls == []

    def test_one_partial_decryption_is_one_chain_call(self, chain_calls, key1024):
        keypair, ciphertext = key1024
        with bigint.use_backend("python"):
            partial = partial_decrypt(keypair.context, keypair.shares[0], ciphertext)
        assert chain_calls == [1024]
        exponent = 2 * keypair.context.delta * keypair.shares[0].value
        assert partial == pow(ciphertext, exponent, keypair.public.n_s1)

    @needs_gmpy2
    def test_gmpy2_keeps_gmp_powmod(self, chain_calls, key1024):
        keypair, ciphertext = key1024
        with bigint.use_backend("gmpy2"):
            partial_decrypt(keypair.context, keypair.shares[0], ciphertext)
        assert chain_calls == []


class TestExponentSplit:
    """The 1024-bit shapes the split serves, against builtin pow: every
    share's partial decryption (``E ≥ 1``, ``e0 ≠ 0``) and FastEncryptor's
    base ``h = r₀^n`` (``E = 1``, ``e0 = 0``)."""

    def test_every_partial_decryption_matches_pow(self, key1024):
        keypair, ciphertext = key1024
        n = keypair.public.n
        with bigint.use_backend("python"):
            for share in keypair.shares:
                exponent = 2 * keypair.context.delta * share.value
                assert exponent // n >= 1 and exponent % n
                expected = pow(ciphertext, exponent, keypair.public.n_s1)
                assert partial_decrypt(keypair.context, share, ciphertext) == expected

    def test_fast_encryptor_base_matches_pow(self, key1024):
        keypair, _ = key1024
        public = keypair.public
        assert bigint._nadic_root(public.n_s, public.n_s1) == public.n
        with bigint.use_backend("python"):
            encryptor = FastEncryptor(public, rng=random.Random(3))
        r0 = _random_unit(public, random.Random(3))
        assert encryptor.table.base == pow(r0, public.n, public.n_s1)


def _random_key_material(seed: int):
    """A 512-bit keypair plus threshold twin (deterministic per seed)."""
    private = generate_keypair(512, rng=random.Random(seed))
    threshold = generate_threshold_keypair(
        512, n_shares=7, threshold=4, rng=random.Random(seed)
    )
    return private, threshold


@needs_gmpy2
class TestCrossBackendIdentity:
    """Bit-identical crypto outputs between the python and gmpy2 kernels."""

    def _both(self, fn):
        with bigint.use_backend("python"):
            py = fn()
        with bigint.use_backend("gmpy2"):
            gm = fn()
        return py, gm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_primitives_identical(self, seed):
        rng = random.Random(seed)
        bases = [rng.getrandbits(512) for _ in range(9)]
        exps = [rng.randrange(-(1 << 256), 1 << 256) for _ in range(9)]
        e = rng.getrandbits(512)
        for fn in (
            lambda: bigint.powmod(bases[0], e, M),
            lambda: bigint.powmod_batch(bases, e, M),
            lambda: bigint.invert_batch(bases, M),
            lambda: bigint.multi_powmod(bases, exps, M),
        ):
            py, gm = self._both(fn)
            assert py == gm

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_ciphertexts_bit_identical(self, seed):
        private, _ = _random_key_material(seed)
        public = private.public
        rng = random.Random(seed)
        plaintexts = [rng.randrange(public.n_s) for _ in range(5)]
        py, gm = self._both(
            lambda: [
                encrypt(public, m, rng=random.Random(1000 + i))
                for i, m in enumerate(plaintexts)
            ]
        )
        assert py == gm
        for c, m in zip(py, plaintexts):
            assert decrypt(private, c) == m

    @pytest.mark.parametrize("seed", [20, 21])
    def test_fast_encryptor_and_backend_batches_identical(self, seed):
        private, _ = _random_key_material(seed)
        public = private.public
        plaintexts = [i * 7919 for i in range(12)]

        def batch():
            encryptor = FastEncryptor(public, random.Random(seed))
            backend = SerialBackend(encryptor)
            return backend.encrypt_batch(public, plaintexts, random.Random(seed))

        py, gm = self._both(batch)
        assert py == gm
        assert [decrypt(private, c) for c in py] == plaintexts

    @pytest.mark.parametrize("seed", [30, 31])
    def test_homomorphic_sum_and_scalar_mul_identical(self, seed):
        private, _ = _random_key_material(seed)
        public = private.public
        rng = random.Random(seed)
        a, b = rng.randrange(1 << 64), rng.randrange(1 << 64)
        scalar = rng.randrange(-(1 << 32), 1 << 32)
        c1 = encrypt(public, a, rng=random.Random(seed + 1))
        c2 = encrypt(public, b, rng=random.Random(seed + 2))

        py, gm = self._both(
            lambda: (
                homomorphic_add(public, c1, c2),
                homomorphic_scalar_mul(public, c1, scalar),
            )
        )
        assert py == gm
        assert decrypt(private, py[0]) == a + b
        assert decrypt(private, py[1]) == a * scalar % public.n_s

    @pytest.mark.parametrize("seed", [40, 41])
    def test_threshold_decryption_identical(self, seed, key1024):
        _, keypair = _random_key_material(seed)
        rng = random.Random(seed)
        value = rng.randrange(1 << 80)
        ciphertext = encrypt(keypair.public, value, rng=random.Random(seed + 1))
        subset = random.Random(seed + 2).sample(keypair.shares, 4)

        def run():
            partials = {
                s.index: partial_decrypt(keypair.context, s, ciphertext)
                for s in subset
            }
            return partials, combine_partial_decryptions(keypair.context, partials)

        (py_partials, py_value), (gm_partials, gm_value) = self._both(run)
        assert py_partials == gm_partials
        assert py_value == gm_value == value
        # At the paper's 1024-bit key the python leg runs the n-adic chain.
        big, big_ciphertext = key1024
        share = big.shares[seed % len(big.shares)]
        py, gm = self._both(
            lambda: partial_decrypt(big.context, share, big_ciphertext)
        )
        assert py == gm

    def test_fixed_base_table_identical_and_cache_swaps(self):
        table = FixedBaseTable(3, M, 256)
        e = random.Random(50).getrandbits(256)
        py, gm = self._both(lambda: table.pow(e))
        assert py == gm == pow(3, e, M)

    @pytest.mark.parametrize("teeth, blocks", [(7, 4), (11, 8)])
    def test_columnar_table_walks_native_rows_identically(self, teeth, blocks):
        table = FixedBaseTable(3, M, 256, (teeth, blocks))
        blob = random.Random(51).randbytes(32 * 9)
        exponents = [
            int.from_bytes(blob[i : i + 32], "little") for i in range(0, len(blob), 32)
        ]
        py, gm = self._both(lambda: table.pow_batch(blob))
        assert py == gm == [pow(3, e, M) for e in exponents]
        assert all(type(v) is int for v in gm)

    def test_decrypt_crt_identical(self):
        private, _ = _random_key_material(60)
        c = encrypt(private.public, 123456789, rng=random.Random(61))
        py, gm = self._both(lambda: decrypt(private, c))
        assert py == gm == 123456789


class TestRunScopedSelection:
    def test_explicit_run_kernel_does_not_leak_into_process_global(self):
        """A spec'd bigint_backend is scoped to the run (construction and
        iteration), never a lasting process-global mutation."""
        import numpy as np

        from repro.core import ChiaroscuroRun
        from repro.core.config import ChiaroscuroParams
        from repro.datasets.timeseries import TimeSeriesSet
        from repro.privacy.budget import Greedy

        before = bigint.active_backend()
        rng = np.random.default_rng(0)
        ds = TimeSeriesSet(
            values=rng.uniform(0, 2, size=(6, 4)), dmin=0, dmax=2, name="toy"
        )
        params = ChiaroscuroParams(
            k=2, max_iterations=1, theta=0.0, exchanges=3,
            key_bits=256, epsilon=1e6, bigint_backend="python",
        )
        run = ChiaroscuroRun(
            ds, Greedy(1e6), params, ds.values[:2].copy(), seed=0
        )
        assert run.bigint_backend == "python"
        assert bigint.active_backend() == before  # untouched by __init__
        list(run.run_iter())
        assert bigint.active_backend() == before  # restored after the run

    def test_powmod_batch_error_type_matches_contract(self):
        with pytest.raises(ValueError):
            bigint.powmod_batch([4], -1, 8)

    def test_interleaved_streamed_runs_restore_between_yields(self):
        """Per-iteration kernel scoping: at every suspension point of a
        streamed run the process-global selection is restored, so two
        interleaved runs (possibly on different kernels) never see each
        other's choice and nothing leaks after exhaustion."""
        import numpy as np

        from repro.core import ChiaroscuroRun
        from repro.core.config import ChiaroscuroParams
        from repro.datasets.timeseries import TimeSeriesSet
        from repro.privacy.budget import Greedy

        before = bigint.active_backend()
        rng = np.random.default_rng(1)
        ds = TimeSeriesSet(
            values=rng.uniform(0, 2, size=(6, 4)), dmin=0, dmax=2, name="toy"
        )
        kernels = ("python", "gmpy2") if GMPY2 else ("python", "python")

        def start(kernel):
            params = ChiaroscuroParams(
                k=2, max_iterations=2, theta=0.0, exchanges=3,
                key_bits=256, epsilon=1e6, bigint_backend=kernel,
            )
            run = ChiaroscuroRun(
                ds, Greedy(1e6), params, ds.values[:2].copy(),
                seed=0,
            )
            return run.run_iter()

        g1, g2 = start(kernels[0]), start(kernels[1])
        next(g1)
        assert bigint.active_backend() == before  # restored at the yield
        next(g2)
        assert bigint.active_backend() == before
        for g in (g1, g2):
            for _ in g:
                pass
        assert bigint.active_backend() == before


class TestFixedBaseTablePickle:
    def test_pickle_drops_native_cache_and_still_evaluates(self):
        table = FixedBaseTable(5, M, 128)
        clone = pickle.loads(pickle.dumps(table))
        e = random.Random(70).getrandbits(128)
        assert clone.pow(e) == table.pow(e) == pow(5, e, M)
