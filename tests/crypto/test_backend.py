"""Tests for the crypto execution backends (serial vs process-pool).

The contract under test: for the same master RNG state, every backend
produces bit-identical ciphertext batches — worker count, chunking, and
scheduling must not leak into results (a batch's whole randomness is one
stream drawn from the master RNG before dispatch).
"""

import pickle
import random

import numpy as np
import pytest

from repro.core import ChiaroscuroParams
from repro.crypto import bigint
from repro.crypto import (
    FastEncryptor,
    FixedBaseTable,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
    decrypt,
)
from repro.crypto.damgard_jurik import encrypt_batch


@pytest.fixture(scope="module")
def plaintexts():
    rng = random.Random(21)
    return [rng.randrange(1 << 32) for _ in range(12)]


class TestSerialBackend:
    def test_encrypts_decryptable_ciphertexts(self, threshold_keypair, plaintexts):
        backend = SerialBackend()
        cts = backend.encrypt_batch(
            threshold_keypair.public, plaintexts, random.Random(0)
        )
        assert [decrypt(threshold_keypair.private, c) for c in cts] == plaintexts

    def test_deterministic_given_seed(self, threshold_keypair, plaintexts):
        backend = SerialBackend()
        a = backend.encrypt_batch(threshold_keypair.public, plaintexts, random.Random(5))
        b = backend.encrypt_batch(threshold_keypair.public, plaintexts, random.Random(5))
        assert a == b

    def test_partial_decrypt_batch_matches_scalar(self, threshold_keypair, plaintexts):
        from repro.crypto import partial_decrypt

        backend = SerialBackend()
        cts = backend.encrypt_batch(
            threshold_keypair.public, plaintexts, random.Random(1)
        )
        share = threshold_keypair.shares[0]
        batch = backend.partial_decrypt_batch(threshold_keypair.context, share, cts)
        assert batch == [
            partial_decrypt(threshold_keypair.context, share, c) for c in cts
        ]


class TestProcessPoolBackend:
    def test_identical_to_serial(self, threshold_keypair, plaintexts):
        """The reproducibility guarantee: pool == serial, bit for bit."""
        serial = SerialBackend()
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        try:
            a = serial.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(7)
            )
            b = pool.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(7)
            )
            assert a == b
        finally:
            pool.close()

    def test_identical_with_fast_encryptor(self, threshold_keypair, plaintexts):
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(9), exponent_bits=128
        )
        serial = SerialBackend(encryptor)
        pool = ProcessPoolBackend(max_workers=2, encryptor=encryptor, min_batch=1)
        try:
            a = serial.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(8)
            )
            b = pool.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(8)
            )
            assert a == b
            assert [decrypt(threshold_keypair.private, c) for c in a] == plaintexts
        finally:
            pool.close()

    def test_partial_decrypt_identical_to_serial(self, threshold_keypair, plaintexts):
        serial = SerialBackend()
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        try:
            cts = serial.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(2)
            )
            share = threshold_keypair.shares[1]
            assert pool.partial_decrypt_batch(
                threshold_keypair.context, share, cts
            ) == serial.partial_decrypt_batch(threshold_keypair.context, share, cts)
        finally:
            pool.close()

    @pytest.mark.parametrize("length", [0, 3, 700])  # 700: past the pool floor
    def test_mulmod_batch_returns_an_object_vector(self, threshold_keypair, length):
        """Serial and pooled merges return one 1-D ``dtype=object`` ndarray
        of plain ``int`` (the pool concatenates its chunks), from list and
        object-array operands alike."""
        modulus = threshold_keypair.public.n_s1
        rng = random.Random(length)
        lefts = [rng.randrange(modulus) for _ in range(length)]
        rights = [rng.randrange(modulus) for _ in range(length)]
        expected = [a * b % modulus for a, b in zip(lefts, rights)]
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        try:
            for backend in (SerialBackend(), pool):
                for operands in (
                    (lefts, rights),
                    (np.array(lefts, dtype=object), np.array(rights, dtype=object)),
                ):
                    got = backend.mulmod_batch(*operands, modulus)
                    assert isinstance(got, np.ndarray)
                    assert got.dtype == object and got.shape == (length,)
                    assert got.tolist() == expected
                    assert all(type(value) is int for value in got)
            assert (pool._executor is not None) == (length >= 512)
        finally:
            pool.close()

    def test_small_batches_stay_in_process(self, threshold_keypair):
        pool = ProcessPoolBackend(max_workers=2, min_batch=100)
        cts = pool.encrypt_batch(threshold_keypair.public, [1, 2, 3], random.Random(3))
        assert pool._executor is None  # never spun up
        assert [decrypt(threshold_keypair.private, c) for c in cts] == [1, 2, 3]

    def test_close_is_reusable(self, threshold_keypair, plaintexts):
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        first = pool.encrypt_batch(
            threshold_keypair.public, plaintexts[:4], random.Random(4)
        )
        pool.close()
        second = pool.encrypt_batch(
            threshold_keypair.public, plaintexts[:4], random.Random(4)
        )
        pool.close()
        assert first == second


class TestStreamDiscipline:
    """One randomness stream, drawn before dispatch: the pool's chunking
    (4 chunks per worker) and its in-process fallback below ``min_batch``
    can land anywhere without moving a ciphertext bit."""

    @pytest.mark.parametrize("table", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_serial_equals_process_across_chunk_edges(
        self, threshold_keypair, workers, table
    ):
        public = threshold_keypair.public
        encryptor = FastEncryptor(public, random.Random(31)) if table else None
        serial = SerialBackend(encryptor)
        pool = ProcessPoolBackend(workers, encryptor=encryptor, min_batch=8)
        rng = random.Random(32)
        try:
            # 7/8/9 straddle min_batch; 4·workers ± 1 and 8·workers + 1
            # straddle the chunk count and leave a ragged last chunk.
            for size in (0, 1, 7, 8, 9, 4 * workers + 1, 8 * workers + 1, 37):
                plaintexts = [rng.randrange(public.n_s) for _ in range(size)]
                a = serial.encrypt_batch(public, plaintexts, random.Random(size))
                b = pool.encrypt_batch(public, plaintexts, random.Random(size))
                c = encrypt_batch(public, plaintexts, random.Random(size), encryptor)
                assert a == b == c
                assert [
                    decrypt(threshold_keypair.private, ct) for ct in a
                ] == plaintexts
        finally:
            pool.close()

    @pytest.mark.parametrize("expected_uses", [0, 10_000])
    def test_exponents_are_full_width_fresh_and_odd(
        self, threshold_keypair, monkeypatch, expected_uses
    ):
        public = threshold_keypair.public
        encryptor = FastEncryptor(
            public, random.Random(33), exponent_bits=128, expected_uses=expected_uses
        )
        # no table (a plain square-and-multiply) and an 11-teeth comb
        assert encryptor.table.shape == {0: (1, 1), 10_000: (11, 6)}[expected_uses]
        seen = []
        real = FixedBaseTable.pow_batch
        monkeypatch.setattr(
            FixedBaseTable,
            "pow_batch",
            lambda table, blob: seen.append(blob) or real(table, blob),
        )
        plaintexts = list(range(40))
        cts = SerialBackend(encryptor).encrypt_batch(
            public, plaintexts, random.Random(34)
        )
        assert [decrypt(threshold_keypair.private, c) for c in cts] == plaintexts
        (blob,) = seen  # the table is walked once for the whole batch
        exponents = [
            int.from_bytes(blob[i : i + 16], "little") for i in range(0, len(blob), 16)
        ]
        assert len(exponents) == len(plaintexts) == len(set(exponents))
        assert all(e & 1 for e in exponents)
        # the master stream verbatim, lowest bit forced: nothing shortened
        stream = random.Random(34).getrandbits(128 * 40)
        assert exponents == [
            (stream >> (128 * i)) & ((1 << 128) - 1) | 1 for i in range(40)
        ]
        assert max(e.bit_length() for e in exponents) == 128

    def test_scalar_encrypt_is_a_batch_of_one(self, threshold_keypair):
        public = threshold_keypair.public
        encryptor = FastEncryptor(public, random.Random(35))
        assert [encryptor.encrypt(77, random.Random(36))] == encrypt_batch(
            public, [77], random.Random(36), encryptor
        )

    def test_drawn_randomness_must_match_the_batch(self, threshold_keypair):
        from repro.crypto.damgard_jurik import draw_randomness, encrypt_drawn

        public = threshold_keypair.public
        for encryptor in (None, FastEncryptor(public, random.Random(37))):
            drawn = draw_randomness(public, 3, random.Random(38), encryptor)
            with pytest.raises(ValueError, match="one drawn randomizer"):
                encrypt_drawn(public, [1, 2], drawn, encryptor)


class TestEncryptorSizing:
    def test_exponent_bits_validated_not_truncated(self, threshold_keypair):
        for bad in (63, 56, 100, 257):
            with pytest.raises(ValueError, match="multiple of 8"):
                FastEncryptor(
                    threshold_keypair.public, random.Random(0), exponent_bits=bad
                )

    @pytest.mark.parametrize(
        "uses, window_bits", [(0, 4), (224, 4), (226, 8), (12_240, 8)]
    )
    def test_window_follows_expected_uses(self, threshold_keypair, uses, window_bits):
        """Build + uses × per-use cost is minimal: no table for an unknown
        count, 23 products + 2 squarings per 256-bit exponent at scale.  At
        every count the comb holds at most twice the ``⌈256/w⌉·2^w``
        residues of the byte-digit window ``w`` the former rule chose there
        (``⌈bits/w⌉·(uses + 2^w − 1)`` minimal, crossover ≈ 225)."""
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(0), expected_uses=uses
        )
        teeth, blocks = encryptor.table.shape
        assert (teeth, blocks) == {
            0: (1, 1), 224: (8, 4), 226: (8, 4), 12_240: (11, 8)
        }[uses]
        assert blocks << teeth <= 2 * (256 // window_bits << window_bits)

    def test_window_is_not_a_public_parameter(self):
        import inspect

        for fn in (
            FastEncryptor.__init__,
            create_backend,
        ):
            parameters = inspect.signature(fn).parameters
            assert "window_bits" not in parameters and "shape" not in parameters


def _worker_native_builds() -> int:
    """Executed *inside* a pool worker: its process-local build counter."""
    return FixedBaseTable.native_builds


class TestWarmup:
    """Fixed-base table construction is once-per-process, not per-round.

    ``FixedBaseTable.native_builds`` counts the expensive native-row
    (re)builds process-wide; a long run must pay it once per worker (via
    the pool initializer's ``warm()``), never per encryption batch.
    """

    def test_serial_rounds_never_rebuild(self, threshold_keypair):
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(17), exponent_bits=128
        ).warm()
        backend = SerialBackend(encryptor)
        before = FixedBaseTable.native_builds
        for round_no in range(6):
            backend.encrypt_batch(
                threshold_keypair.public, [1, 2, 3], random.Random(round_no)
            )
        assert FixedBaseTable.native_builds == before

    def test_unpickled_encryptor_warms_exactly_once(self, threshold_keypair):
        """The worker lifecycle, in-process: unpickling drops the native
        cache, ``warm()`` rebuilds it once, batches after that are free."""
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(19), exponent_bits=128
        )
        shipped = pickle.loads(pickle.dumps(encryptor))
        before = FixedBaseTable.native_builds
        shipped.warm()
        assert FixedBaseTable.native_builds == before + 1
        backend = SerialBackend(shipped)
        for round_no in range(4):
            backend.encrypt_batch(
                threshold_keypair.public, [4, 5, 6], random.Random(round_no)
            )
        assert FixedBaseTable.native_builds == before + 1

    def test_comb_batches_build_object_rows_once_per_backend(self):
        """N one- and two-item comb batches (the object plane's encryptions)
        pay one object-row build per table and backend — at construction,
        or on the first batch after a backend switch — never one per call."""
        blob = random.Random(29).randbytes(16 * 2)
        before = FixedBaseTable.native_builds
        with bigint.use_backend("python"):
            table = FixedBaseTable(3, (1 << 127) - 1, 128, (6, 3))
            for _ in range(8):
                table.pow_batch(blob[:16])
                table.pow_batch(blob)
        builds = before + 1
        assert FixedBaseTable.native_builds == builds
        for name in bigint.available_backends():
            with bigint.use_backend(name):
                for _ in range(8):
                    table.pow_batch(blob[:16])
                    table.pow_batch(blob)
                builds += name != "python"  # the cache holds one backend's rows
                assert FixedBaseTable.native_builds == builds
                rows, _ = table._native_rows()
                assert all(
                    isinstance(row, np.ndarray) and row.dtype == object
                    for row in rows
                )

    def test_pool_worker_builds_do_not_scale_with_rounds(
        self, threshold_keypair, plaintexts
    ):
        """Real pool leg: after N encrypt rounds the single worker's
        build counter equals what it was after round one."""
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(23), exponent_bits=128
        )
        pool = ProcessPoolBackend(max_workers=1, encryptor=encryptor, min_batch=1)
        try:
            pool.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(0)
            )
            builds_after_first = pool._pool().submit(_worker_native_builds).result()
            for round_no in range(1, 5):
                pool.encrypt_batch(
                    threshold_keypair.public, plaintexts, random.Random(round_no)
                )
            builds_after_many = pool._pool().submit(_worker_native_builds).result()
        finally:
            pool.close()
        assert builds_after_many == builds_after_first


class TestSelection:
    def test_create_backend_names(self):
        assert create_backend("serial").name == "serial"
        backend = create_backend("process", workers=2)
        assert backend.name == "process"
        assert backend.max_workers == 2
        backend.close()

    def test_create_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            create_backend("gpu")

    def test_params_accept_backend_fields(self):
        params = ChiaroscuroParams(crypto_backend="process", backend_workers=4)
        assert params.crypto_backend == "process"
        assert params.backend_workers == 4

    def test_params_reject_unknown_backend(self):
        with pytest.raises(ValueError, match="crypto_backend"):
            ChiaroscuroParams(crypto_backend="quantum")

    def test_params_reject_negative_workers(self):
        with pytest.raises(ValueError, match="backend_workers"):
            ChiaroscuroParams(backend_workers=-1)
