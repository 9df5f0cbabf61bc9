"""Shadow-execution identity for the real-ciphertext vectorized plane.

:class:`CipherEESum` must be *simultaneously* faithful to both references:

* its ciphertext side must match an object-engine :class:`EESum` run with
  real :class:`HomomorphicOps` on the same pairing schedule — the same
  Damgård–Jurik integers, operation for operation;
* its clear side (ω, the epidemic counter) must match the mock
  :class:`VectorizedEESum`'s float sequence bit for bit, because the
  computation step's counter estimates and RNG consumption key off those
  floats.

The schedule is drawn once from the vectorized engine and replayed on the
object engine (``run_pairing_cycle``), exactly as the existing mock-plane
shadow tests do.  Populations 64 and 256, with churn legs; the batch
algebra itself is also pinned bit-identical across the python/gmpy2
bigint kernels and the serial/process execution backends.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.crypto import bigint
from repro.crypto.backend import ProcessPoolBackend, SerialBackend
from repro.crypto.damgard_jurik import FastEncryptor
from repro.gossip import (
    EESum,
    GossipEngine,
    VectorizedEESum,
    VectorizedGossipEngine,
)
from repro.gossip.cipher_array import CipherArray, CipherEESum

GMPY2 = "gmpy2" in bigint.available_backends()
needs_gmpy2 = pytest.mark.skipif(
    not GMPY2, reason="gmpy2 not installed (python backend is the default)"
)

WIDTH = 2  # ciphertexts per node: enough to exercise vector semantics
CYCLES = 6


def _encrypt_rows(public, population: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    encryptor = FastEncryptor(public, rng)
    return [
        [encryptor.encrypt(node * WIDTH + j + 1, rng) for j in range(WIDTH)]
        for node in range(population)
    ]


def _shadow_run(public, population: int, churn: float, seed: int, backend=None):
    """One shared schedule through all three protocol implementations."""
    rows = _encrypt_rows(public, population, seed)

    cipher = CipherEESum(public, rows, backend=backend)
    # Mock reference: any values do — only ω/ctr floats are compared, and
    # those depend on the schedule alone.  Last column mirrors the
    # computation step's cleartext counter column.
    mock_values = np.ones((population, 2))
    mock = VectorizedEESum(mock_values)

    obj_engine = GossipEngine(population, seed=seed + 2)
    obj_eesum = EESum(public, {i: list(rows[i]) for i in range(population)})
    obj_engine.setup(obj_eesum)

    vec_engine = VectorizedGossipEngine(population, seed=seed + 1, churn=churn)
    for _ in range(CYCLES):
        left, right = vec_engine.run_cycle(cipher, mock)
        obj_engine.run_pairing_cycle(left, right, obj_eesum)
    return cipher, mock, obj_engine, obj_eesum


def scaled_omega(cipher: CipherEESum, node: int) -> int:
    """The object-plane integer ``ω·2^{count}`` this node denotes; raises if
    the normalized float has left the dyadic grid (mantissa exhausted)."""
    exact = Fraction(float(cipher.omega[node])) * (1 << int(cipher.count[node]))
    if exact.denominator != 1:
        raise ValueError("omega is no longer dyadic — mantissa exhausted")
    return int(exact)


@pytest.mark.parametrize("population", [64, 256])
@pytest.mark.parametrize("churn", [0.0, 0.25])
def test_ciphertexts_identical_to_object_engine(
    threshold_keypair, population, churn
):
    """Same schedule ⇒ the same Damgård–Jurik integers on every node."""
    cipher, mock, obj_engine, obj_eesum = _shadow_run(
        threshold_keypair.public, population, churn, seed=population
    )
    advanced = 0
    for node in obj_engine.nodes:
        i = node.node_id
        state = obj_eesum.state_of(node)
        assert state.count == int(cipher.count[i])
        assert state.ciphertexts == cipher.row(i)
        assert state.omega == scaled_omega(cipher, i)
        advanced += state.count > 0
    assert advanced > population // 2


@pytest.mark.parametrize("population", [64, 256])
def test_clear_side_identical_to_mock_plane(threshold_keypair, population):
    """ω and the epidemic counter are the mock plane's exact floats."""
    cipher, mock, _engine, _eesum = _shadow_run(
        threshold_keypair.public, population, churn=0.1, seed=population + 7
    )
    assert np.array_equal(cipher.omega, mock.omega)
    assert np.array_equal(cipher.count, mock.count)
    # The cleartext counter column travels through the same (a+b)·0.5 IEEE
    # sequence as the mock matrix's last column.
    assert np.array_equal(cipher.ctr, mock.values[:, -1])


def test_process_pool_backend_is_bit_identical(threshold_keypair):
    """Worker count cannot change a single ciphertext (batch ops are
    deterministic integer arithmetic; chunking is value-neutral)."""
    serial, *_ = _shadow_run(
        threshold_keypair.public, 64, churn=0.0, seed=64,
        backend=SerialBackend(),
    )
    pool_backend = ProcessPoolBackend(max_workers=2, min_batch=1)
    try:
        pooled, *_ = _shadow_run(
            threshold_keypair.public, 64, churn=0.0, seed=64,
            backend=pool_backend,
        )
    finally:
        pool_backend.close()
    assert np.array_equal(pooled.array.rows, serial.array.rows)
    assert np.array_equal(pooled.omega, serial.omega)


@needs_gmpy2
def test_bigint_kernels_are_bit_identical(threshold_keypair):
    """python and gmpy2 kernels produce the same exchange-round batches."""
    with bigint.use_backend("python"):
        py, *_ = _shadow_run(threshold_keypair.public, 64, 0.0, seed=464)
    with bigint.use_backend("gmpy2"):
        gm, *_ = _shadow_run(threshold_keypair.public, 64, 0.0, seed=464)
    assert np.array_equal(py.array.rows, gm.array.rows)


def test_crypto_seconds_accumulates(threshold_keypair):
    cipher, *_ = _shadow_run(threshold_keypair.public, 64, 0.0, seed=31)
    assert cipher.crypto_seconds > 0.0


class TestCipherArrayValidation:
    def test_rejects_ragged_rows(self, threshold_keypair):
        with pytest.raises(ValueError, match="equal width"):
            CipherArray(threshold_keypair.public, [[1, 2], [3]])

    def test_rejects_empty(self, threshold_keypair):
        with pytest.raises(ValueError, match="at least one row"):
            CipherArray(threshold_keypair.public, [])

    def test_eesum_needs_two_nodes(self, threshold_keypair):
        with pytest.raises(ValueError, match="population"):
            CipherEESum(threshold_keypair.public, [[1]])


def test_fault_engine_wrap_is_transparent(threshold_keypair):
    """The fault plane's vectorized wrapper drives CipherEESum unchanged:
    with no faults configured the wrapped run is bit-identical."""
    from repro.faults.engines import FaultyEngine
    from repro.faults.plan import FaultPlan

    public = threshold_keypair.public
    rows = _encrypt_rows(public, 32, seed=5)
    plain = CipherEESum(public, [list(r) for r in rows])
    wrapped = CipherEESum(public, [list(r) for r in rows])

    engine_a = VectorizedGossipEngine(32, seed=9)
    engine_b = FaultyEngine(
        VectorizedGossipEngine(32, seed=9), FaultPlan((), seed=9), iteration=1
    )
    engine_a.run_cycles(CYCLES, plain)
    engine_b.run_cycles(CYCLES, wrapped)
    assert np.array_equal(wrapped.array.rows, plain.array.rows)
    assert np.array_equal(wrapped.omega, plain.omega)
