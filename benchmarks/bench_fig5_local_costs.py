"""Figure 5 — unitary local costs for a set of 50 means, 20 measures per
mean, and a 1024-bit encryption key.

(a) wall-times for encrypting a set of means, adding two encrypted sets,
    and threshold-decrypting a set, timed on the calls a vectorized-crypto
    run makes (:func:`conftest.time_run_calls`): packed sets, the run's
    table-backed encryptor, batched τ-share decryption;
(b) bandwidth for transferring one set of encrypted means: the paper's
    one-ciphertext-per-value layout beside the packed set a run sends.

Absolute times differ from the paper's Java measurements (pure-Python
big-int arithmetic); the *ordering* — add ≪ encrypt < decrypt, with
decrypt the dominant per-iteration cost — and the bandwidth arithmetic are
the reproduced shapes.

``test_fig5_run_smoke`` is the fast CI subset: a small key and few means,
seconds instead of minutes.
"""

from __future__ import annotations

import pytest

from conftest import record_json, record_report, time_run_calls

K = 50
MEASURES = 20
KEY_BITS = 1024


def _set_bytes(costs, k: int, series_length: int) -> tuple[int, int]:
    """One means set on the wire: the paper's ``k·(n+1)`` ciphertexts and
    the run's ``packed_length(k·(n+1))``."""
    ciphertext_bytes = costs.run.keypair.public.ciphertext_bytes
    values = k * (series_length + 1)
    return (
        values * ciphertext_bytes,
        costs.run.packed.packed_length(values) * ciphertext_bytes,
    )


def _rows(costs) -> list[str]:
    packed = costs.run.packed
    rows = [f"{'operation':<10}{'seconds':>12}"]
    rows += [f"{op:<10}{s:>12.3f}" for op, s in costs.seconds.items()]
    rows.append(
        f"{costs.ciphertexts} ciphertexts per set ({packed.slots} slots of "
        f"{packed.slot_bits} bits), τ = {costs.run.keypair.context.threshold}"
    )
    return rows


@pytest.fixture(scope="module")
def costs_1024():
    return time_run_calls(KEY_BITS, K, MEASURES)


def test_fig5a_crypto_times(costs_1024):
    seconds = costs_1024.seconds
    record_report(
        "fig5a_local_times",
        f"Fig 5(a): times for one set of {K} means × {MEASURES} measures, "
        f"{KEY_BITS}-bit key",
        _rows(costs_1024),
    )
    record_json(
        "fig5a_local_times",
        {
            "k": K,
            "series_length": MEASURES,
            "key_bits": KEY_BITS,
            "exchanges": costs_1024.run.params.exchanges,
            "threshold": costs_1024.run.keypair.context.threshold,
            "ciphertexts_per_set": costs_1024.ciphertexts,
            "seconds": {op: float(s) for op, s in seconds.items()},
        },
    )
    assert seconds["add"] < seconds["encrypt"]
    assert seconds["add"] < seconds["decrypt"]
    assert seconds["decrypt"] == max(seconds.values())


def test_fig5_run_smoke():
    """CI smoke: the same calls at a 512-bit key, in seconds."""
    k, measures = 10, 8
    costs = time_run_calls(512, k, measures)
    record_report(
        "fig5_run_smoke",
        f"Fig 5 smoke: {k} means × {measures} measures, 512-bit key",
        _rows(costs),
    )
    record_json(
        "fig5_run_smoke",
        {
            "k": k,
            "series_length": measures,
            "key_bits": 512,
            "ciphertexts_per_set": costs.ciphertexts,
            "seconds": {op: float(s) for op, s in costs.seconds.items()},
        },
    )
    seconds = costs.seconds
    assert seconds["add"] < seconds["encrypt"] < seconds["decrypt"]
    ciphertext_bytes = costs.run.keypair.public.ciphertext_bytes
    assert costs.ciphertexts * ciphertext_bytes == _set_bytes(costs, k, measures)[1]


def test_fig5b_bandwidth(costs_1024):
    paper_bytes, packed_bytes = _set_bytes(costs_1024, K, MEASURES)
    kb, packed_kb = paper_bytes / 1024, packed_bytes / 1024
    transfer_seconds = paper_bytes * 8 / 1e6
    rows = [
        f"one means set, one ciphertext per value: {kb:.1f} kB",
        f"one means set as a run packs it: {packed_kb:.1f} kB",
        f"epidemic-sum exchange (2 sets): {2 * kb:.1f} kB",
        f"decryption exchange (4 sets): {4 * kb:.1f} kB",
        f"transfer time at 1 Mb/s: {transfer_seconds:.2f} s",
    ]
    record_report(
        "fig5b_bandwidth",
        f"Fig 5(b): bandwidth for one set of {K} encrypted means ({KEY_BITS}-bit key)",
        rows,
    )
    record_json(
        "fig5b_bandwidth",
        {
            "k": K,
            "series_length": MEASURES,
            "key_bits": KEY_BITS,
            "means_set_kb": float(kb),
            "packed_means_set_kb": float(packed_kb),
            "transfer_seconds_at_1mbps": float(transfer_seconds),
        },
    )
    # Paper: "a hundredth of kilo-bytes per transfer", ~1 s at 1 Mb/s.
    # Exact kB depends on whether counts ride along (ours do): 50 × 21
    # ciphertexts × 256 B = 262.5 kB vs the paper's ~135 kB for 50 × 20 ×
    # 1024-bit ciphertext halves — same order of magnitude.
    assert 100 <= kb <= 400
    assert transfer_seconds < 5.0


def test_fig5_crt_split_decrypt(costs_1024):
    """CRT-split decryption vs the single-modexp reference (Fig. 5(a)
    "Decrypt" bar).  Interleaved best-of-rounds so transient CI stalls
    cannot flip the ratio; correctness (bit-identity) is asserted in
    tests/crypto, this bench tracks the speedup."""
    import random
    import time

    from repro.crypto.damgard_jurik import _decrypt_reference, decrypt, encrypt

    keypair = costs_1024.run.keypair
    private = keypair.private
    rng = random.Random(6)
    ciphertexts = [encrypt(keypair.public, v, rng=rng) for v in range(20)]
    fast_best, slow_best = float("inf"), float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fast = [decrypt(private, c) for c in ciphertexts]
        mid = time.perf_counter()
        slow = [_decrypt_reference(private, c) for c in ciphertexts]
        end = time.perf_counter()
        assert fast == slow
        fast_best = min(fast_best, mid - start)
        slow_best = min(slow_best, end - mid)
    speedup = slow_best / fast_best
    rows = [
        f"reference decrypt: {slow_best / 20 * 1e3:.2f} ms/op",
        f"CRT-split decrypt: {fast_best / 20 * 1e3:.2f} ms/op",
        f"speedup: {speedup:.2f}x (expected ~3-4x at 1024 bits)",
    ]
    record_report(
        "fig5_crt_split",
        f"Fig 5(a) extension: CRT-split decryption, {KEY_BITS}-bit key",
        rows,
    )
    record_json(
        "fig5_crt_split",
        {
            "key_bits": KEY_BITS,
            "reference_seconds_per_op": float(slow_best / 20),
            "crt_seconds_per_op": float(fast_best / 20),
            "speedup": float(speedup),
        },
    )
    assert speedup > 1.5
