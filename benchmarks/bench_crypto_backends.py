"""Bigint backend comparison — python vs gmpy2 across 1024/2048-bit keys.

The pluggable arithmetic kernel (:mod:`repro.crypto.bigint`) claims two
things: the gmpy2 fast path makes the computation-step crypto several
times faster, and backend choice never changes a single bit of output.
This bench measures the first and asserts the second, emitting
``BENCH_crypto_backends.json`` (both under ``out/`` and mirrored at the
repo root) so the python↔gmpy2 gap is tracked across PRs.

Workload per (key size, backend): the Fig. 5(a) computation-step shape —
encrypt one set of means, homomorphically add two sets, threshold-decrypt
the result (τ partial decryptions + Straus-combined Lagrange
recombination) — timed by :func:`conftest.time_run_calls` on the calls a
vectorized-crypto run makes: packed sets, the run's table-backed
encryptor, batched partial decryption.

gmpy2 is a soft dependency: when it is absent (the default CI leg), the
python path is still measured and the record says
``"gmpy2": null`` / ``"speedup": null`` — the file stays emitted and
diffable either way.

Pure-python leg, python 3.11.7 on a 2-core x86-64 VM, three alternating
runs per side, seconds (encrypt / decrypt / computation step) on the
run's calls:

* before the exponent split (``ddbcee7``): 1024-bit 0.006–0.007 /
  0.59–0.74 / 0.59–0.74; 2048-bit 0.005–0.006 / 1.02–1.21 / 1.03–1.21;
* with it (the n-adic chain squares once per bit of ``n`` instead of
  once per bit of the ``≈ 2·bits(n)`` exponent): 1024-bit 0.006–0.007 /
  0.43–0.64 / 0.44–0.65; 2048-bit 0.004–0.007 / 0.70–0.97 / 0.70–0.98.

Before ``ddbcee7`` the bench timed a per-value stopwatch (one plain ``encrypt``
and one ``partial_decrypt`` per value, no packing).  On it the n-adic
chain took the 1024-bit total from 5.79–5.96 s to 3.97–4.07 s and the
2048-bit total from 12.70–13.02 s to 7.76–7.83 s.

The python leg's 1024-bit computation step got 1.46× faster then, and
≈ 1.1–1.5× faster again with the split (per alternating pair).  The gmpy2 leg runs none of that
code, so the GMP advantage that cleared the old 3× floor read ≈ 3 / 1.46
≈ 2.05× after the chain and reads less again now: the 2× floor is left
as it is.  The gmpy2 leg runs in CI only; its ratio at this revision is
unmeasured here, and so is how the floor fares on the run's calls.
"""

from __future__ import annotations

import random

from conftest import record_json, record_report, time_run_calls
from repro.crypto import bigint, encrypt, generate_threshold_keypair
from repro.crypto.threshold import combine_partial_decryptions, partial_decrypt

#: Per-key-size workload: k means × (series_length + 1) values, packed
#: as a run packs them.  Sized so the pure-python leg stays seconds
#: (2048-bit pure-python modexps cost ~100 ms each).
WORKLOADS = {
    1024: {"k": 6, "series_length": 9},
    2048: {"k": 3, "series_length": 5},
}

OPS = ("encrypt", "add", "decrypt")


def _keypair(bits: int):
    return generate_threshold_keypair(
        bits, n_shares=5, threshold=3, s=1, rng=random.Random(0)
    )


def _measure(bits: int, backend: str, workload: dict) -> tuple[dict, int]:
    """Seconds per op and the run's ciphertexts per set."""
    with bigint.use_backend(backend):
        costs = time_run_calls(bits, **workload)
    return {op: float(costs.seconds[op]) for op in OPS}, costs.ciphertexts


def _identity_probe(keypair, backend: str) -> tuple[list[int], list[int], int]:
    """Ciphertexts, partial decryptions and combined plaintext, all seeded —
    compared across backends bit for bit."""
    with bigint.use_backend(backend):
        ciphertexts = [
            encrypt(keypair.public, 1_000_003 * (i + 1), rng=random.Random(100 + i))
            for i in range(4)
        ]
        partials = {
            share.index: partial_decrypt(keypair.context, share, ciphertexts[0])
            for share in keypair.shares[:3]
        }
        combined = combine_partial_decryptions(keypair.context, partials)
    return ciphertexts, sorted(partials.values()), combined


def test_crypto_backend_comparison():
    backends = bigint.available_backends()
    results: dict[str, dict] = {}
    rows: list[str] = [
        f"{'key bits':<10}{'backend':<10}"
        + "".join(f"{op + ' (s)':>14}" for op in OPS)
        + f"{'total':>12}"
    ]

    for bits, workload in WORKLOADS.items():
        keypair = _keypair(bits)
        per_backend: dict[str, dict | None] = {"python": None, "gmpy2": None}
        for backend in backends:
            seconds, ciphertexts = _measure(bits, backend, workload)
            seconds["computation_step"] = sum(seconds[op] for op in OPS)
            per_backend[backend] = seconds
            rows.append(
                f"{bits:<10}{backend:<10}"
                + "".join(f"{seconds[op]:>14.3f}" for op in OPS)
                + f"{seconds['computation_step']:>12.3f}"
            )

        speedup = None
        if per_backend["gmpy2"] is not None:
            speedup = {
                op: per_backend["python"][op] / max(per_backend["gmpy2"][op], 1e-12)
                for op in (*OPS, "computation_step")
            }
            rows.append(
                f"{bits:<10}{'speedup':<10}"
                + "".join(f"{speedup[op]:>14.1f}" for op in OPS)
                + f"{speedup['computation_step']:>12.1f}"
            )
            # ≥ 2× on the computation step with gmpy2 at 1024-bit (the
            # module docstring derives it; 2048-bit gains are larger still).
            if bits == 1024:
                assert speedup["computation_step"] >= 2.0, speedup

        identical = True
        probes = [_identity_probe(keypair, backend) for backend in backends]
        identical = all(probe == probes[0] for probe in probes)
        assert identical, "backend choice changed a crypto output bit"

        results[str(bits)] = {
            "workload": dict(workload),
            "ciphertexts": ciphertexts,
            "seconds": per_backend,
            "speedup": speedup,
            "bit_identical_across_backends": identical,
        }

    rows.append(
        "backends available: "
        + ", ".join(backends)
        + ("" if "gmpy2" in backends else "  (gmpy2 absent: soft dependency)")
    )
    record_report(
        "crypto_backends",
        "Bigint kernel: python vs gmpy2 computation-step costs",
        rows,
    )
    record_json(
        "crypto_backends",
        {
            "backends_available": list(backends),
            "ops": list(OPS),
            "key_sizes": results,
        },
    )
