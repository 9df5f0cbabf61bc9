"""The vectorized-crypto frontier: every exchange carries real ciphertexts.

Two measurements, both landing in ``out/BENCH_vectorized_crypto.json``
(mirrored to the repo root for the cross-PR trajectory):

1. **identity** — at small n the plane's decoded centroids are digested
   and pinned bit-identical across the serial and process-pool crypto
   backends, across the python/gmpy2 bigint kernels (when gmpy2 is
   present), and against the mock ``vectorized`` plane — the proof that
   the frontier numbers below measure the *same* computation;
2. **frontier** — one full Chiaroscuro iteration with genuine packed
   Damgård–Jurik ciphertexts on every gossip exchange, at ≥ 10⁴
   participants on the pure-python kernel and ≥ 10⁵ when gmpy2 carries
   the arithmetic, with the PackedCodec amortization (slots/ciphertext,
   ciphertexts per node vs. the unpacked layout) recorded alongside the
   wall-clock and crypto-time split.

``test_vectorized_crypto_smoke`` is the CI job's wall-clock-guarded
subset.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from conftest import record_report, record_json
from repro.api import Experiment, IterationCompleted, RunSpec, run_record
from repro.crypto import bigint
from repro.gossip.vectorized_protocol import pairing_cycles

GMPY2 = "gmpy2" in bigint.available_backends()


def _digest(result) -> str:
    """One hash over every decoded centroid coordinate of the run."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.centroids).tobytes())
    for stats in result.history:
        h.update(np.ascontiguousarray(stats.centroids).tobytes())
        h.update(np.float64(stats.pre_inertia).tobytes())
    return h.hexdigest()


def _small_spec(plane: str = "vectorized-crypto", **params) -> RunSpec:
    """The shadow-identity workload: 24 CER curves, 3 full iterations."""
    base = {"k": 3, "max_iterations": 3, "exchanges": 2, "epsilon": 2000.0,
            "key_bits": 256, "theta": 0.0}
    base.update(params)
    return RunSpec.from_dict({
        "name": "vectorized-crypto-identity",
        "plane": plane,
        "seed": 5,
        "strategy": "UF3",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 24, "population_scale": 1}},
        "init": {"kind": "courbogen"},
        "params": base,
    })


def _frontier_spec(population: int, key_bits: int = 256) -> RunSpec:
    """One-iteration run at bench scale: 2-D points, k=3, 2 exchanges."""
    return RunSpec.from_dict({
        "name": f"vectorized-crypto-{population}",
        "plane": "vectorized-crypto",
        "seed": 0,
        "strategy": "G",
        "dataset": {"kind": "points2d",
                    "params": {"n_clusters": 3,
                               "points_per_cluster": -(-population // 3),
                               "duplications": 1}},
        "init": {"kind": "sample"},
        "params": {"k": 3, "max_iterations": 1, "exchanges": 2,
                   "epsilon": 10.0, "key_bits": key_bits, "theta": 0.0,
                   "crypto_backend": "process"},
    })


def _run_frontier(population: int) -> dict:
    spec = _frontier_spec(population)
    experiment = Experiment.from_spec(spec)
    crypto_ms = []
    result = None
    start = time.perf_counter()
    for event in experiment.run_iter():
        if isinstance(event, IterationCompleted):
            crypto_ms.append(float(event.crypto_ms))
        elif hasattr(event, "result"):
            result = event.result
    elapsed = time.perf_counter() - start
    run = experiment.context.runtime  # the ChiaroscuroRun the plane built
    packed = run.packed
    dims = spec.params.k * (run.dataset.n + 1)
    ciphertexts_per_node = packed.packed_length(dims)
    actual_population = run.dataset.t
    cycles = pairing_cycles(spec.params.exchanges)
    # Exchange volume: each EESum cycle multiplies ~population/2 merged
    # rows of `ciphertexts_per_node` ciphertexts on both pair sides.
    exchange_ciphertexts = actual_population * cycles * ciphertexts_per_node
    crypto_seconds = sum(crypto_ms) / 1000.0
    return {
        "population": int(actual_population),
        "dims": int(dims),
        "key_bits": spec.params.key_bits,
        "exchanges": spec.params.exchanges,
        "iterations_completed": int(result.iterations),
        "seconds_total": float(elapsed),
        "crypto_seconds": float(crypto_seconds),
        "crypto_share": float(crypto_seconds / elapsed) if elapsed else None,
        "packing": {
            "slots_per_ciphertext": int(packed.slots),
            "slot_bits": int(packed.slot_bits),
            "ciphertexts_per_node": int(ciphertexts_per_node),
            "unpacked_ciphertexts_per_node": int(dims),
            "amortization": float(dims / ciphertexts_per_node),
        },
        "exchange_ciphertexts": int(exchange_ciphertexts),
        "us_per_exchanged_ciphertext": float(
            crypto_seconds * 1e6 / max(exchange_ciphertexts, 1)
        ),
        "digest": _digest(result),
        "run_record": run_record(
            spec, result, timings={"wall_seconds": float(elapsed)}
        ),
    }


def _identity_digests() -> dict:
    digests = {}
    serial = Experiment.from_spec(
        _small_spec(bigint_backend="python")
    ).run()
    digests["serial_python"] = _digest(serial)
    pooled = Experiment.from_spec(
        _small_spec(bigint_backend="python", crypto_backend="process",
                    backend_workers=2)
    ).run()
    digests["process_python"] = _digest(pooled)
    mock = Experiment.from_spec(_small_spec(plane="vectorized")).run()
    digests["mock_vectorized"] = _digest(mock)
    if GMPY2:
        gm = Experiment.from_spec(_small_spec(bigint_backend="gmpy2")).run()
        digests["serial_gmpy2"] = _digest(gm)
    return digests


def test_vectorized_crypto_smoke(benchmark):
    """CI leg: identity digests + one frontier point, wall-clock-guarded.

    The frontier population is gated by the active arithmetic: ≥ 10⁴
    participants on the pure-python kernel, ≥ 10⁵ once gmpy2 carries the
    bigint work — every exchange a real packed Damgård–Jurik batch.
    """
    start = time.perf_counter()
    digests = _identity_digests()
    assert len(set(digests.values())) == 1, digests

    population = 100_000 if GMPY2 else 10_000
    frontier = _run_frontier(population)
    elapsed = time.perf_counter() - start
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert frontier["iterations_completed"] >= 1
    assert frontier["population"] >= population
    assert frontier["packing"]["amortization"] > 1.0

    packing = frontier["packing"]
    rows = [
        f"{'kernel':<10}{'population':>12}{'cts/node':>10}"
        f"{'amortize':>10}{'crypto s':>10}{'total s':>10}",
        (
            f"{bigint.active_backend():<10}{frontier['population']:>12}"
            f"{packing['ciphertexts_per_node']:>10}"
            f"{packing['amortization']:>10.1f}"
            f"{frontier['crypto_seconds']:>10.1f}"
            f"{frontier['seconds_total']:>10.1f}"
        ),
        f"identity digests agree across {sorted(digests)}",
        f"us per exchanged ciphertext: "
        f"{frontier['us_per_exchanged_ciphertext']:.1f}",
    ]
    record_report(
        "vectorized_crypto",
        "Vectorized-crypto plane: real ciphertexts on every exchange",
        rows,
    )
    run_records = [frontier.pop("run_record")]
    record_json("vectorized_crypto", {
        "schema": "chiaroscuro-run/v1",
        "runs": run_records,
        "bigint_backend": bigint.active_backend(),
        "gmpy2_available": GMPY2,
        "identity_digests": digests,
        "frontier": frontier,
        "wall_seconds": float(elapsed),
    })

    # Wall-clock guard.  Pure python: with object-array ciphertext batches
    # the slower of two runs on the 2-core reference VM was 1.58 s (1.76 s
    # for the list-based code it replaced, the same hour, on a host that
    # read 0.95 s for the latter a few days earlier).  The 3 s cap is the
    # byte-digit table's slowest run when the guard was set (2.06 s) + 50 %,
    # kept as headroom for slower CI runners.  The gmpy2 leg runs 10⁵
    # participants and has never been measured in this container, so it is
    # capped by what pure python needed for that population when the guard
    # was set (12.2 s + 50 %; BENCH_population_scaling_crypto.json now
    # reads 10.8 s on that slower host).
    cap = 20.0 if GMPY2 else 3.0
    assert elapsed < cap, f"crypto smoke took {elapsed:.1f}s (cap {cap:.0f}s)"
