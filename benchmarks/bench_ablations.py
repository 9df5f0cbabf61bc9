"""Ablation benches for two design choices ``docs/ARCHITECTURE.md`` argues.

1. **Delayed division (Alg. 2)** — the EESum scaling update rule vs the
   cleartext push–pull reference, on the same exchange schedule: identical
   estimates (this is what makes gossip possible under additive
   homomorphism at all; "The four planes"), at a measured per-exchange
   crypto cost.
2. **Smoothing window** — SMA window sweep (0 %, 10 %, 20 %, 40 % of n) on
   the CER-like quality run ("Calibration").
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from conftest import record_json, record_report, record_runs
from repro.api import Experiment, RunSpec, run_record
from repro.crypto import FixedPointCodec, decrypt, encrypt, generate_keypair
from repro.gossip import EESum, EpidemicSum, GossipEngine


def test_ablation_eesum_vs_cleartext(benchmark):
    keypair = generate_keypair(256, s=2, rng=random.Random(0))
    codec = FixedPointCodec(keypair.public, fractional_bits=20)
    rng = random.Random(1)
    values = [float(i) - 8.0 for i in range(24)]
    initial_enc = {
        i: [encrypt(keypair.public, codec.encode(v), rng=rng)]
        for i, v in enumerate(values)
    }
    initial_clear = {i: np.array([v]) for i, v in enumerate(values)}

    def run_pair():
        engine = GossipEngine(24, seed=2)
        encrypted = EESum(keypair.public, initial_enc)
        cleartext = EpidemicSum(initial_clear)
        engine.setup(encrypted, cleartext)
        engine.run_cycles(12, encrypted, cleartext)
        return engine, encrypted, cleartext

    engine, encrypted, cleartext = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    diffs = []
    for node in engine.nodes:
        state = encrypted.state_of(node)
        clear = node.state["episum"]
        decoded = codec.decode(decrypt(keypair, state.ciphertexts[0]))
        diffs.append(abs(decoded / (2.0 ** state.count) - float(clear["sigma"][0])))
    rows = [
        f"nodes: 24, cycles: 12, max |encrypted − cleartext| = {max(diffs):.2e}",
        "(Alg. 2 delayed division is arithmetically exact, App. C.2.1)",
    ]
    record_report("ablation_eesum", "Ablation: EESum vs cleartext push–pull", rows)
    record_json(
        "ablation_eesum",
        {"nodes": 24, "cycles": 12, "key_bits": 256, "max_abs_diff": float(max(diffs))},
    )
    assert max(diffs) < 1e-3


def ablation_spec(smoothing_fraction: float = 0.2) -> RunSpec:
    """One CER ablation run; the sweep swaps the spec's params."""
    return RunSpec.from_dict({
        "name": f"ablation-w{smoothing_fraction}",
        "plane": "quality",
        "seed": 10,
        "strategy": "G",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 15_000, "population_scale": 200,
                               "seed": 9}},
        "init": {"kind": "courbogen", "params": {"seed": 9}},
        "params": {"k": 30, "max_iterations": 8, "epsilon": 0.69,
                   "smoothing_fraction": smoothing_fraction, "theta": 0.0},
    })


@pytest.fixture(scope="module")
def quality_workload():
    context = Experiment.from_spec(ablation_spec()).context
    return context.dataset, context.initial_centroids


def test_ablation_smoothing_window(benchmark, quality_workload):
    data, _ = quality_workload
    records: list[dict] = []
    # Window sizes via smoothing_fraction on the n = 24 CER series:
    # round(f·24) even-rounded gives 0, 2, 4, 8.
    fractions = {0: 0.0, 2: 2 / 24, 4: 4 / 24, 8: 8 / 24}
    assert {
        w: ablation_spec(smoothing_fraction=f).params.smoothing_window(24)
        for w, f in fractions.items()
    } == {0: 0, 2: 2, 4: 4, 8: 8}

    def run(window):
        spec = ablation_spec(smoothing_fraction=fractions[window]).replace(seed=11)
        started = time.perf_counter()
        result = Experiment.from_spec(spec).run()
        records.append(run_record(
            spec, result, timings={"wall_seconds": time.perf_counter() - started}
        ))
        return result

    benchmark.pedantic(lambda: run(4), rounds=1, iterations=1)
    records.clear()  # drop the warm-up measurement

    rows = [f"{'window':<10}{'mean PRE (it 5-8)':>20}"]
    tails = {}
    for window in (0, 2, 4, 8):
        result = run(window)
        tail = float(np.mean(result.pre_inertia_curve[4:]))
        tails[window] = tail
        rows.append(f"{window:<10}{tail:>20.1f}")
    rows.append("(Table 2 uses 20 % of n = window 4 for CER)")
    record_report(
        "ablation_smoothing",
        "Ablation: SMA window sweep (late-iteration inertia)",
        rows,
    )
    record_runs(
        "ablation_smoothing",
        records,
        extra={
            "population": data.population,
            "late_inertia_by_window": {str(w): float(v) for w, v in tails.items()},
        },
    )
    assert min(tails.values()) <= tails[0]  # some smoothing never hurts late
