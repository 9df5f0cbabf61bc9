"""Figure 4 — internal latencies of the computation step.

(a) average messages per participant for the epidemic (encrypted) sum to
    reach absolute approximation errors {1, 0.1, 0.01, 0.001} over all-ones
    data, populations 1K → 1M, plus the min-id dissemination latency;
(b) average messages per peer for the epidemic decryption vs the key-share
    threshold (fraction of the population), with the linear-fit
    extrapolation the paper uses beyond its platform limit.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import record_json, record_report
from repro.analysis import dissemination_cycles, messages_to_reach_error
from repro.gossip import (
    GossipEngine,
    TokenDecryption,
    VectorizedGossipEngine,
    VectorizedShareCollection,
)

SUM_POPULATIONS = (1_000, 10_000, 100_000, 1_000_000)
TARGET_ERRORS = (1.0, 0.1, 0.01, 0.001)

DEC_POPULATIONS = (1_000, 4_000)
TAU_FRACTIONS = (0.001, 0.01, 0.05, 0.1)


def test_fig4a_epidemic_sum_latency(benchmark):
    benchmark.pedantic(
        lambda: messages_to_reach_error(10_000, 0.01), rounds=1, iterations=1
    )

    rows = [
        f"{'population':>12}"
        + "".join(f"  err≤{e:<10}" for e in TARGET_ERRORS)
        + f"  {'dissem.':<10}"
    ]
    table = {}
    for population in SUM_POPULATIONS:
        cells = []
        for error in TARGET_ERRORS:
            messages = messages_to_reach_error(population, error)
            table[(population, error)] = messages
            cells.append(f"  {messages:<14.1f}")
        dis_messages, _ = dissemination_cycles(population)
        cells.append(f"  {dis_messages:<10.1f}")
        rows.append(f"{population:>12}" + "".join(cells))
    record_report(
        "fig4a_sum_latency",
        "Fig 4(a): messages/participant for the epidemic sum + dissemination",
        rows,
    )
    record_json(
        "fig4a_sum_latency",
        {
            "populations": list(SUM_POPULATIONS),
            "messages": {f"{p},{e}": float(m) for (p, e), m in table.items()},
        },
    )

    # Paper shapes: under the hundred even at 1M / tightest error; growth
    # is logarithmic in the population.
    assert table[(1_000_000, 0.001)] < 100
    small, large = table[(1_000, 0.001)], table[(1_000_000, 0.001)]
    assert large < 3 * small  # log growth, nowhere near the 1000× ratio


def test_fig4b_epidemic_decryption_latency(benchmark):
    def run_config(population, tau_fraction, seed=0):
        tau = max(1, round(tau_fraction * population))
        engine = GossipEngine(population, seed=seed)
        protocol = TokenDecryption(threshold_count=tau)
        engine.setup(protocol)
        cycles = 0
        while protocol.fraction_done(engine.nodes) < 1.0 and cycles < 20 * tau + 200:
            engine.run_cycle(protocol)
            cycles += 1
        return engine.mean_exchanges_per_node

    benchmark.pedantic(lambda: run_config(1_000, 0.01), rounds=1, iterations=1)

    measured = {p: [] for p in DEC_POPULATIONS}
    for tau_fraction in TAU_FRACTIONS:
        for population in DEC_POPULATIONS:
            measured[population].append(run_config(population, tau_fraction))

    # The paper extrapolates the observed linearity beyond its platform
    # limit; messages scale with the *absolute* threshold count τ·pop, so
    # fit on the largest live population and predict 1M at each fraction.
    taus_live = [max(1, round(f * DEC_POPULATIONS[-1])) for f in TAU_FRACTIONS]
    fit = np.poly1d(np.polyfit(taus_live, measured[DEC_POPULATIONS[-1]], 1))

    rows = [
        f"{'tau fraction':>14}"
        + "".join(f"  pop={p:<10}" for p in DEC_POPULATIONS)
        + f"  {'pop=1M (fit)':<14}"
    ]
    for i, tau_fraction in enumerate(TAU_FRACTIONS):
        cells = [f"  {measured[p][i]:<14.1f}" for p in DEC_POPULATIONS]
        cells.append(f"  {fit(round(tau_fraction * 1_000_000)):<14.1f}")
        rows.append(f"{tau_fraction:>14}" + "".join(cells))
    rows.append(
        f"realistic case tau=0.01% of 1M (100 shares): "
        f"{fit(100):.0f} messages/peer (paper: order of the hundred)"
    )
    record_report(
        "fig4b_decryption_latency",
        "Fig 4(b): messages/peer for epidemic decryption vs key-share threshold",
        rows,
    )

    record_json(
        "fig4b_decryption_latency",
        {
            "populations": list(DEC_POPULATIONS),
            "tau_fractions": list(TAU_FRACTIONS),
            "messages_per_peer": {
                str(p): [float(v) for v in series] for p, series in measured.items()
            },
            "fit_1m_realistic_tau100": float(fit(100)),
        },
    )

    # Paper shape: latency linear in the threshold.
    for population in DEC_POPULATIONS:
        series = measured[population]
        assert series[0] < series[-1]
        taus = [max(1, round(f * population)) for f in TAU_FRACTIONS]
        fit = np.poly1d(np.polyfit(taus, series, 1))
        # Linear fit explains the curve: mid-point prediction within 50 %.
        mid = fit(taus[2])
        assert mid == pytest.approx(series[2], rel=0.5)
    # The paper's realistic case: τ = 0.01 % of 1M = 100 shares → messages
    # on the order of the hundred (predict from the 4K-pop linear fit).
    taus_4k = [max(1, round(f * 4_000)) for f in TAU_FRACTIONS]
    fit = np.poly1d(np.polyfit(taus_4k, measured[4_000], 1))
    realistic = fit(100)
    assert 20 <= realistic <= 500


def test_fig4b_decryption_large_population(benchmark):
    """Fig 4(b), large-population mode: collection latency at 10⁵–10⁶ peers.

    The object-engine sweep above stops at 4K nodes and extrapolates the
    linear trend, exactly as the paper did on its platform.  The
    struct-of-arrays plane removes the platform limit: it runs the
    replacement + mutual-share-application collection protocol directly at
    10⁵ and 10⁶ peers, turning the paper's extrapolated "order of the
    hundred messages" claim for the realistic case (τ = 0.01 % of 1M = 100
    shares) into a measurement.
    """

    def run_config(population, tau, seed=0):
        engine = VectorizedGossipEngine(population, seed=seed)
        protocol = VectorizedShareCollection(population, tau)
        cycles = 0
        while not protocol.all_done() and cycles < 20 * tau + 400:
            engine.run_cycle(protocol)
            cycles += 1
        return engine.mean_exchanges_per_node

    benchmark.pedantic(lambda: run_config(100_000, 100), rounds=1, iterations=1)

    configs = [(100_000, 10), (100_000, 100), (1_000_000, 100)]
    measured = {}
    rows = [f"{'population':>12}{'tau':>8}{'messages/peer':>16}"]
    for population, tau in configs:
        messages = run_config(population, tau)
        measured[(population, tau)] = messages
        rows.append(f"{population:>12}{tau:>8}{messages:>16.1f}")
    rows.append(
        "realistic case tau=0.01% of 1M (100 shares): "
        f"{measured[(1_000_000, 100)]:.0f} messages/peer measured "
        "(paper: order of the hundred, extrapolated)"
    )
    record_report(
        "fig4b_decryption_large_population",
        "Fig 4(b) large-population mode: epidemic decryption collection, measured",
        rows,
    )
    record_json(
        "fig4b_decryption_large_population",
        {
            "plane": "vectorized-full-protocol",
            "messages_per_peer": {
                f"{p},{tau}": float(m) for (p, tau), m in measured.items()
            },
        },
    )

    # The paper's extrapolated realistic case, now measured directly.
    assert 20 <= measured[(1_000_000, 100)] <= 500
    # Latency grows with the threshold at fixed population.
    assert measured[(100_000, 100)] > measured[(100_000, 10)]
