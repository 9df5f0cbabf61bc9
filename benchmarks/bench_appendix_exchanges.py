"""Appendix B — the Theorem 3 exchange-count table and its empirical check.

The analytic side reproduces the paper's worked example (δ = 0.995,
e_max = 10⁻¹², n_p = 10⁶ → n_e = 47) across a parameter sweep; the
empirical side runs the epidemic sum on the array gossip engine and
verifies the predicted exchange counts indeed deliver the target error
(the theorem is an upper bound for the Newscast topology; uniform
push–pull converges at least as fast).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import record_json, record_report
from repro.gossip import VectorizedEESum, VectorizedGossipEngine
from repro.privacy import GossipPrivacyPlan, newscast_exchanges

DELTAS = (0.9, 0.99, 0.995)
E_MAXES = (1e-6, 1e-9, 1e-12)
POPULATION = 10**6


def test_appendix_b_exchange_table(benchmark):
    benchmark(lambda: newscast_exchanges(POPULATION, 1e-12, 1e-5))

    rows = [f"{'delta':>8}" + "".join(f"  e_max={e:<10}" for e in E_MAXES)]
    table = {}
    for delta in DELTAS:
        cells = []
        for e_max in E_MAXES:
            plan = GossipPrivacyPlan(
                delta=delta, e_max=e_max, population=POPULATION,
                max_iterations=10, series_length=24,
            )
            table[(delta, e_max)] = plan.exchanges
            cells.append(f"  {plan.exchanges:<16d}")
        rows.append(f"{delta:>8}" + "".join(cells))
    rows.append("(paper worked example: delta=0.995, e_max=1e-12 -> n_e = 47)")
    record_report(
        "appendixB_exchanges",
        "App. B / Thm 3: required gossip exchanges per participant",
        rows,
    )

    record_json(
        "appendixB_exchanges",
        {
            "population": POPULATION,
            "exchanges": {
                f"delta={d},e_max={e}": int(v) for (d, e), v in table.items()
            },
        },
    )
    assert table[(0.995, 1e-12)] == 47  # the paper's number
    # Monotonicity: tighter error or higher delta → more exchanges.
    assert table[(0.995, 1e-12)] > table[(0.995, 1e-6)]
    assert table[(0.995, 1e-6)] >= table[(0.9, 1e-6)]


def test_theorem3_empirical_validity(benchmark):
    """Empirical side of Theorem 3 on the array gossip engine.

    The theorem is stated for Newscast's exchange accounting (each node
    *initiates* once per cycle, hence ~2 participations per exchange
    count); the uniform-pairing engine logs one message per node per
    cycle.  We therefore check the two claims that transfer: (1) the error
    decays exponentially in the number of messages, and (2) the target
    error is reached within a small constant multiple of the predicted
    exchange count.
    """
    population, e_max, iota = 10_000, 1e-6, 0.01
    predicted = newscast_exchanges(population, e_max, iota)

    def run():
        engine = VectorizedGossipEngine(population, seed=1)
        eesum = VectorizedEESum(np.ones(population))
        errors = []
        while not errors or (errors[-1][1] > e_max and errors[-1][0] < 10 * predicted):
            engine.run_cycle(eesum)
            # max() is NaN while the weight has not reached every node.
            error = np.abs(eesum.estimates() - population).max()
            errors.append(
                (engine.mean_exchanges_per_node, float(np.nan_to_num(error, nan=np.inf)))
            )
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    needed = errors[-1][0]
    rows = [
        f"population={population}, target abs error={e_max}, iota={iota}",
        f"predicted exchanges (Thm 3, Newscast accounting): {predicted}",
        f"messages/node needed by the push-pull engine: {needed:.0f}",
        f"final max abs error: {errors[-1][1]:.3e}",
    ]
    record_report(
        "appendixB_empirical",
        "App. B / Thm 3: empirical check of the exchange bound",
        rows,
    )
    record_json(
        "appendixB_empirical",
        {
            "population": population,
            "target_abs_error": e_max,
            "predicted_exchanges": int(predicted),
            "messages_per_node_needed": float(needed),
            "final_max_abs_error": float(errors[-1][1]),
        },
    )
    assert errors[-1][1] <= e_max  # the target is reachable
    # Thm 3's 0.581 constant is calibrated to Newscast's per-cycle variance
    # reduction and to the error of the *local state* (the average), while
    # we check the harsher sum-estimate error; a small constant multiple
    # absorbs both gaps.
    assert needed <= 5 * predicted
    # Exponential decay: the last recorded finite errors drop much faster
    # than linearly in the message count.
    finite = [(m, e) for m, e in errors if np.isfinite(e) and e > 0]
    mid = finite[len(finite) // 2]
    assert finite[-1][1] < mid[1] * 1e-3
