"""Section 6.3.2 — total per-iteration latency composition.

The paper composes the measured gossip latencies (Fig. 4) with the local
costs (Fig. 5) into "a first iteration completing after around 26 mins and
a fifth one after around 10 mins" (NUMED, G_SMA, 60 % of centroids lost by
the fifth iteration).  This bench recomputes the composition from live
measurements of the same building blocks.

Decryption is charged at the composition's own τ = 100: one partial
decryption of the set with the node's own key-share, plus the combination
of τ = 100 received partials (:func:`conftest.time_threshold`, per
ciphertext, times the ciphertexts of the paper's packed set).
"""

from __future__ import annotations

import pytest

from conftest import record_json, record_report, time_run_calls, time_threshold
from latency_composition import (
    LatencyInputs,
    dissemination_cycles,
    iteration_latency,
    messages_to_reach_error,
)


def test_iteration_latency_composition(benchmark):
    # Live building blocks (scaled-down measurement, paper-sized model).
    sum_messages = messages_to_reach_error(100_000, 0.001)
    dis_messages, _ = dissemination_cycles(100_000)
    costs = time_run_calls(1024, k=10, series_length=20)
    public = costs.run.keypair.public
    set_bytes = 50 * (20 + 1) * public.ciphertext_bytes  # the paper's layout
    scale = 50 / 10  # linear in k (Sec. 6.1.2)
    tau = 100  # τ = 0.01 % of 1M (Fig. 4b)
    decryption = time_threshold(public.key_bits, tau, tau)
    set_ciphertexts = costs.run.packed.packed_length(50 * (20 + 1))

    inputs = LatencyInputs(
        sum_messages_per_node=sum_messages,
        dissemination_messages_per_node=dis_messages,
        decryption_messages_per_node=float(tau),
        encrypt_seconds=costs.seconds["encrypt"] * scale,
        add_seconds=costs.seconds["add"] * scale,
        partial_seconds=decryption.partial_seconds * set_ciphertexts,
        combine_seconds=decryption.combine_seconds * set_ciphertexts,
    )

    benchmark(lambda: iteration_latency(set_bytes, inputs))

    first = iteration_latency(set_bytes, inputs, alive_fraction=1.0)
    fifth = iteration_latency(set_bytes, inputs, alive_fraction=0.4)  # 60 % lost

    rows = [
        f"{'iteration':<12}{'messages/node':>16}{'transfer (min)':>16}{'compute (min)':>16}{'total (min)':>14}",
        (
            f"{'first':<12}{first.messages_per_node:>16.0f}"
            f"{first.transfer_seconds / 60:>16.1f}{first.compute_seconds / 60:>16.1f}"
            f"{first.total_minutes:>14.1f}"
        ),
        (
            f"{'fifth':<12}{fifth.messages_per_node:>16.0f}"
            f"{fifth.transfer_seconds / 60:>16.1f}{fifth.compute_seconds / 60:>16.1f}"
            f"{fifth.total_minutes:>14.1f}"
        ),
        "(paper: ~26 min first, ~10 min fifth — NUMED, G_SMA, 1M participants)",
    ]
    record_report(
        "sec632_iteration_latency",
        "Sec 6.3.2: per-iteration latency composition",
        rows,
    )
    record_json(
        "sec632_iteration_latency",
        {
            "population": 1_000_000,
            "key_bits": public.key_bits,
            "first_iteration_minutes": float(first.total_minutes),
            "fifth_iteration_minutes": float(fifth.total_minutes),
            "messages_per_node": float(first.messages_per_node),
            "encrypt_seconds": float(inputs.encrypt_seconds),
            "threshold": tau,
            "partial_seconds": float(inputs.partial_seconds),
            "combine_seconds": float(inputs.combine_seconds),
        },
    )

    # Shape: a few hundred messages per node; tens of minutes; the fifth
    # iteration costs ~40 % of the first.
    assert 100 <= first.messages_per_node <= 1000
    assert 1 <= first.total_minutes <= 240
    assert fifth.total_seconds == pytest.approx(first.total_seconds * 0.4, rel=1e-6)
