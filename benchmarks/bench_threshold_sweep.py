"""Threshold decryption across τ (Sec. 4.2.3; τ = 0.01 % of the population
in Table 2, 100 decryption messages per node in Sec. 6.3.2).

Every participant ends an iteration by combining τ partial decryptions.
Each row deals ``l`` shares of a 1024-bit key, any ``τ`` of which decrypt,
and times on the python kernel (:func:`conftest.time_threshold`), per
ciphertext: one partial decryption, one combination of the subset's τ
partials, and the largest combination exponent's bit length.  Rows:
τ ∈ {3, 16, 50, 100} with ``l = τ`` and the first shares, plus a random
100 of ``l = 120``.  The point says which of partial decryption and
combination leads at τ = 100.

``test_threshold_sweep_smoke`` is the CI subset: τ ∈ {3, 16}.
"""

from __future__ import annotations

import random

from conftest import (
    THRESHOLD_CIPHERTEXTS,
    record_json,
    record_report,
    time_threshold,
)

KEY_BITS = 1024
#: (shares dealt l, threshold τ, combining subset; None = the first τ)
ROWS = [
    (3, 3, None),
    (16, 16, None),
    (50, 50, None),
    (100, 100, None),
    (120, 100, sorted(random.Random(120).sample(range(1, 121), 100))),
]
SMOKE_ROWS = ROWS[:2]


def _sweep(name: str, rows) -> list[dict]:
    measured = []
    for shares, threshold, subset in rows:
        costs = time_threshold(KEY_BITS, shares, threshold, subset)
        measured.append({
            "shares": shares,
            "threshold": threshold,
            "subset": "first" if subset is None else "random",
            "partial_seconds": costs.partial_seconds,
            "combine_seconds": costs.combine_seconds,
            "exponent_bits": costs.exponent_bits,
        })
    lines = [
        f"{'l':>4}{'τ':>5}{'subset':>8}{'partial (ms)':>14}"
        f"{'combine (ms)':>14}{'exponent bits':>15}"
    ] + [
        f"{row['shares']:>4}{row['threshold']:>5}{row['subset']:>8}"
        f"{row['partial_seconds'] * 1e3:>14.1f}"
        f"{row['combine_seconds'] * 1e3:>14.1f}{row['exponent_bits']:>15}"
        for row in measured
    ]
    data = {
        "key_bits": KEY_BITS,
        "bigint_backend": "python",
        "ciphertexts_per_row": THRESHOLD_CIPHERTEXTS,
        "rows": measured,
    }
    at_100 = [row for row in measured if row["threshold"] == 100]
    if at_100:
        first = at_100[0]
        leader = (
            "combine"
            if first["combine_seconds"] > first["partial_seconds"]
            else "partial"
        )
        data["leader_at_tau_100"] = leader
        lines.append(f"at τ = 100 (first shares) the {leader} leads")
    record_report(name, f"Threshold decryption across τ, {KEY_BITS}-bit key", lines)
    record_json(name, data)
    return measured


def _assert_shape(measured: list[dict]) -> None:
    """The combine grows with τ along the first-share rows; a partial
    decryption does not depend on τ beyond its exponent's ``log₂ l!``."""
    first = [row for row in measured if row["subset"] == "first"]
    combines = [row["combine_seconds"] for row in first]
    assert combines == sorted(combines)
    partials = [row["partial_seconds"] for row in measured]
    assert max(partials) < 2 * min(partials)


def test_threshold_sweep():
    _assert_shape(_sweep("threshold_sweep", ROWS))


def test_threshold_sweep_smoke():
    _assert_shape(_sweep("threshold_sweep_smoke", SMOKE_ROWS))
