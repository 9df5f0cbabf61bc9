"""Dynamic Time Warping distance and assignment (extension).

The paper clusters with Euclidean distance, but its conclusion points at
richer iterative analytics over time-series as future work; DTW is the
canonical elastic measure for the electricity/health series Chiaroscuro
targets.  We provide:

* :func:`dtw_distance` — O(n·m) dynamic program with an optional
  Sakoe–Chiba band (window) for the usual linear-time approximation;
* :func:`dtw_pairwise` — all ``t × k`` series↔centroid distances as one
  batched anti-diagonal (wavefront) DP, no Python-level per-cell loops;
* :func:`dtw_assign` — assignment step under DTW (batched), with an
  LB_Keogh pruning fast path: candidate centroids whose :func:`lb_keogh`
  lower bound already exceeds the best exact distance so far are never
  run through the wavefront DP (exact — tested against
  :func:`dtw_assign_reference`).

The DP is vectorized along anti-diagonals: every cell on diagonal
``d = i + j`` depends only on diagonals ``d−1`` and ``d−2``, so one numpy
operation fills a whole wavefront.  The classic per-cell loops survive as
``_cost_matrix_reference`` / :func:`dtw_assign_reference` — the semantic
reference the vectorized kernels are tested against cell-for-cell.

These plug into the *cleartext* planes (baseline and perturbed-centralized
k-means).  They are deliberately not wired into the encrypted protocol: the
Diptych structure only supports additive aggregates, and that boundary is
exactly the "which algorithms can Chiaroscuro support" question the paper
leaves open.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dtw_distance",
    "dtw_path",
    "dtw_pairwise",
    "dtw_assign",
    "dtw_assign_reference",
    "lb_keogh",
]


def _cost_matrix_reference(
    a: np.ndarray, b: np.ndarray, window: int | None
) -> np.ndarray:
    """The per-cell DP loop — kept as the semantic reference for tests."""
    n, m = len(a), len(b)
    if window is not None:
        window = max(window, abs(n - m))
    cost = np.full((n + 1, m + 1), np.inf)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        if window is None:
            lo, hi = 1, m
        else:
            lo, hi = max(1, i - window), min(m, i + window)
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            d = (ai - b[j - 1]) ** 2
            cost[i, j] = d + min(cost[i - 1, j], cost[i, j - 1], cost[i - 1, j - 1])
    return cost


def _diag_bounds(d: int, n: int, m: int, window: int | None) -> tuple[int, int]:
    """Inclusive ``i`` range of in-band cells on anti-diagonal ``d = i + j``."""
    lo, hi = max(1, d - m), min(n, d - 1)
    if window is not None:
        # |i - j| <= w with j = d - i  ⇒  (d - w)/2 <= i <= (d + w)/2.
        lo = max(lo, -((window - d) // 2))  # ceil((d - w) / 2)
        hi = min(hi, (d + window) // 2)
    return lo, hi


def _cost_matrix(a: np.ndarray, b: np.ndarray, window: int | None) -> np.ndarray:
    """Accumulated-cost matrix, filled one anti-diagonal at a time."""
    n, m = len(a), len(b)
    if window is not None:
        window = max(window, abs(n - m))
    sq = (a[:, None] - b[None, :]) ** 2
    cost = np.full((n + 1, m + 1), np.inf)
    cost[0, 0] = 0.0
    for d in range(2, n + m + 1):
        lo, hi = _diag_bounds(d, n, m, window)
        if lo > hi:
            continue
        i = np.arange(lo, hi + 1)
        j = d - i
        best = np.minimum(
            np.minimum(cost[i - 1, j], cost[i, j - 1]), cost[i - 1, j - 1]
        )
        cost[i, j] = sq[i - 1, j - 1] + best
    return cost


def dtw_distance(a: np.ndarray, b: np.ndarray, window: int | None = None) -> float:
    """DTW distance (square root of the accumulated squared cost).

    ``window`` is the Sakoe–Chiba band half-width; ``None`` means
    unconstrained.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dtw_distance expects 1-D series")
    return float(np.sqrt(_cost_matrix(a, b, window)[len(a), len(b)]))


def dtw_path(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """Optimal unconstrained warping path as (i, j) index pairs (0-based,
    monotone)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = _cost_matrix(a, b, None)
    i, j = len(a), len(b)
    path = []
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        moves = (cost[i - 1, j - 1], cost[i - 1, j], cost[i, j - 1])
        best = int(np.argmin(moves))
        if best == 0:
            i, j = i - 1, j - 1
        elif best == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path


def dtw_pairwise(
    series: np.ndarray,
    centroids: np.ndarray,
    window: int | None = None,
    chunk_size: int = 2048,
) -> np.ndarray:
    """All ``t × k`` DTW distances as one batched wavefront DP.

    Every (series, centroid) pair advances through the same anti-diagonal
    schedule, so the per-diagonal recurrence runs as a single
    ``(chunk, k, diagonal)`` array operation.  Only the last two diagonals
    are kept (three rolling buffers), bounding memory at
    ``O(chunk · k · n)`` regardless of series length.
    """
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    if series.ndim != 2 or centroids.ndim != 2:
        raise ValueError("dtw_pairwise expects 2-D series and centroid matrices")
    t, n = series.shape
    k, m = centroids.shape
    if window is not None:
        window = max(window, abs(n - m))
    distances = np.empty((t, k))
    for start in range(0, t, chunk_size):
        block = series[start : start + chunk_size]
        distances[start : start + chunk_size] = _pairwise_block(
            block, centroids, window
        )
    return np.sqrt(distances)


def _wavefront(local, lead_shape: tuple, n: int, m: int, window: int | None) -> np.ndarray:
    """The shared anti-diagonal DP loop (3 rolling buffers).

    ``local(lo, hi, j)`` returns the squared local costs for slots
    ``lo..hi`` of the current diagonal, broadcast over ``lead_shape`` —
    the one thing that differs between the cross-product and row-aligned
    callers.  Buffer slot ``i`` of diagonal ``d`` holds ``D[i, d−i]``;
    the recurrence reads ``D[i−1, j]`` and ``D[i, j−1]`` from diagonal
    ``d−1`` (slots ``i−1`` and ``i``) and ``D[i−1, j−1]`` from diagonal
    ``d−2`` (slot ``i−1``).  The three buffers rotate in place; only the
    band a recycled buffer actually wrote two diagonals ago is reset, so
    per-diagonal work is proportional to the band width, not the full
    buffer.
    """
    shape = (*lead_shape, n + 1)
    prev2 = np.full(shape, np.inf)  # diagonal d − 2
    prev = np.full(shape, np.inf)  # diagonal d − 1
    cur = np.full(shape, np.inf)  # diagonal d (recycled each step)
    prev2[..., 0] = 0.0  # D[0, 0]
    bands = {id(prev2): (0, 0), id(prev): None, id(cur): None}
    for d in range(2, n + m + 1):
        stale = bands[id(cur)]
        if stale is not None:
            cur[..., stale[0] : stale[1] + 1] = np.inf
        lo, hi = _diag_bounds(d, n, m, window)
        if lo <= hi:
            j = d - np.arange(lo, hi + 1)
            best = np.minimum(
                np.minimum(prev[..., lo - 1 : hi], prev[..., lo : hi + 1]),
                prev2[..., lo - 1 : hi],
            )
            cur[..., lo : hi + 1] = local(lo, hi, j) + best
            bands[id(cur)] = (lo, hi)
        else:
            bands[id(cur)] = None
        prev2, prev, cur = prev, cur, prev2
    return prev[..., n].copy()  # D[n, m] sits on the last diagonal at slot n


def _pairwise_block(
    series: np.ndarray, centroids: np.ndarray, window: int | None
) -> np.ndarray:
    """Squared accumulated DTW costs for one chunk: the full
    series × centroids cross product through :func:`_wavefront`."""

    def local(lo: int, hi: int, j: np.ndarray) -> np.ndarray:
        return (series[:, None, lo - 1 : hi] - centroids[None, :, j - 1]) ** 2

    return _wavefront(
        local, (len(series), len(centroids)), series.shape[1], centroids.shape[1],
        window,
    )


def _aligned_block(
    series: np.ndarray, partners: np.ndarray, window: int | None
) -> np.ndarray:
    """Squared accumulated DTW cost of row ``i`` of ``series`` against row
    ``i`` of ``partners`` — the row-aligned twin of :func:`_pairwise_block`.

    Same :func:`_wavefront` kernel, same per-cell arithmetic (bit-identical
    costs), but a *different partner per row* instead of the full
    ``t × k`` cross product: this is what lets LB_Keogh pruning evaluate
    one candidate per series in a single batched call rather than
    per-centroid fragments.
    """

    def local(lo: int, hi: int, j: np.ndarray) -> np.ndarray:
        return (series[:, lo - 1 : hi] - partners[:, j - 1]) ** 2

    return _wavefront(
        local, (len(series),), series.shape[1], partners.shape[1], window
    )


def _envelopes(
    centroids: np.ndarray, window: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-centroid warping envelopes ``(U, L)`` of half-width ``window``.

    ``U[c, i] = max(centroids[c, i−w : i+w+1])`` (and ``L`` the min);
    ``window=None`` — unconstrained DTW — degenerates to the global
    max/min per centroid, which is the envelope of an unbounded band.
    """
    k, m = centroids.shape
    r = m - 1 if window is None else min(window, m - 1)
    if r >= m - 1:
        upper = np.repeat(centroids.max(axis=1, keepdims=True), m, axis=1)
        lower = np.repeat(centroids.min(axis=1, keepdims=True), m, axis=1)
        return upper, lower
    width = 2 * r + 1
    padded = np.pad(centroids, ((0, 0), (r, r)), constant_values=-np.inf)
    upper = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1).max(axis=2)
    padded = np.pad(centroids, ((0, 0), (r, r)), constant_values=np.inf)
    lower = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1).min(axis=2)
    return upper, lower


def lb_keogh(
    series: np.ndarray,
    centroids: np.ndarray,
    window: int | None = None,
) -> np.ndarray:
    """The LB_Keogh lower bound on every ``t × k`` DTW distance.

    ``LB(s, c) = sqrt(Σ_i ((s_i − U_i)⁺)² + ((L_i − s_i)⁺)²)`` with
    ``(U, L)`` the envelope of ``c`` over the Sakoe–Chiba band: every
    warping path must align ``s_i`` with some ``c_j`` inside the band, and
    that ``c_j`` lies within ``[L_i, U_i]``, so each term underestimates
    the path's local cost at ``i``.  Requires equal-length series and
    centroids (the classic LB_Keogh setting).  O(t·k·n) — quadratically
    cheaper than the O(t·k·n²) DP it gates.
    """
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    if series.shape[1] != centroids.shape[1]:
        raise ValueError("lb_keogh requires equal-length series and centroids")
    upper, lower = _envelopes(centroids, window)
    t = len(series)
    bounds = np.empty((t, len(centroids)))
    chunk = 2048  # series per t × k × n intermediate
    for start in range(0, t, chunk):
        block = series[start : start + chunk, None, :]
        above = np.clip(block - upper[None, :, :], 0.0, None)
        below = np.clip(lower[None, :, :] - block, 0.0, None)
        bounds[start : start + chunk] = (above**2 + below**2).sum(axis=2)
    return np.sqrt(bounds)


def dtw_assign(
    series: np.ndarray,
    centroids: np.ndarray,
    window: int | None = None,
    prune: bool = True,
) -> np.ndarray:
    """Assignment step under DTW — batched, LB_Keogh-pruned.

    With ``prune`` (and equal series/centroid lengths), candidates are
    visited per series in increasing LB_Keogh order and the wavefront DP
    runs only while the lower bound does not already exceed the best
    exact distance so far — on clustered data most of the ``t × k`` DPs
    are skipped, and when the bounds turn out not to prune (poorly
    clustered data) an effectiveness guard falls back to the single
    fully-batched wavefront call so the worst case stays near the
    unpruned cost.  Results are identical to the unpruned ``argmin`` (ties
    break toward the lower centroid index, matching
    :func:`dtw_assign_reference`): the bound is mathematically ≤ the DTW
    distance, and the gate carries a small relative slack so a *computed*
    bound that lands ulps above the computed distance (different float
    summation order) cannot prune a near-tied candidate.
    """
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    t, n = series.shape
    k, m = centroids.shape
    if not prune or n != m or k == 1:
        return np.argmin(dtw_pairwise(series, centroids, window), axis=1).astype(
            np.int64
        )
    if window is not None:
        window = max(window, 0)
    bounds = lb_keogh(series, centroids, window)
    order = np.argsort(bounds, axis=1, kind="stable")
    rows = np.arange(t)
    best = np.full(t, np.inf)
    labels = np.zeros(t, dtype=np.int64)
    evaluated = np.zeros((t, k), dtype=bool)
    for rank in range(k):
        candidate = order[:, rank]
        # <= with slack (not <): an equal-LB candidate may still hold an
        # equal exact distance at a lower index, which the tie-break must
        # see — and the computed bound may exceed the computed distance
        # by ulps, which must not prune it either.
        active = np.flatnonzero(
            bounds[rows, candidate] <= best * (1.0 + 1e-9) + 1e-12
        )
        if active.size == 0:
            # Per-row LBs are non-decreasing in rank and ``best`` only
            # shrinks, so no later rank can become active either.
            break
        # One batched row-aligned wavefront for this whole rank: row i of
        # the active set runs against its own rank-th candidate.
        chosen = candidate[active]
        distances = np.sqrt(
            _aligned_block(series[active], centroids[chosen], window)
        )
        better = (distances < best[active]) | (
            (distances == best[active]) & (chosen < labels[active])
        )
        best[active[better]] = distances[better]
        labels[active[better]] = chosen[better]
        evaluated[active, chosen] = True
        if rank == 0 and k > 2:
            # Effectiveness guard: if after the best-LB candidates the
            # bounds still fail to prune most remaining pairs (poorly
            # clustered data), the single t × k wavefront beats k more
            # row-aligned passes — fall back to it (identical result:
            # argmin with first-occurrence ties is the reference
            # tie-break).
            viable = (bounds <= best[:, None] * (1.0 + 1e-9) + 1e-12) & ~evaluated
            if viable.sum() > 0.5 * t * (k - 1):
                return np.argmin(
                    dtw_pairwise(series, centroids, window), axis=1
                ).astype(np.int64)
    return labels


def dtw_assign_reference(
    series: np.ndarray, centroids: np.ndarray, window: int | None = None
) -> np.ndarray:
    """Per-pair loop assignment — the reference :func:`dtw_assign` is tested
    against (O(t·k·n²) Python-level iteration)."""
    series = np.asarray(series, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    labels = np.empty(len(series), dtype=np.int64)
    for idx, s in enumerate(series):
        best, best_d = 0, np.inf
        for c_idx, c in enumerate(centroids):
            d = dtw_distance(s, c, window)
            if d < best_d:
                best, best_d = c_idx, d
        labels[idx] = best
    return labels
