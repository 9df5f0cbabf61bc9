"""Laplace mechanism for the time-series ``Sum`` aggregate (Sec. 3.3.2).

The paper perturbs, at every k-means iteration and for every cluster, the
dimension-wise *sum* of the member series and their *count*.  Definition 4
fixes the Laplace scale to ``L1-sensitivity / ε`` with the sensitivity of
the time-series sum being ``n · max(|dmin|, |dmax|)`` for series of length
``n`` with variables in ``[dmin, dmax]``.

The paper does not spell out how the (sum, count) pair shares the budget;
we use the joint L1 sensitivity ``n·max(|d|) + 1`` as a single scale for
both components, which upper-bounds the impact of adding/removing one
individual on the whole released vector (``docs/ARCHITECTURE.md``,
"Calibration").
"""

from __future__ import annotations

__all__ = ["sum_sensitivity", "joint_sensitivity", "laplace_scale"]


def sum_sensitivity(series_length: int, dmin: float, dmax: float) -> float:
    """L1 sensitivity of the dimension-wise time-series sum (Def. 4).

    One individual contributes at most ``max(|dmin|, |dmax|)`` to each of the
    ``series_length`` output variables, hence ``n · max(|dmin|, |dmax|)``
    (the paper's 24·80 = 1920 for CER and 20·50 = 1000 for NUMED).
    """
    if series_length < 1:
        raise ValueError("series_length must be positive")
    return series_length * max(abs(dmin), abs(dmax))


def joint_sensitivity(series_length: int, dmin: float, dmax: float) -> float:
    """L1 sensitivity of the (sum, count) pair released for each mean."""
    return sum_sensitivity(series_length, dmin, dmax) + 1.0


def laplace_scale(sensitivity: float, epsilon: float) -> float:
    """Scale ``λ = sensitivity / ε`` of the Laplace mechanism."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    return sensitivity / epsilon
