"""Drive a bare ``ChiaroscuroRun`` to its end, the way ``Experiment`` does."""

from __future__ import annotations

from repro.core import ClusteringResult


def fold(run, churn: float = 0.0):
    """``(result, records)``: every record ``run.run_iter`` yields, folded
    into a :class:`ClusteringResult` as ``Experiment.run`` folds them."""
    result = ClusteringResult(
        centroids=run.initial_centroids.copy(),
        strategy=run.strategy.name,
        smoothing=run.params.smoothing_plan(run.dataset.n)[1],
    )
    records = list(run.run_iter(churn))
    for record in records:
        result.absorb(record)
    return result, records
