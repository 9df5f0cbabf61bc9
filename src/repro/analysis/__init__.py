"""Evaluation helpers: local cost/bandwidth accounting (Fig. 5), the gossip
latency measurements (Fig. 4(a)) and the per-iteration latency composition
(Sec. 6.3.2).
"""

from .costs import (
    CostSample,
    LocalCostModel,
    compare_scalar_batched_costs,
    means_set_bytes,
    measure_crypto_costs,
)
from .latency import (
    IterationLatency,
    LatencyInputs,
    dissemination_cycles,
    iteration_latency,
    messages_to_reach_error,
)

__all__ = [
    "CostSample",
    "IterationLatency",
    "LatencyInputs",
    "LocalCostModel",
    "compare_scalar_batched_costs",
    "dissemination_cycles",
    "iteration_latency",
    "means_set_bytes",
    "measure_crypto_costs",
    "messages_to_reach_error",
]
