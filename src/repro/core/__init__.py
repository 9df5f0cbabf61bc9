"""Chiaroscuro core: the full distributed execution sequence (Algorithms
1-3) with real threshold cryptography, and the perturbed centralized
k-means quality plane as one more substrate of the same loop.
"""

from .computation import ComputationOutput, ComputationStep
from .config import ChiaroscuroParams
from .noise import NoisePlan
from .participant import Participant
from .perturbed_em import EMTrace, GaussianMixtureState, em_sensitivities, perturbed_em
from .protocol import ChiaroscuroRun
from .quality_monitor import QualityMonitor
from .results import ClusteringResult, IterationRecord, IterationStats
from .smoothing import derive_sma_window, sma_smooth
from .verification import CrossCheckReport, DecryptionCrossCheck, DeviceRegistry

__all__ = [
    "ChiaroscuroParams",
    "ChiaroscuroRun",
    "ClusteringResult",
    "ComputationOutput",
    "ComputationStep",
    "CrossCheckReport",
    "DecryptionCrossCheck",
    "DeviceRegistry",
    "EMTrace",
    "GaussianMixtureState",
    "IterationRecord",
    "IterationStats",
    "NoisePlan",
    "Participant",
    "QualityMonitor",
    "derive_sma_window",
    "em_sensitivities",
    "perturbed_em",
    "sma_smooth",
]
