"""Chiaroscuro core: the full distributed execution sequence (Algorithms
1-3) with real threshold cryptography, and the perturbed centralized
k-means quality plane as one more substrate of the same loop.
"""

from .. import lazy

__all__, __getattr__ = lazy.exports(__name__, {
    ".computation": ("ComputationOutput", "ComputationStep"),
    ".config": ("ChiaroscuroParams",),
    ".noise": ("NoisePlan",),
    ".protocol": ("ChiaroscuroRun",),
    ".results": ("ClusteringResult", "IterationRecord", "IterationStats"),
    ".smoothing": ("derive_sma_window", "sma_smooth"),
    ".verification": ("CrossCheckReport", "DecryptionCrossCheck", "DeviceRegistry"),
})
