"""Workload generators: CER-like electricity curves, NUMED-like tumor-growth
series, the Appendix D 2-D points, and the TimeSeriesSet container.
"""

from .. import lazy

__all__, __getattr__ = lazy.exports(__name__, {
    ".cer": ("ARCHETYPE_BUILDERS", "courbogen_like_centroids", "generate_cer"),
    ".numed": ("generate_numed", "numed_profile"),
    ".points2d": ("generate_a3_like", "generate_points2d"),
    ".timeseries": ("TimeSeriesSet",),
})
