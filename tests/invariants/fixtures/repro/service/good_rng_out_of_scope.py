"""Orchestration code may use ambient entropy (out of rule scope)."""

import numpy as np


def jitter():
    return np.random.default_rng().random()
