"""Protocol code with properly injected, seeded randomness."""

import random

import numpy as np


def sample(seed: int, rng=None):
    rng = rng if rng is not None else np.random.default_rng(seed)
    local = random.Random(seed)
    return rng.normal(), local.random()
