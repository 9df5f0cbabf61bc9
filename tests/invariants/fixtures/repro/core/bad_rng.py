"""Protocol code pulling ambient entropy (every line here is a violation)."""

import random

import numpy as np


def sample():
    rng = np.random.default_rng()
    fallback = random.Random()
    return rng.normal(), fallback.random(), random.random()


def sample_with_a_none_seed():
    """A literal ``None`` seed pulls OS entropy just as no seed does."""
    return (
        np.random.default_rng(None),
        np.random.default_rng(seed=None),
        random.Random(None),
    )
