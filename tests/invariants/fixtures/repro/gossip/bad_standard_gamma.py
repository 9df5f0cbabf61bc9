"""A Gamma draw through the unscaled primitive is noise too (flagged)."""


def shares(rng, scale, size):
    return scale * rng.standard_gamma(0.5, size=size)
