"""Noise drawn with no budget flow in sight (both draws flagged)."""


def perturb(values, rng, scale):
    noisy = values + rng.laplace(0.0, scale, size=values.shape)
    spread = rng.gamma(2.0, scale)
    return noisy, spread
