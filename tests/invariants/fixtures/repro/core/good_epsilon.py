"""Noise drawn under the accountant's eye — and math.gamma is not noise."""

import math

from repro.privacy.accountant import PrivacyAccountant


def perturb(values, rng, accountant: PrivacyAccountant, iteration: int):
    epsilon = accountant.epsilon_for(iteration)
    return values + rng.laplace(0.0, 1.0 / epsilon, size=values.shape)


def lanczos(x):
    return math.gamma(x)
