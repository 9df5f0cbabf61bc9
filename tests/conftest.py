"""Shared fixtures: session-scoped key material (key generation dominates
test runtime otherwise) and small canonical datasets — plus the Hypothesis
profiles: ``tier1`` (the default) is derandomized, so two runs on one tree
draw the same examples; ``explore`` (``--hypothesis-profile=explore``)
draws fresh ones and keeps failures in ``.hypothesis/``."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import settings

from repro.crypto import generate_keypair, generate_threshold_keypair
from repro.crypto.backend import SerialBackend
from repro.datasets import TimeSeriesSet

# Neither profile sets max_examples: each test keeps the count its own
# @settings gives.  tier1 is Hypothesis' "ci" profile (derandomized, no
# deadline, no example database), whatever the environment says.
settings.register_profile("tier1", parent=settings.get_profile("ci"))
settings.register_profile("explore", derandomize=False, deadline=None)


def pytest_configure(config):
    if config.getoption("hypothesis_profile", None) is None:
        settings.load_profile("tier1")


@pytest.fixture(scope="session")
def keypair128():
    """A 256-bit-modulus (2×128-bit safe primes) s=1 keypair."""
    return generate_keypair(256, s=1, rng=random.Random(11))


@pytest.fixture(scope="session")
def keypair_s2():
    """Same modulus with Damgård–Jurik expansion s=2."""
    return generate_keypair(256, s=2, rng=random.Random(12))


@pytest.fixture(scope="session")
def threshold_keypair():
    """Threshold keypair: 9 shares, any 3 decrypt."""
    return generate_threshold_keypair(
        256, n_shares=9, threshold=3, s=1, rng=random.Random(13)
    )


@pytest.fixture(scope="session")
def threshold_keypair_s2():
    """Threshold keypair with s=2 (used by the protocol tests)."""
    return generate_threshold_keypair(
        256, n_shares=24, threshold=3, s=2, rng=random.Random(14)
    )


@pytest.fixture()
def counting_backend():
    """A serial backend that counts the ``c^{2Δd_i}`` exponentiations
    (``partials_computed``) threshold decryption asks of it."""

    class CountingBackend(SerialBackend):
        partials_computed = 0

        def partial_decrypt_batch(self, context, share, ciphertexts):
            self.partials_computed += len(ciphertexts)
            return super().partial_decrypt_batch(context, share, ciphertexts)

    return CountingBackend()


@pytest.fixture()
def crypto_rng():
    return random.Random(99)


@pytest.fixture()
def np_rng():
    return np.random.default_rng(99)


@pytest.fixture(scope="session")
def toy_dataset() -> TimeSeriesSet:
    """24 series in 3 well-separated clusters of 8, length 6, range [0, 60]."""
    rng = np.random.default_rng(5)
    base = np.array(
        [[5, 5, 5, 40, 40, 40], [40, 40, 40, 5, 5, 5], [20, 20, 20, 20, 20, 20]],
        dtype=float,
    )
    values = np.clip(np.repeat(base, 8, axis=0) + rng.normal(0, 1, (24, 6)), 0, 60)
    return TimeSeriesSet(values, dmin=0.0, dmax=60.0, name="toy")


@pytest.fixture(scope="session")
def toy_initial_centroids() -> np.ndarray:
    return np.array(
        [
            [10.0, 10, 10, 30, 30, 30],
            [30, 30, 30, 10, 10, 10],
            [22, 18, 22, 18, 22, 18],
        ]
    )
