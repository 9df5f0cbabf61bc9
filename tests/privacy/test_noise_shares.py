"""Tests for the divisible-Laplace noise shares (Def. 5 / Lemma 1)."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from repro.privacy import gen_noise_share, gen_noise_shares, surplus_correction


class TestGenNoise:
    def test_shape(self):
        rng = np.random.default_rng(0)
        share = gen_noise_share(100, 2.0, rng, size=(7,))
        assert share.shape == (7,)

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_noise_share(0, 1.0, rng)
        with pytest.raises(ValueError):
            gen_noise_share(10, -1.0, rng)

    def test_single_share_is_laplace(self):
        """n_ν = 1: G(1, λ) − G(1, λ) is exactly Laplace(0, λ)."""
        rng = np.random.default_rng(1)
        samples = gen_noise_share(1, 3.0, rng, size=200_000)
        _, p = stats.kstest(samples, stats.laplace(scale=3.0).cdf)
        assert p > 0.01

    def test_share_mean_zero(self):
        rng = np.random.default_rng(2)
        samples = gen_noise_share(50, 2.0, rng, size=100_000)
        assert abs(samples.mean()) < 0.05


class TestDivisibility:
    """Lemma 1: the sum of n_ν shares is distributed as Laplace(0, λ)."""

    @pytest.mark.parametrize("n_shares", [2, 10, 100])
    def test_sum_is_laplace(self, n_shares):
        rng = np.random.default_rng(n_shares)
        lam = 4.0
        trials = 40_000
        shares = gen_noise_share(n_shares, lam, rng, size=(trials, n_shares))
        totals = shares.sum(axis=1)
        _, p = stats.kstest(totals, stats.laplace(scale=lam).cdf)
        assert p > 0.01

    def test_sum_variance(self):
        """Var of the reconstructed Laplace is 2λ² independent of n_ν."""
        rng = np.random.default_rng(7)
        lam = 2.5
        shares = gen_noise_share(25, lam, rng, size=(50_000, 25))
        totals = shares.sum(axis=1)
        assert totals.var() == pytest.approx(2 * lam * lam, rel=0.05)

    def test_matrix_helper(self):
        rng = np.random.default_rng(3)
        matrix = gen_noise_shares(12, 12, 1.0, rng, dimensions=5)
        assert matrix.shape == (12, 5)


class TestSurplusCorrection:
    @pytest.mark.parametrize(
        "surplus, dims", [(1, 7), (3, 211), (1_500, 211), (40_000, 30)]
    )
    def test_one_matrix_draw_is_the_two_matrix_draw(self, surplus, dims):
        """Drawn into one matrix in blocks, the correction is bit-identical
        to ``G1 − G2`` over two whole matrices, and leaves the same state."""
        n_nu, lam = 10, 2.5
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        correction = surplus_correction(n_nu + surplus, n_nu, lam, rng, dims)
        reference = gen_noise_share(
            n_nu, lam, reference_rng, size=(surplus, dims)
        ).sum(axis=0)
        assert correction.tobytes() == reference.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_peak_is_one_share_matrix(self):
        surplus, dims = 3_000, 211
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            surplus_correction(10 + surplus, 10, 1.0, rng, dims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * surplus * dims * 8

    def test_no_surplus_is_zero(self):
        rng = np.random.default_rng(0)
        correction = surplus_correction(100, 100, 1.0, rng, dimensions=4)
        assert np.allclose(correction, 0.0)

    def test_under_contribution_is_zero(self):
        rng = np.random.default_rng(0)
        correction = surplus_correction(90, 100, 1.0, rng, dimensions=4)
        assert np.allclose(correction, 0.0)

    def test_corrected_sum_moments(self):
        """Lemma 3: the correction is *independent* of the surplus shares, so
        the corrected noise stays zero-mean with variance
        ``2λ²·(actual + surplus)/n_ν`` — never *less* perturbation than the
        target Laplace(λ) (that is the privacy-preserving direction)."""
        rng = np.random.default_rng(11)
        lam, n_nu, actual = 3.0, 40, 55
        trials = 30_000
        shares = gen_noise_share(n_nu, lam, rng, size=(trials, actual))
        corrections = np.array(
            [
                surplus_correction(actual, n_nu, lam, rng, dimensions=1)[0]
                for _ in range(trials)
            ]
        )
        corrected = shares.sum(axis=1) - corrections
        surplus = actual - n_nu
        expected_var = 2 * lam * lam * (actual + surplus) / n_nu
        assert abs(corrected.mean()) < 0.1 * lam
        assert corrected.var() == pytest.approx(expected_var, rel=0.08)
        assert corrected.var() >= 2 * lam * lam * 0.95  # at least Laplace-level
