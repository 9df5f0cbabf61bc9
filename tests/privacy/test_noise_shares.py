"""Tests for the divisible-Laplace noise shares (Def. 5 / Lemma 1).

The sampler draws only the Gamma values that can be nonzero, so its bits
are its own: every check here is on the law — against the closed form, or
against the dense two-pass ``rng.gamma`` sampler it replaced.
"""

import math
import tracemalloc

import numpy as np
import pytest

from _stats import ks_pvalue, ks_pvalue_cdf, laplace_cdf
from repro import blocks
from repro.privacy import gen_noise_share, gen_noise_shares, surplus_correction
from repro.privacy.noise_shares import GAMMA_CAP


def _dense_shares(n_shares, lam, rng, size):
    """The reference law: two dense ``Gamma(1/n_ν, λ)`` draws, subtracted."""
    shape = 1.0 / n_shares
    return rng.gamma(shape, lam, size=size) - rng.gamma(shape, lam, size=size)


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
        assert ks_pvalue_cdf(samples, laplace_cdf(3.0)) > 0.01

    def test_share_mean_zero(self):
        rng = np.random.default_rng(2)
        samples = gen_noise_share(50, 2.0, rng, size=100_000)
        assert abs(samples.mean()) < 0.05


#: (n_ν, λ): one share per participant up to the mock workload's 50 000,
#: scales from the Laplace(1) extreme to one that puts 97 % of the shares
#: at zero.
POINTS = [
    (1, 3.0), (6, 1.0), (333, 50.0), (1_020, 2.0), (1_020, 0.006),
    (20_000, 1.0), (50_000, 0.006),
]
DRAWS = 300_000
#: Below this the two samplers round subnormals differently.
TINY = 2.0**-1000


@pytest.fixture(
    scope="module", params=range(len(POINTS)), ids=[f"{n}-{lam}" for n, lam in POINTS]
)
def draws(request):
    n_nu, lam = POINTS[request.param]
    sampled = gen_noise_share(
        n_nu, lam, np.random.default_rng(request.param), size=DRAWS
    )
    reference = _dense_shares(
        n_nu, lam, np.random.default_rng(100 + request.param), DRAWS
    )
    return n_nu, lam, sampled, reference


def _zero_fraction(n_nu: int, lam: float) -> float:
    """P(share = 0.0): both Gammas below ``2^−1075``, each with probability
    ``(2^−1075/λ)^a / Γ(1+a)`` (the lower incomplete Gamma's first term)."""
    a = 1.0 / n_nu
    q = math.exp(a * (-1075 * math.log(2.0) - math.log(lam)) - math.lgamma(1.0 + a))
    return q * q


class TestSamplerLaw:
    def test_nonzero_values_follow_the_dense_law(self, draws):
        _n_nu, _lam, sampled, reference = draws
        kept = [x[np.abs(x) > TINY] for x in (sampled, reference)]
        assert min(map(len, kept)) > 5_000
        assert ks_pvalue(*kept) > 0.01

    def test_zero_fraction_is_the_closed_form(self, draws):
        n_nu, lam, sampled, _reference = draws
        expected = _zero_fraction(n_nu, lam)
        sigma = math.sqrt(expected * (1.0 - expected) / DRAWS)
        assert abs(np.mean(sampled == 0.0) - expected) <= 4 * sigma

    def test_quantized_shares_follow_the_dense_law(self, draws):
        _n_nu, _lam, sampled, reference = draws
        grid = 2.0**24
        assert ks_pvalue(np.round(sampled * grid), np.round(reference * grid)) > 0.01

    def test_unmarked_mass_is_below_the_smallest_subnormal(self):
        """``P(Gamma(1+a) > 760) ≤ 761·e^{−760} < 2^−1074`` for every
        ``a ∈ (0, 1]``: the tail, ``760^a e^{−760} ∫ (1 + u/760)^a e^{−u} du
        / Γ(1+a)``, by Gauss–Laguerre quadrature (exact at ``a = 1``)."""
        bound = math.log(GAMMA_CAP + 1.0) - GAMMA_CAP
        assert bound < -1074 * math.log(2.0)
        nodes, weights = np.polynomial.laguerre.laggauss(40)
        for a in [1e-9, 2e-5, 1e-3, *np.linspace(0.0, 1.0, 201)[1:]]:
            integral = weights @ (1.0 + nodes / GAMMA_CAP) ** a
            log_tail = (
                a * math.log(GAMMA_CAP) - GAMMA_CAP + math.log(integral)
                - math.lgamma(1.0 + a)
            )
            assert log_tail <= bound + 1e-12, a

    @pytest.mark.parametrize("n_nu, lam", [(333, 50.0), (50_000, 0.006)])
    def test_law_does_not_depend_on_the_block(self, monkeypatch, n_nu, lam):
        """Blocks of 1 KiB instead of 128 KiB move the stream, not the law."""
        rows = DRAWS // 3
        default = gen_noise_shares(rows, n_nu, lam, np.random.default_rng(7), 3)
        monkeypatch.setattr(blocks, "BLOCK_BYTES", 1 << 10)
        small = gen_noise_shares(rows, n_nu, lam, np.random.default_rng(7), 3)
        assert not np.array_equal(default, small)
        zeros = [np.mean(x == 0.0) for x in (default, small)]
        pooled = np.mean(zeros)
        assert abs(zeros[0] - zeros[1]) <= 4 * math.sqrt(
            2 * pooled * (1 - pooled) / default.size
        )
        assert ks_pvalue(default[default != 0], small[small != 0]) > 0.01

    def test_strided_out_is_filled_in_place(self):
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        payload = np.full((700, 32), 7.0)
        shares = gen_noise_shares(700, 700, 5.0, rng, 31, out=payload[:, :31])
        assert shares.base is payload
        reference = gen_noise_shares(700, 700, 5.0, reference_rng, 31)
        assert np.array_equal(payload[:, :31], reference)
        assert np.array_equal(np.signbit(payload[:, :31]), np.signbit(reference))
        assert (payload[:, 31] == 7.0).all()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestDivisibility:
    """Lemma 1: the sum of n_ν shares is distributed as Laplace(0, λ)."""

    @pytest.mark.parametrize("n_shares", [2, 10, 100])
    def test_sum_is_laplace(self, n_shares):
        rng = np.random.default_rng(n_shares)
        lam = 4.0
        trials = 40_000
        shares = gen_noise_share(n_shares, lam, rng, size=(trials, n_shares))
        totals = shares.sum(axis=1)
        assert ks_pvalue_cdf(totals, laplace_cdf(lam)) > 0.01

    def test_population_sum_is_laplace(self):
        """n_ν = 50 000 through the matrix path: each column of a
        ``(50 000, dims)`` share matrix sums to one Laplace draw."""
        rng = np.random.default_rng(50)
        lam, n_nu, dims = 2.0, 50_000, 40
        out = np.empty((n_nu, dims))
        totals = np.concatenate([
            gen_noise_shares(n_nu, n_nu, lam, rng, dims, out=out).sum(axis=0)
            for _ in range(30)
        ])
        assert ks_pvalue_cdf(totals, laplace_cdf(lam)) > 0.01
        assert totals.var() == pytest.approx(2 * lam * lam, rel=0.15)

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
        "surplus, dims, n_nu, trials",
        [(1, 7, 10, 600), (3, 211, 10, 20), (1_500, 211, 10, 10),
         (40_000, 30, 50_000, 70)],
        ids=["one", "few", "many", "population"],
    )
    def test_one_draw_is_the_summed_shares(self, surplus, dims, n_nu, trials):
        """``Gamma(m/n_ν) − Gamma(m/n_ν)`` per dimension has the law of the
        column sums of an ``(m, dims)`` share matrix."""
        lam = 2.5
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(6)
        corrections = np.concatenate([
            surplus_correction(n_nu + surplus, n_nu, lam, rng, dims)
            for _ in range(trials)
        ])
        summed = np.concatenate([
            gen_noise_shares(surplus, n_nu, lam, reference_rng, dims).sum(axis=0)
            for _ in range(trials)
        ])
        assert ks_pvalue(corrections, summed) > 0.01

    def test_peak_is_one_share_matrix(self):
        """The correction's working set is O(dims), whatever the surplus."""
        dims = 211
        for surplus in (3_000, 30_000):
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                surplus_correction(10 + surplus, 10, 1.0, rng, dims)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * dims * 8

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
