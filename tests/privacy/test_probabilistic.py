"""Tests for the Appendix B (ε, δ)-probabilistic machinery — including the
paper's own worked numbers."""

import math

import pytest

from repro.privacy import (
    GossipPrivacyPlan,
    delta_atom,
    lemma2_noise_inflation,
    lemma2_scale,
    newscast_exchanges,
)


class TestTheorem3:
    def test_paper_worked_example(self):
        """App. B: δ=0.995, e_max=1e-12, s²=1, n_p=1e6, n_it=10, n=24 →
        δ_atom = 480th root of 0.995 and n_e = 47."""
        atom = delta_atom(0.995, max_iterations=10, series_length=24)
        assert atom == pytest.approx(0.995 ** (1 / 480))
        assert atom == pytest.approx(1 - 1e-5, abs=2e-6)  # the paper's "≈ 1−10⁻⁵"
        iota = 1 - atom  # the paper's convention; see GossipPrivacyPlan.iota
        n_e = newscast_exchanges(10**6, 1e-12, iota, variance=1.0)
        assert n_e == 47

    def test_footnote10_number(self):
        """Sec. 6 footnote: δ = 0.995 reachable with n_e = 47 exchanges."""
        plan = GossipPrivacyPlan(
            delta=0.995,
            e_max=1e-12,
            population=10**6,
            max_iterations=10,
            series_length=24,
        )
        assert plan.exchanges == 47

    def test_logarithmic_in_population(self):
        small = newscast_exchanges(10**3, 1e-6, 0.01)
        large = newscast_exchanges(10**6, 1e-6, 0.01)
        assert large - small == pytest.approx(0.581 * math.log(1000), abs=1.0)

    def test_tighter_error_needs_more_exchanges(self):
        loose = newscast_exchanges(10**4, 1e-3, 0.01)
        tight = newscast_exchanges(10**4, 1e-9, 0.01)
        assert tight > loose

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            newscast_exchanges(1, 1e-3, 0.1)
        with pytest.raises(ValueError):
            newscast_exchanges(100, -1.0, 0.1)
        with pytest.raises(ValueError):
            newscast_exchanges(100, 1e-3, 1.5)


class TestDeltaAtom:
    def test_composition_consistency(self):
        """δ_atom^(n_it·2n) == δ."""
        atom = delta_atom(0.9, max_iterations=5, series_length=10)
        assert atom ** (5 * 2 * 10) == pytest.approx(0.9)

    def test_delta_one(self):
        assert delta_atom(1.0, 10, 24) == 1.0

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            delta_atom(0.0, 10, 24)


class TestLemma2:
    def test_scale_inflation(self):
        base = lemma2_scale(1920.0, 0.69, 0.0)
        inflated = lemma2_scale(1920.0, 0.69, 0.01)
        assert inflated == pytest.approx(base * 1.01)

    def test_noise_inflation_factor(self):
        assert lemma2_noise_inflation(0.0) == 1.0
        assert lemma2_noise_inflation(0.5) == pytest.approx(2.0)
        # c ≥ e_max/(1−e_max): compensation covers the worst shrink
        e = 0.2
        c = lemma2_noise_inflation(e) - 1.0
        assert (1 + c) * (1 - e) >= 1.0 - 1e-12

    def test_invalid_e_max(self):
        with pytest.raises(ValueError):
            lemma2_noise_inflation(1.0)

    def test_plan_bundles_everything(self):
        plan = GossipPrivacyPlan(
            delta=0.99, e_max=1e-9, population=10**4, max_iterations=5, series_length=20
        )
        assert 0 < plan.iota < 1
        assert plan.delta_atom ** (5 * 2 * 20) == pytest.approx(0.99)
        assert plan.noise_inflation >= 1.0
        assert plan.exchanges >= 1
