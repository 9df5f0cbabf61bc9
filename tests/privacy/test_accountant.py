"""Tests for the privacy accountant."""

import pytest

from repro.privacy import BudgetOverrun, Greedy, PrivacyAccountant, UniformFast


class TestCharging:
    def test_simple_charge(self):
        acc = PrivacyAccountant(epsilon_budget=1.0)
        acc.charge(0.4)
        assert acc.spent == pytest.approx(0.4)
        assert acc.remaining == pytest.approx(0.6)

    def test_overrun_detected(self):
        acc = PrivacyAccountant(epsilon_budget=1.0)
        acc.charge(0.9)
        with pytest.raises(BudgetOverrun):
            acc.charge(0.2)

    def test_exact_spend_with_float_noise(self):
        """UNIFORM_FAST-style: n charges of ε/n must fit despite round-off."""
        acc = PrivacyAccountant(epsilon_budget=0.69)
        for _ in range(10):
            acc.charge(0.69 / 10)
        assert acc.remaining == pytest.approx(0.0, abs=1e-9)

    def test_invalid_charges(self):
        acc = PrivacyAccountant(epsilon_budget=1.0)
        with pytest.raises(ValueError):
            acc.charge(0.0)
        with pytest.raises(ValueError):
            acc.charge(0.1, n_values=0)


class TestChargedSchedule:
    """The one Algorithm 1 loop head: charge ε_i, then yield (i, ε_i)."""

    def test_charges_before_yielding(self):
        acc = PrivacyAccountant(epsilon_budget=1.0)
        strategy = Greedy(1.0)
        for iteration, epsilon_i in acc.charged_schedule(strategy, 4):
            assert epsilon_i == strategy.epsilon_for(iteration)
            assert acc.spent == sum(strategy.schedule(iteration))

    def test_prefix_replay_charges_without_yielding(self):
        acc = PrivacyAccountant(epsilon_budget=1.0)
        strategy = Greedy(1.0)
        schedule = acc.charged_schedule(strategy, 5, start_iteration=3)
        assert next(schedule) == (3, strategy.epsilon_for(3))
        # iterations 1 and 2 are on the ledger, in left-to-right order
        assert acc.spent == 0.0 + 0.5 + 0.25 + 0.125
        assert [i for i, _ in schedule] == [4, 5]
        assert acc.spent == sum(strategy.schedule(5))

    def test_strategy_bound_ends_it_silently(self):
        acc = PrivacyAccountant(epsilon_budget=0.9)
        slices = list(acc.charged_schedule(UniformFast(0.9, 3), 10))
        assert [i for i, _ in slices] == [1, 2, 3]
        assert acc.remaining == pytest.approx(0.0, abs=1e-9)

    def test_resume_past_the_bound_yields_nothing(self):
        acc = PrivacyAccountant(epsilon_budget=0.9)
        assert list(acc.charged_schedule(UniformFast(0.9, 3), 10, 4)) == []
        assert acc.spent == pytest.approx(0.9)

    def test_overspending_slice_still_raises(self):
        """BudgetOverrun is a ledger violation, not the end of a schedule."""
        acc = PrivacyAccountant(epsilon_budget=0.5)
        schedule = acc.charged_schedule(UniformFast(1.0, 2), 2)
        assert next(schedule) == (1, 0.5)
        with pytest.raises(BudgetOverrun):
            next(schedule)
        assert acc.spent == 0.5


