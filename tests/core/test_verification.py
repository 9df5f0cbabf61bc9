"""Tests for the Sec. 4.4 malicious-attacker countermeasures."""

import hmac

import numpy as np
import pytest

import repro.core.verification as verification_module
from repro.core import DecryptionCrossCheck, DeviceRegistry


class TestDeviceRegistry:
    def test_valid_token_enrolls(self):
        registry = DeviceRegistry(secret=b"registrar-secret")
        token = registry.token_for(7)
        slot = registry.enroll(7, token)
        assert registry.is_authorized(7)
        assert slot == 0

    def test_invalid_token_rejected(self):
        registry = DeviceRegistry(secret=b"registrar-secret")
        with pytest.raises(PermissionError):
            registry.enroll(7, "deadbeef" * 8)
        assert not registry.is_authorized(7)

    def test_token_bound_to_device(self):
        registry = DeviceRegistry(secret=b"registrar-secret")
        token_for_3 = registry.token_for(3)
        with pytest.raises(PermissionError):
            registry.enroll(4, token_for_3)

    def test_idempotent_slots(self):
        registry = DeviceRegistry(secret=b"s")
        first = registry.enroll(1, registry.token_for(1))
        second = registry.enroll(1, registry.token_for(1))
        assert first == second

    def test_distinct_slots(self):
        registry = DeviceRegistry(secret=b"s")
        slots = [registry.enroll(i, registry.token_for(i)) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_different_secrets_different_tokens(self):
        a = DeviceRegistry(secret=b"a")
        b = DeviceRegistry(secret=b"b")
        assert a.token_for(1) != b.token_for(1)

    def test_near_miss_token_rejected(self):
        """A token differing in a single hex digit never enrolls."""
        registry = DeviceRegistry(secret=b"registrar-secret")
        token = registry.token_for(5)
        flipped = ("0" if token[-1] != "0" else "1") + token[1:]
        near_miss = token[:-1] + ("0" if token[-1] != "0" else "1")
        for forged in (flipped, near_miss, token[:-1], token + "0"):
            with pytest.raises(PermissionError):
                registry.enroll(5, forged)
        assert not registry.is_authorized(5)

    def test_comparison_goes_through_compare_digest(self, monkeypatch):
        """Regression: token checks must stay on the constant-time
        comparator, never drift back to ``==`` (timing side channel)."""
        calls = []
        real = hmac.compare_digest

        def spying(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(
            verification_module.hmac, "compare_digest", spying
        )
        registry = DeviceRegistry(secret=b"registrar-secret")
        registry.enroll(3, registry.token_for(3))
        with pytest.raises(PermissionError):
            registry.enroll(4, registry.token_for(3))
        assert len(calls) == 2  # one comparison per enroll attempt


class TestDecryptionCrossCheck:
    def test_all_honest_clean(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=6) * 100
        reports = {i: truth * (1 + rng.uniform(-1e-6, 1e-6, 6)) for i in range(10)}
        report = DecryptionCrossCheck(relative_tolerance=1e-4).check(reports)
        assert not report.deviating
        assert len(report.agreeing) == 10

    def test_single_liar_flagged(self):
        truth = np.array([100.0, -50.0, 25.0])
        reports = {i: truth.copy() for i in range(9)}
        reports[4] = truth * 1.5  # the lying participant
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(reports)
        assert report.deviating == [4]
        assert 4 not in report.agreeing

    def test_median_reference_resists_minority(self):
        """Up to just under half the population lying does not move the
        reference onto the liars' value."""
        truth = np.array([10.0, 10.0])
        reports = {i: truth.copy() for i in range(6)}
        for i in range(6, 10):
            reports[i] = np.array([99.0, 99.0])
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(reports)
        assert sorted(report.deviating) == [6, 7, 8, 9]
        assert np.allclose(report.reference, truth)

    def test_benign_gossip_spread_tolerated(self):
        """The epidemic approximation error (≤ e_max) must not raise alarms."""
        rng = np.random.default_rng(1)
        truth = np.array([1000.0, 2000.0])
        e_max = 1e-6
        reports = {
            i: truth * (1 + rng.uniform(-e_max, e_max, 2)) for i in range(20)
        }
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(reports)
        assert not report.deviating
        assert report.max_benign_spread <= 2 * e_max

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DecryptionCrossCheck().check({})

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            DecryptionCrossCheck(relative_tolerance=0.0)


class TestNonFiniteDigests:
    """A NaN compares false against any tolerance — without an explicit
    gate a poisoned report would land in neither bucket."""

    def test_nan_report_flagged_as_deviating(self):
        truth = np.array([10.0, 20.0, 30.0])
        reports = {i: truth.copy() for i in range(8)}
        reports[3] = np.array([10.0, np.nan, 30.0])
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(reports)
        assert report.deviating == [3]
        assert report.non_finite == [3]
        assert 3 not in report.agreeing

    def test_inf_report_flagged_as_deviating(self):
        truth = np.array([10.0, 20.0])
        reports = {i: truth.copy() for i in range(6)}
        reports[0] = np.array([np.inf, 20.0])
        reports[5] = np.array([10.0, -np.inf])
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(reports)
        assert report.deviating == [0, 5]
        assert report.non_finite == [0, 5]

    def test_non_finite_excluded_from_reference(self):
        """Poisoned reports must not drag the median; the reference stays
        the honest value."""
        truth = np.array([100.0, 200.0])
        reports = {i: truth.copy() for i in range(5)}
        for i in range(5, 9):
            reports[i] = np.full(2, np.nan)
        report = DecryptionCrossCheck(relative_tolerance=1e-3).check(reports)
        assert np.array_equal(report.reference, truth)
        assert sorted(report.deviating) == [5, 6, 7, 8]

    def test_non_finite_is_subset_of_deviating(self):
        rng = np.random.default_rng(0)
        reports = {}
        for i in range(12):
            vector = rng.normal(size=4) * 100
            if i % 3 == 0:
                vector[i % 4] = np.nan
            if i % 5 == 0:
                vector *= 10  # also numerically deviant
            reports[i] = vector
        report = DecryptionCrossCheck(relative_tolerance=1e-2).check(reports)
        assert set(report.non_finite) <= set(report.deviating)

    def test_all_non_finite_fails_loudly(self):
        reports = {i: np.full(3, np.nan) for i in range(4)}
        with pytest.raises(ValueError, match="non-finite"):
            DecryptionCrossCheck().check(reports)

    def test_all_non_finite_error_truncates_participant_list(self):
        reports = {i: np.array([np.inf]) for i in range(40)}
        with pytest.raises(ValueError, match=r"\+24 more"):
            DecryptionCrossCheck().check(reports)
