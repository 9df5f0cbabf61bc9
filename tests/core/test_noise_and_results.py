"""Tests for the NoisePlan, result containers, and participant-local steps."""

from dataclasses import replace

import numpy as np
import pytest

from _runs import fold
from repro.core import ChiaroscuroParams, ChiaroscuroRun, NoisePlan
from repro.core.results import ClusteringResult, IterationStats
from repro.crypto import PublicKey
from repro.gossip.vectorized_protocol import pairing_cycles
from repro.privacy import Greedy, UniformFast


class TestNoisePlan:
    def test_dimensions(self):
        plan = NoisePlan(k=5, series_length=24, dmin=0, dmax=80, epsilon=0.5, n_nu=100)
        assert plan.dimensions == 5 * 25

    def test_scale_uses_joint_sensitivity(self):
        plan = NoisePlan(k=2, series_length=24, dmin=0, dmax=80, epsilon=0.5, n_nu=10)
        assert plan.scale == pytest.approx((24 * 80 + 1) / 0.5)

    def test_share_shape(self):
        plan = NoisePlan(k=3, series_length=4, dmin=0, dmax=1, epsilon=1.0, n_nu=10)
        shares = plan.draw_shares(np.random.default_rng(0), 4)
        assert shares.shape == (4, 15)

    def test_shares_sum_to_laplace_variance(self):
        plan = NoisePlan(k=1, series_length=0 + 1, dmin=0, dmax=1, epsilon=1.0, n_nu=64)
        rng = np.random.default_rng(1)
        totals = np.array(
            [plan.draw_shares(rng, 64)[:, 0].sum() for _ in range(4000)]
        )
        assert totals.var() == pytest.approx(2 * plan.scale**2, rel=0.15)

    def test_correction_zero_without_surplus(self):
        plan = NoisePlan(k=1, series_length=2, dmin=0, dmax=1, epsilon=1.0, n_nu=50)
        assert np.allclose(plan.correction(50, np.random.default_rng(2)), 0.0)

    def test_correction_nonzero_with_surplus(self):
        plan = NoisePlan(k=1, series_length=2, dmin=0, dmax=1, epsilon=1.0, n_nu=50)
        correction = plan.correction(60, np.random.default_rng(3))
        assert not np.allclose(correction, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoisePlan(k=0, series_length=2, dmin=0, dmax=1, epsilon=1.0, n_nu=5)
        with pytest.raises(ValueError):
            NoisePlan(k=1, series_length=2, dmin=0, dmax=1, epsilon=1.0, n_nu=0)

    def test_sensitivity_is_the_joint_one(self, toy_dataset):
        """One series moves each of the n sums by at most max|d| and its
        cluster's count by 1."""
        plan = NoisePlan(
            k=3, series_length=toy_dataset.n, dmin=toy_dataset.dmin,
            dmax=toy_dataset.dmax, epsilon=1.0, n_nu=24,
        )
        assert plan.sensitivity == 6 * 60 + 1

    @pytest.mark.parametrize("epsilon", [0.0, -0.5])
    def test_non_positive_epsilon_is_refused_at_the_plan(self, epsilon):
        plan = NoisePlan(k=1, series_length=2, dmin=0, dmax=1, epsilon=1.0, n_nu=5)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            replace(plan, epsilon=epsilon)

    def test_an_iteration_plan_keeps_the_runs_slot_bound(self):
        """Only k and ε_i change per iteration: every iteration's plan
        sizes the codec the run sized, at the schedule's worst slice."""
        slices = tuple(Greedy(1.0).schedule(4))
        run_plan = NoisePlan(
            k=5, series_length=24, dmin=0, dmax=80, epsilon=slices[0], n_nu=100,
            slices=slices,
        )
        last = replace(run_plan, k=3, epsilon=slices[-1])
        assert (last.k, last.dimensions, last.slices) == (3, 75, slices)
        assert last.scale == (24 * 80 + 1) / slices[-1]
        assert last.max_slot_value == run_plan.max_slot_value == (
            80 + 60.0 * (24 * 80 + 1) / slices[-1]
        )
        # Without a schedule the plan stands for its own slice alone.
        assert replace(last, slices=()).max_slot_value == last.max_slot_value

    def test_codec_at_the_fig5_shape(self):
        """k = 50 series of n = 20 on [0, 80], GREEDY at ε = 0.69 over 10
        iterations, n_e = 30 on the counter bound of both real-ciphertext
        planes (2·n_e cycles), 1024-bit key — a modulus of that width is all
        the layout reads, so no key is generated.  Both planes pack one
        term: a node's means and noise share are summed on the grid and
        encrypted as one vector of 132 ciphertexts."""
        slices = tuple(Greedy(0.69).schedule(10))
        plan = NoisePlan(
            k=50, series_length=20, dmin=0.0, dmax=80.0, epsilon=slices[0],
            n_nu=1000, slices=slices,
        )
        public = PublicKey((1 << 1023) + 1)
        codec = plan.codec(public, exchanges=pairing_cycles(30))
        assert codec.fractional_bits == NoisePlan.fractional_bits == 24
        assert (codec.value_bits, codec.accumulation_bits) == (53, 63)
        assert codec.slot_bits == 53 + 1 + 63 == 117
        assert codec.slots == 8
        assert codec.packed_length(plan.dimensions) == 132  # per node

    def test_both_array_planes_quantize_on_the_plans_grid(
        self, monkeypatch, toy_dataset, toy_initial_centroids, threshold_keypair
    ):
        """The mock plane's step and the crypto plane's codec both take f
        from the plan: move it, and both move together — still decoding to
        identical floats, and no longer to the 2^-24 grid's."""
        params = ChiaroscuroParams(
            k=3, max_iterations=1, exchanges=3, epsilon=1e6,
            use_smoothing=False, theta=0.0,
        )

        def build(plane):
            return ChiaroscuroRun(
                toy_dataset, UniformFast(1e6, 1), params, toy_initial_centroids,
                seed=4, keypair=threshold_keypair, plane=plane,
            )

        on_24 = fold(build("vectorized"))[0].centroids
        monkeypatch.setattr(NoisePlan, "fractional_bits", 20)
        mock, crypto = build("vectorized"), build("vectorized-crypto")
        step = mock._computation_step(mock.noise_plan, churn=0.0)
        assert step.fractional_bits == crypto.packed.fractional_bits == 20
        on_20 = fold(mock)[0].centroids
        assert np.array_equal(on_20, fold(crypto)[0].centroids)
        assert not np.array_equal(on_20, on_24)


class TestResultContainers:
    def _result(self):
        result = ClusteringResult(centroids=np.zeros((2, 2)), strategy="G", smoothing=True)
        for i, (pre, n) in enumerate([(10.0, 5), (4.0, 4), (7.0, 3)], start=1):
            result.history.append(
                IterationStats(
                    iteration=i, pre_inertia=pre, post_inertia=pre + 1,
                    n_centroids=n, epsilon_spent=0.1, centroids=np.zeros((n, 2)),
                )
            )
        return result

    def test_curves(self):
        result = self._result()
        assert result.pre_inertia_curve == [10.0, 4.0, 7.0]
        assert result.n_centroids_curve == [5, 4, 3]
        assert result.iterations == 3

    def test_best_iteration(self):
        assert self._result().best_iteration().iteration == 2

    def test_best_iteration_empty(self):
        with pytest.raises(ValueError):
            ClusteringResult(centroids=np.zeros((1, 1))).best_iteration()

    def test_label(self):
        assert self._result().label == "G_SMA"
        plain = ClusteringResult(centroids=np.zeros((1, 1)), strategy="UF5")
        assert plain.label == "UF5"
