"""End-to-end integration tests of the full distributed execution sequence
(Algorithm 1) with real threshold cryptography over the gossip engine."""

import numpy as np
import pytest

from _runs import fold
from repro.core import ChiaroscuroParams, ChiaroscuroRun
from repro.crypto import bigint
from repro.privacy import Greedy, UniformFast
from repro.privacy.accountant import PrivacyAccountant


@pytest.fixture(scope="module")
def toy_params():
    return ChiaroscuroParams(
        k=3,
        max_iterations=3,
        exchanges=20,
        tau_fraction=0.13,  # τ = 3 of 24
        epsilon=1e6,
        expansion_s=2,
        use_smoothing=False,
        theta=0.0,
    )


@pytest.fixture(scope="module")
def near_exact_run(toy_dataset, toy_initial_centroids, toy_params, threshold_keypair_s2):
    """One shared protocol execution with negligible noise (huge ε)."""
    run = ChiaroscuroRun(
        toy_dataset,
        UniformFast(1e6, 3),
        toy_params,
        toy_initial_centroids,
        seed=3,
        keypair=threshold_keypair_s2,
    )
    return fold(run)


class TestCorrectness:
    """Theorem 1: the protocol terminates and outputs at least one centroid."""

    def test_terminates_with_centroids(self, near_exact_run):
        result, _ = near_exact_run
        assert result.iterations >= 1
        assert len(result.centroids) >= 1

    def test_recovers_true_cluster_means(self, near_exact_run, toy_dataset):
        """With negligible noise, the decrypted means equal the true means."""
        result, _ = near_exact_run
        values = toy_dataset.values
        true_means = np.array(
            [values[0:8].mean(axis=0), values[8:16].mean(axis=0), values[16:24].mean(axis=0)]
        )
        final = result.centroids
        assert len(final) == 3
        for mean in true_means:
            closest = np.min(np.linalg.norm(final - mean, axis=1))
            assert closest < 0.5

    def test_nodes_agree(self, near_exact_run):
        """All participants converge to (numerically) the same aggregates."""
        _, steps = near_exact_run
        assert all(step.agreement < 1e-3 for step in steps)

    def test_exchange_accounting(self, near_exact_run, toy_params):
        _, steps = near_exact_run
        for step in steps:
            # at least the EESum cycles
            assert step.exchanges_per_node >= toy_params.exchanges


class TestPerturbedRun:
    def test_noise_actually_perturbs(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        """With a realistic ε on 24 nodes the DP noise must dominate —
        the protocol stays correct (terminates, outputs centroids) while
        the output visibly deviates from the true means."""
        params = ChiaroscuroParams(
            k=3, max_iterations=2, exchanges=15, tau_fraction=0.13,
            epsilon=5.0, expansion_s=2, use_smoothing=False, theta=0.0,
        )
        run = ChiaroscuroRun(
            toy_dataset, Greedy(5.0), params, toy_initial_centroids,
            seed=11, keypair=threshold_keypair_s2,
        )
        result, _ = fold(run)
        assert result.iterations >= 1
        assert len(result.centroids) >= 1
        values = toy_dataset.values
        true_means = np.array(
            [values[0:8].mean(axis=0), values[8:16].mean(axis=0), values[16:24].mean(axis=0)]
        )
        first = result.history[0].centroids
        deviation = min(
            np.linalg.norm(first - m, axis=1).min() for m in true_means
        )
        assert deviation > 0.01  # the perturbation is real

    def test_churned_run_still_terminates(
        self, toy_dataset, toy_initial_centroids, toy_params, threshold_keypair_s2
    ):
        run = ChiaroscuroRun(
            toy_dataset, UniformFast(1e6, 2),
            ChiaroscuroParams(
                k=3, max_iterations=2, exchanges=25, tau_fraction=0.13,
                epsilon=1e6, expansion_s=2, use_smoothing=False, theta=0.0,
            ),
            toy_initial_centroids, seed=5,
            keypair=threshold_keypair_s2,
        )
        result, _ = fold(run, churn=0.2)
        assert result.iterations >= 1
        assert len(result.centroids) >= 1


PLANES = ("object", "vectorized", "vectorized-crypto")


class _RaisingFaultPlan:
    """What ``ChiaroscuroRun`` reads of a fault plan — the codec's batch
    bound and three seams — with an output observer that fails the
    iteration from inside the ``use_backend`` block."""

    batches_per_cycle = 1

    def bind_run(self, run):
        pass

    def wrap_engine(self, engine, iteration):
        return engine

    def observe_output(self, output, iteration):
        raise RuntimeError("observer failed")


@pytest.mark.parametrize("plane", PLANES)
class TestRunIterLifecycle:
    """One Algorithm 1 loop: every plane releases its backend once on every
    exit path, restores the bigint kernel, and replays the ε prefix."""

    @pytest.fixture()
    def make_run(
        self, plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        def build(fault_plan=None):
            params = ChiaroscuroParams(
                k=3, max_iterations=4, exchanges=8, tau_fraction=0.13,
                epsilon=1e6, expansion_s=2 if plane == "object" else 1,
                use_smoothing=False, theta=0.0, key_bits=256,
            )
            run = ChiaroscuroRun(
                toy_dataset, Greedy(1e6), params, toy_initial_centroids,
                seed=5,
                keypair=threshold_keypair_s2 if plane == "object" else None,
                fault_plan=fault_plan, plane=plane,
            )
            closes = []
            release = run.close
            run.close = lambda: (closes.append(1), release())
            return run, closes

        return build

    def test_exhausting_the_generator_releases_once(self, make_run):
        kernel = bigint.active_backend()
        run, closes = make_run()
        steps = list(run.run_iter())
        assert [s.stats.iteration for s in steps] == [1, 2, 3, 4]
        assert closes == [1]
        assert bigint.active_backend() == kernel

    def test_closing_after_one_step_releases_once(self, make_run):
        kernel = bigint.active_backend()
        run, closes = make_run()
        steps = run.run_iter()
        next(steps)
        assert closes == []  # still running: the backend stays up
        assert bigint.active_backend() == kernel  # restored before the yield
        steps.close()
        assert closes == [1]

    def test_a_raising_step_releases_once(self, make_run):
        kernel = bigint.active_backend()
        run, closes = make_run(fault_plan=_RaisingFaultPlan())
        with pytest.raises(RuntimeError, match="observer failed"):
            next(run.run_iter())
        assert closes == [1]
        assert bigint.active_backend() == kernel

    def test_resume_replays_the_epsilon_prefix(self, make_run, monkeypatch):
        """Resumed from iteration 2's record (it carries what a state log
        line does), a run charges the same four slices and releases the
        uninterrupted run's iterations 3 and 4."""
        run, _ = make_run()
        uninterrupted = list(run.run_iter())
        charged = []
        charge = PrivacyAccountant.charge

        def spy(self, epsilon, n_values=1):
            charged.append(epsilon)
            charge(self, epsilon, n_values)

        monkeypatch.setattr(PrivacyAccountant, "charge", spy)
        run, closes = make_run()
        steps = list(run.run_iter(resume=uninterrupted[1]))
        schedule = Greedy(1e6).schedule(4)
        assert charged == schedule  # same four charges on every plane
        assert [s.stats.iteration for s in steps] == [3, 4]
        assert [s.stats.epsilon_spent for s in steps] == schedule[2:]
        for resumed, original in zip(steps, uninterrupted[2:]):
            assert np.array_equal(resumed.centroids, original.centroids)
        assert closes == [1]
