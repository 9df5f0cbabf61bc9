"""The ``Experiment`` facade: plane dispatch, streaming events, equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from _runs import fold
from repro.api import (
    Experiment,
    IterationCompleted,
    RunCompleted,
    RunSpec,
    RunStarted,
    run_environment,
    run_record,
)
from repro.core import ChiaroscuroRun, ClusteringResult


def quality_spec(**overrides) -> RunSpec:
    d = {
        "plane": "quality",
        "seed": 9,
        "strategy": "UF3",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 300, "population_scale": 100}},
        "init": {"kind": "courbogen"},
        "params": {"k": 4, "max_iterations": 5, "epsilon": 0.69, "theta": 0.0},
    }
    d.update(overrides)
    return RunSpec.from_dict(d)


def toy_spec_dict(toy_dataset, toy_initial_centroids) -> dict:
    """One spec, three planes: the toy workload carried inline."""
    return {
        "name": "three-planes",
        "seed": 3,
        "strategy": "UF2",
        "dataset": {"kind": "timeseries",
                    "params": {"values": toy_dataset.values.tolist(),
                               "dmin": 0.0, "dmax": 60.0, "name": "toy"}},
        "init": {"kind": "matrix",
                 "params": {"values": toy_initial_centroids.tolist()}},
        "params": {"k": 3, "max_iterations": 2, "exchanges": 12,
                   "tau_fraction": 0.13, "epsilon": 2000.0, "key_bits": 256,
                   "expansion_s": 2, "use_smoothing": False, "theta": 0.0},
    }


class TestFacadeEquivalence:
    def test_quality_plane_matches_direct_call(self):
        """The facade adds wiring, not semantics: same seeds → same trace."""
        spec = quality_spec(options={"gossip_e_max": 1e-3})
        via_api = Experiment.from_spec(spec).run()

        context = Experiment.from_spec(spec).context
        run = ChiaroscuroRun(
            context.dataset, context.strategy, spec.params,
            context.initial_centroids, seed=spec.seed, plane="quality",
            gossip_e_max=1e-3,
        )
        direct, _ = fold(run)
        assert via_api.iterations == direct.iterations == 3  # UF3 bound
        assert np.array_equal(via_api.centroids, direct.centroids)
        for a, b in zip(via_api.history, direct.history):
            assert np.array_equal(a.centroids, b.centroids)
            assert a.pre_inertia == b.pre_inertia

    def test_vectorized_plane_matches_direct_run(self):
        spec = quality_spec(plane="vectorized", seed=5)
        via_api = Experiment.from_spec(spec).run()

        context = Experiment.from_spec(spec).context
        run = ChiaroscuroRun(
            context.dataset, context.strategy, spec.params,
            context.initial_centroids, seed=spec.seed, plane=spec.plane,
        )
        direct, _ = fold(run)
        assert via_api.iterations == direct.iterations
        assert np.array_equal(via_api.centroids, direct.centroids)


class TestOneSpecThreePlanes:
    def test_same_spec_drives_all_three_planes(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        base = toy_spec_dict(toy_dataset, toy_initial_centroids)
        results = {}
        for plane in ("quality", "object", "vectorized"):
            spec = RunSpec.from_dict({**base, "plane": plane})
            # the keypair shortcut only matters on the object plane; the
            # others ignore it — the *spec* is identical modulo "plane"
            experiment = Experiment.from_spec(spec, keypair=threshold_keypair_s2)
            results[plane] = experiment.run()

        for plane, result in results.items():
            assert isinstance(result, ClusteringResult), plane
            assert result.iterations >= 1, plane
            assert result.history[0].n_centroids >= 1, plane
        # ε = 2000 on 24 well-separated devices: every plane recovers the
        # three clusters' means to within a loose tolerance of each other.
        for plane in ("object", "vectorized"):
            assert results[plane].centroids.shape == (3, 6), plane


class TestEvents:
    def test_event_stream_shape(self):
        events = list(Experiment.from_spec(quality_spec()).run_iter())
        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunCompleted)
        iteration_events = [e for e in events if isinstance(e, IterationCompleted)]
        assert [e.iteration for e in iteration_events] == [1, 2, 3]
        assert events[0].label == "UF3_SMA"
        assert events[0].population == 300 * 100
        assert events[-1].reason == "budget"  # UF3 bound < max_iterations 5

    @pytest.mark.parametrize(
        "strategy, label",
        [("G", "G_SMA"), ("gf", "GF_SMA"), ("UF", "UF5_SMA"), ("uf7", "UF7_SMA")],
    )
    def test_a_run_has_one_label(self, strategy, label):
        """``run_started`` and the result name the *resolved* strategy: a
        spec saying ``"uf"`` used to start as ``UF_SMA`` and end as
        ``UF5_SMA``."""
        events = list(Experiment.from_spec(quality_spec(strategy=strategy)).run_iter())
        assert events[0].label == events[-1].result.label == label

    def test_iteration_events_carry_budget_accounting(self):
        events = [
            e for e in Experiment.from_spec(quality_spec()).run_iter()
            if isinstance(e, IterationCompleted)
        ]
        spent = [e.epsilon_spent_total for e in events]
        assert spent == sorted(spent)
        assert spent[-1] == pytest.approx(0.69)
        assert events[-1].epsilon_remaining == pytest.approx(0.0)
        assert all(e.active_series == 300 for e in events)  # no churn

    def test_run_started_surfaces_crypto_environment(self):
        events = list(Experiment.from_spec(quality_spec()).run_iter())
        started = events[0]
        assert started.crypto_backend == "serial"
        # Resolved, never "auto" — records which arithmetic actually ran.
        assert started.bigint_backend in ("python", "gmpy2")
        assert started.key_bits == 0  # quality plane builds no ciphertexts

    def test_run_record_carries_environment_block(self):
        spec = quality_spec()
        result = Experiment.from_spec(spec).run()
        record = run_record(spec, result)
        assert record["environment"] == run_environment(spec)
        assert record["environment"]["bigint_backend"] in ("python", "gmpy2")
        assert record["environment"]["crypto_backend"] == "serial"
        assert record["environment"]["key_bits"] == 0

    def test_object_plane_environment_reports_key_bits(self):
        spec = quality_spec(plane="object",
                            params={"k": 4, "max_iterations": 5,
                                    "epsilon": 0.69, "theta": 0.0,
                                    "key_bits": 256})
        assert run_environment(spec)["key_bits"] == 256

    def test_early_stop_by_breaking(self):
        seen = []
        for event in Experiment.from_spec(quality_spec()).run_iter():
            if isinstance(event, IterationCompleted):
                seen.append(event.iteration)
                if event.iteration == 1:
                    break  # consumer stops; generator cleanup must not raise
        assert seen == [1]

    def test_vectorized_events_carry_gossip_counters(self):
        spec = quality_spec(plane="vectorized")
        events = [
            e for e in Experiment.from_spec(spec).run_iter()
            if isinstance(e, IterationCompleted)
        ]
        assert events
        assert all(e.exchanges_per_node > spec.params.exchanges for e in events)
        assert all(e.agreement is not None for e in events)

    def test_cycle_hook_observes_gossip_progress(self):
        spec = quality_spec(plane="vectorized")
        cycles = []
        Experiment.from_spec(spec).run(cycle_hook=lambda i, n: cycles.append((i, n)))
        assert len(cycles) > 2 * spec.params.exchanges  # EESum + dis + collection
        assert all(n <= 300 for _, n in cycles)

    def test_run_reason_converged(self):
        spec = quality_spec(
            strategy="G",
            params={"k": 4, "max_iterations": 8, "epsilon": 1e6, "theta": 1e3},
        )
        events = list(Experiment.from_spec(spec).run_iter())
        assert events[-1].reason == "converged"
        assert events[-1].result.converged


class TestOptionsForwarding:
    def test_quality_options_reach_perturbation(self):
        base = quality_spec()
        lemma2 = quality_spec(options={"gossip_e_max": 1e-3})
        a = Experiment.from_spec(base).run()
        b = Experiment.from_spec(lemma2).run()
        # same seed, the Lemma 2 error model on → different draws
        assert not np.array_equal(a.centroids, b.centroids)

    def test_unknown_quality_option_rejected(self):
        """``sensitivity_mode`` is gone, with no shim: a stored spec that
        still carries it fails loudly, naming the key."""
        with pytest.raises(ValueError, match="unknown options key.*'sensitivity_mode'"):
            quality_spec(options={"sensitivity_mode": "per-aggregate"})
