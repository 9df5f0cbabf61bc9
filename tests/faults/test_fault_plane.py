"""End-to-end fault injection through the Experiment API, both planes.

Every test drives a full hostile deployment through ``RunSpec.faults`` and
asserts on the *event stream*: detections carry the right detector, aborts
are clean (``RunCompleted(reason="aborted")``, never a stack trace), and
an empty faults block is bit-identical to no fault plane at all.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.api import (
    Experiment,
    FaultDetected,
    IterationCompleted,
    RunAborted,
    RunCompleted,
    RunSpec,
)
from repro.faults.plan import FaultPlan

SPECS = pathlib.Path(__file__).resolve().parents[2] / "perf" / "specs"


def toy_spec(toy_dataset, toy_initial_centroids, plane, faults=None,
             **param_overrides) -> RunSpec:
    """The tests/conftest toy workload (24 devices, 3 clusters) as a spec."""
    params = {"k": 3, "max_iterations": 2, "exchanges": 12,
              "tau_fraction": 0.13, "epsilon": 2000.0, "key_bits": 256,
              "expansion_s": 2, "use_smoothing": False, "theta": 0.0}
    params.update(param_overrides)
    d = {
        "name": "fault-toy",
        "seed": 3,
        "strategy": "UF2",
        "plane": plane,
        "dataset": {"kind": "timeseries",
                    "params": {"values": toy_dataset.values.tolist(),
                               "dmin": 0.0, "dmax": 60.0, "name": "toy"}},
        "init": {"kind": "matrix",
                 "params": {"values": toy_initial_centroids.tolist()}},
        "params": params,
    }
    if faults is not None:
        d["faults"] = faults
    return RunSpec.from_dict(d)


def run_events(spec, keypair):
    return list(Experiment.from_spec(spec, keypair=keypair).run_iter())


def detections(events, detector=None):
    found = [e for e in events if isinstance(e, FaultDetected)]
    if detector is not None:
        found = [e for e in found if e.detector == detector]
    return found


def final_reason(events):
    assert isinstance(events[-1], RunCompleted)
    return events[-1].reason


@pytest.mark.parametrize("plane", ["object", "vectorized"])
class TestBitIdentity:
    def test_empty_faults_block_is_bit_identical(
        self, plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        """The tentpole determinism contract: declaring ``faults: []``
        changes nothing — not one bit of any released centroid."""
        without = toy_spec(toy_dataset, toy_initial_centroids, plane)
        with_empty = toy_spec(toy_dataset, toy_initial_centroids, plane,
                              faults=[])
        a = Experiment.from_spec(without, keypair=threshold_keypair_s2).run()
        b = Experiment.from_spec(with_empty, keypair=threshold_keypair_s2).run()
        assert np.array_equal(a.centroids, b.centroids)
        assert len(a.history) == len(b.history)
        for sa, sb in zip(a.history, b.history):
            assert np.array_equal(sa.centroids, sb.centroids)
            assert sa.post_inertia == sb.post_inertia


@pytest.mark.parametrize("plane", ["object", "vectorized"])
class TestNetworkFault:
    def test_lossy_network_degrades_but_completes(
        self, plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        baseline = toy_spec(toy_dataset, toy_initial_centroids, plane)
        lossy = toy_spec(
            toy_dataset, toy_initial_centroids, plane,
            faults=[{"kind": "network",
                     "params": {"loss": 0.3, "duplicate": 0.1,
                                "delay": 0.1, "max_delay": 2}}],
        )
        base = Experiment.from_spec(baseline, keypair=threshold_keypair_s2).run()
        events = run_events(lossy, threshold_keypair_s2)
        assert final_reason(events) != "aborted"
        assert not detections(events)  # packet loss is not an *attack* signal
        iterations = [e for e in events if isinstance(e, IterationCompleted)]
        assert iterations, "a lossy network must still make progress"
        # the fault actually bit: the gossip trajectory diverged
        assert not np.array_equal(iterations[-1].stats.centroids, base.centroids)


class TestByzantineTamper:
    @pytest.mark.parametrize("plane", ["object", "vectorized"])
    def test_tampered_report_flagged_and_excluded(
        self, plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, plane,
            faults=[{"kind": "byzantine",
                     "params": {"nodes": [0], "mode": "tamper",
                                "scale": 0.5}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        flagged = detections(events, "decryption-cross-check")
        assert flagged, "a 50% scaled report must not pass the cross-check"
        assert 0 in flagged[0].participants
        assert final_reason(events) != "aborted"

    def test_abort_on_detect_escalates(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "vectorized",
            faults=[{"kind": "byzantine",
                     "params": {"nodes": [0], "mode": "tamper",
                                "scale": 0.5, "abort_on_detect": True}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        aborts = [e for e in events if isinstance(e, RunAborted)]
        assert len(aborts) == 1
        assert aborts[0].fault == "byzantine"
        assert final_reason(events) == "aborted"


class TestByzantineReplay:
    def test_replayed_reports_detected_from_second_iteration(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "vectorized",
            faults=[{"kind": "byzantine",
                     "params": {"nodes": [2, 3], "mode": "replay"}}],
            max_iterations=3,
        )
        spec = spec.replace(strategy="UF3")
        events = run_events(spec, threshold_keypair_s2)
        flagged = detections(events, "decryption-cross-check")
        assert flagged, "stale replayed reports must deviate from the median"
        # iteration 1 has nothing to replay yet — detection starts at 2
        assert min(e.iteration for e in flagged) >= 2


class TestByzantineMalformed:
    def test_object_plane_rejects_at_exchange_boundary(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "object",
            faults=[{"kind": "byzantine",
                     "params": {"nodes": [5], "mode": "malformed",
                                "rate": 1.0}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        guarded = detections(events, "exchange-guard")
        assert guarded, "a truncated EESum batch must be rejected on receipt"
        assert guarded[0].detail["mode"] == "malformed"

    def test_vectorized_nan_poison_aborts_cleanly(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "vectorized",
            faults=[{"kind": "byzantine",
                     "params": {"nodes": [1], "mode": "malformed"}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        aborts = [e for e in events if isinstance(e, RunAborted)]
        assert len(aborts) == 1
        assert aborts[0].epsilon_charged > 0.0
        assert final_reason(events) == "aborted"
        assert detections(events, "decryption-cross-check")


class TestByzantineUnenrolled:
    @pytest.mark.parametrize("plane", ["object", "vectorized"])
    def test_forged_tokens_rejected_at_bootstrap(
        self, plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, plane,
            faults=[{"kind": "byzantine",
                     "params": {"nodes": [7, 11], "mode": "unenrolled"}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        rejected = detections(events, "device-registry")
        assert len(rejected) == 1
        assert rejected[0].iteration == 0  # bind time, before any gossip
        assert set(rejected[0].participants) == {7, 11}
        assert rejected[0].detail["rejected"] == 2
        assert rejected[0].detail["enrolled"] == 22
        assert final_reason(events) != "aborted"


class TestChurnStorm:
    @pytest.mark.parametrize("plane", ["object", "vectorized"])
    def test_storm_onsets_are_observable(
        self, plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, plane,
            faults=[{"kind": "churn-storm",
                     "params": {"rate": 1.0, "magnitude": 0.25,
                                "duration": 2}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        storms = detections(events, "availability-monitor")
        assert storms, "rate=1.0 must storm on the very first cycle"
        onset = storms[0]
        assert onset.detail["offline"] == 6  # 25% of 24
        assert onset.detail["duration_cycles"] == 2
        assert final_reason(events) != "aborted"


class TestCollusion:
    def test_below_threshold_coalition_cannot_decrypt(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        """c = τ − 1 = 2: the empirical attack recovers garbage, matching
        the App. B.3 bound."""
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "object",
            faults=[{"kind": "collusion", "params": {"collusions": 2}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        audits = detections(events, "coalition-audit")
        assert len(audits) == 1
        detail = audits[0].detail
        assert detail["threshold"] == 3
        assert detail["key_compromised"] is False
        assert detail["empirical_decryption"] is False
        assert detail["missing_key_shares"] == 1
        assert final_reason(events) != "aborted"

    def test_threshold_coalition_decrypts(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        """c = τ = 3: the coalition's combination succeeds empirically."""
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "object",
            faults=[{"kind": "collusion", "params": {"collusions": 3}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        detail = detections(events, "coalition-audit")[0].detail
        assert detail["key_compromised"] is True
        assert detail["empirical_decryption"] is True
        assert detail["missing_key_shares"] == 0
        assert final_reason(events) != "aborted"

    def test_vectorized_audit_is_analytical_only(
        self, toy_dataset, toy_initial_centroids, threshold_keypair_s2
    ):
        spec = toy_spec(
            toy_dataset, toy_initial_centroids, "vectorized",
            faults=[{"kind": "collusion", "params": {"fraction": 0.5}}],
        )
        events = run_events(spec, threshold_keypair_s2)
        detail = detections(events, "coalition-audit")[0].detail
        assert detail["collusions"] == 12
        assert detail["empirical_decryption"] is None  # no key material
        assert detail["unknown_noise_fraction"] == pytest.approx(0.5)



def test_object_proxy_applies_the_network_policy_cycle_by_cycle():
    """The object proxy puts each cycle's whole drawn schedule to
    ``transform_pairs``: every verdict becomes exactly the deliveries it
    stands for, and the verdicts occur at the configured rates."""
    from collections import Counter

    from repro.faults.base import fault_rng
    from repro.faults.engines import FaultyEngine
    from repro.faults.network import NetworkFault, NetworkInjector
    from repro.gossip import GossipEngine

    config = NetworkFault(loss=0.2, duplicate=0.25, delay=0.3, max_delay=3)
    verdicts = Counter()
    expected = Counter()  # (delivery cycle, initiator, contact) -> copies

    class Recording(NetworkInjector):
        def transform_pairs(self, iteration, left, right):
            verdict = super().transform_pairs(iteration, left, right)
            kept_left, kept_right, extras, delayed = verdict
            now = engine.cycles
            # A node is in at most one pair a cycle: its id names the pair.
            duplicated = {i for extra, _ in extras for i in extra.tolist()}
            for pair in zip(kept_left.tolist(), kept_right.tolist()):
                copies = 2 if pair[0] in duplicated else 1
                verdicts["duplicated" if copies == 2 else "delivered"] += 1
                expected[(now, *pair)] += copies
            for lag, late_left, late_right in delayed:
                for pair in zip(late_left.tolist(), late_right.tolist()):
                    verdicts["delayed"] += 1
                    expected[(now + lag, *pair)] += 1
            late = sum(len(late_left) for _, late_left, _ in delayed)
            verdicts["dropped"] += len(left) - len(kept_left) - late
            return verdict

    class Deliveries:
        def __init__(self):
            self.seen = Counter()

        def exchange(self, initiator, contact):
            self.seen[(engine.cycles, initiator.node_id, contact.node_id)] += 1

    injector = Recording(config, fault_rng(4, "network", 0))
    plan = FaultPlan([("network", config)], seed=4)
    plan.injectors = [injector]
    engine = FaultyEngine(GossipEngine(100, seed=4), plan, iteration=1)
    protocol = Deliveries()
    scheduled = engine.run_cycles(80, protocol)
    judged = Counter(verdicts)
    injector.config = NetworkFault()  # calm network: the late messages land
    engine.run_cycles(config.max_delay, protocol)
    assert protocol.seen == expected

    assert scheduled == sum(judged.values()) == 4000
    rates = {
        "dropped": config.loss,
        "delayed": (1 - config.loss) * config.delay,
        "duplicated": (1 - config.loss) * (1 - config.delay) * config.duplicate,
    }
    rates["delivered"] = 1 - sum(rates.values())
    for verdict, rate in rates.items():
        sigma = (scheduled * rate * (1 - rate)) ** 0.5
        assert abs(judged[verdict] - scheduled * rate) < 4.5 * sigma, verdict


@pytest.mark.parametrize("loss", [0.0, 0.5])
@pytest.mark.parametrize("plane", ["object", "vectorized"])
def test_both_planes_count_each_drawn_pair_once(plane, loss):
    """A faulted cycle counts every pair it drew, as one attempted send, on
    either plane — whether the network delivered it or not."""
    from repro.faults.base import FaultInjector, fault_rng
    from repro.faults.network import NetworkFault
    from repro.gossip import GossipEngine, VectorizedGossipEngine

    class Drawn(FaultInjector):
        """First in the chain, so it sees each schedule as drawn."""

        def __init__(self):
            self.pairs = []

        def transform_pairs(self, iteration, left, right):
            self.pairs += [left, right]
            return left, right, [], []

    population = 41
    config = NetworkFault(loss=loss)
    plan = FaultPlan([("network", config)], seed=4)
    drawn = Drawn()
    plan.injectors = [drawn, config.build(fault_rng(4, "network", 0))]
    if plane == "object":
        engine = GossipEngine(population, seed=4, churn=0.2)
    else:
        engine = VectorizedGossipEngine(population, seed=4, churn=0.2)
    plan.wrap_engine(engine, iteration=1).run_cycles(20)
    expected = np.bincount(np.concatenate(drawn.pairs), minlength=population)
    assert expected.sum() > 0
    assert np.array_equal(engine.exchanges, expected)


#: Faulted toy runs whose decoded results a restructured engine or fault
#: proxy must not move: sha256 of ``Experiment.run().to_dict()`` as sorted
#: JSON (the form ``tests/api/test_spec_digests.py`` pins).  Both engines
#: draw one schedule, so where the object plane's epidemic decryption
#: finishes in the cycles the array plane's share collection does (tamper,
#: replay, collusion) the two planes' pins are one digest.
_BYZANTINE = {
    "tamper": {"nodes": [0], "mode": "tamper", "scale": 0.5},
    "replay": {"nodes": [2, 3], "mode": "replay"},
    "malformed": {"nodes": [5], "mode": "malformed", "rate": 0.5},
    "unenrolled": {"nodes": [7, 11], "mode": "unenrolled"},
}
_FAULTS = {
    "network": {"kind": "network", "params": {
        "loss": 0.3, "duplicate": 0.1, "delay": 0.1, "max_delay": 2}},
    **{f"byzantine-{mode}": {"kind": "byzantine", "params": params}
       for mode, params in _BYZANTINE.items()},
    "collusion": {"kind": "collusion", "params": {"collusions": 3}},
    "churn-storm": {"kind": "churn-storm", "params": {
        "rate": 0.3, "magnitude": 0.25, "duration": 2}},
}
FAULTED_DIGESTS = {
    ("vectorized", "network"):
        "9a1bebb2066d1926642b00cef94619a2a39f173057e8a87010ec29554cae750e",
    ("vectorized", "byzantine-tamper"):
        "32e7748f52fe33dfcd828f5d3b734e430cb9164481407abd7be14ad3b692a406",
    ("vectorized", "byzantine-replay"):
        "8d6f434d24c0dc002551903f136608acf33252fcd817e8d163e2dfc07304ce60",
    ("vectorized", "byzantine-malformed"):
        "3f718a3bffeb69975b74cbe4cb87018a24a3f6350ade6dfcc68e5f809dba9fe9",
    ("vectorized", "byzantine-unenrolled"):
        "27030196c8f34ffd929ede35d1ac35a84f8a7c9e2e89d281e13d100582c1e22c",
    ("vectorized", "collusion"):
        "8d6f434d24c0dc002551903f136608acf33252fcd817e8d163e2dfc07304ce60",
    ("vectorized", "churn-storm"):
        "60e6dfc33f1d6824b67aa020d4c74148ef0e2aff31f49dae87993e676e1a7e05",
    ("object", "network"):
        "515b8777e6f0327cd796d0908633e9dfcc8add9b260c0cbb1259aee5870455e2",
    ("object", "byzantine-tamper"):
        "32e7748f52fe33dfcd828f5d3b734e430cb9164481407abd7be14ad3b692a406",
    ("object", "byzantine-replay"):
        "8d6f434d24c0dc002551903f136608acf33252fcd817e8d163e2dfc07304ce60",
    ("object", "byzantine-malformed"):
        "2bb42c21ac8062160a0f61951355b1d58ad417dcf9994b984e6e7f3c81fd243c",
    ("object", "byzantine-unenrolled"):
        "a35672298a0e5d6692be134a2fcebc7c557762e9202628faeb339189b68a49b0",
    ("object", "collusion"):
        "8d6f434d24c0dc002551903f136608acf33252fcd817e8d163e2dfc07304ce60",
    ("object", "churn-storm"):
        "8197d6128fd21149f084120dccabcbf28fd5e34a5bec60cb5c84f3ea98980413",
}


@pytest.mark.parametrize(
    "plane, fault", sorted(FAULTED_DIGESTS), ids=lambda value: str(value)
)
def test_faulted_run_result_digest(
    plane, fault, toy_dataset, toy_initial_centroids, threshold_keypair_s2
):
    spec = toy_spec(
        toy_dataset, toy_initial_centroids, plane, faults=[_FAULTS[fault]],
        max_iterations=3,
    ).replace(strategy="UF3")
    result = Experiment.from_spec(spec, keypair=threshold_keypair_s2).run()
    record = json.dumps(result.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == FAULTED_DIGESTS[plane, fault]


_DUPLICATE_AND_DELAY = {
    "kind": "network",
    "params": {"duplicate": 0.3, "delay": 0.3, "max_delay": 3},
}


@pytest.mark.parametrize("plane", ["object", "vectorized-crypto"])
def test_real_ciphertext_planes_decode_under_duplicate_and_delay(
    plane, toy_dataset, toy_initial_centroids, threshold_keypair_s2
):
    """Duplicated and delayed pairs are delivered as extra batches of a
    cycle, each of which can advance a counter once more: the codec holds
    ``cycles × batches_per_cycle`` (here 24 × 5), so the run decodes."""
    spec = toy_spec(
        toy_dataset, toy_initial_centroids, plane, faults=[_DUPLICATE_AND_DELAY]
    )
    assert FaultPlan.from_spec(spec).batches_per_cycle == 5
    result = Experiment.from_spec(spec, keypair=threshold_keypair_s2).run()
    assert result.iterations == 2
    assert np.isfinite(result.centroids).all()


def test_a_fault_plan_beyond_the_key_is_refused_before_encrypting(monkeypatch):
    """``vcrypto_gossip`` at 60 cycles × 4 batches needs a 240-bit
    accumulation room its 256-bit key lacks: construction refuses it with
    the codec's way out, and nothing is encrypted first."""
    from repro.crypto.backend import SerialBackend

    def encrypt_batch(*args, **kwargs):
        raise AssertionError("encrypted before the codec refused")

    monkeypatch.setattr(SerialBackend, "encrypt_batch", encrypt_batch)
    spec = json.loads((SPECS / "vcrypto_gossip.json").read_text())
    spec["params"]["max_iterations"] = 1
    spec["faults"] = [
        {"kind": "network", "params": {"delay": 0.2, "max_delay": 3}}
    ]
    with pytest.raises(ValueError, match="key size or the expansion s"):
        Experiment.from_spec(RunSpec.from_dict(spec)).run()
