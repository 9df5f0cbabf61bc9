"""Wire-format coverage for the run-event stream.

Every member of the ``RunEvent`` union must survive
``event_to_dict`` → NDJSON → warehouse ingestion.  The union itself is
enumerated via ``typing.get_args`` so a future event type added without
a sample here fails loudly instead of being silently dropped from the
telemetry plane.  The wire form is read off the events' dataclass fields;
the bytes it produced before that (an ``isinstance`` ladder, at
``101c385``) are pinned below.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

import numpy as np
import pytest

from repro import api
from repro.api import (
    CheckpointSaved,
    FaultDetected,
    IterationCompleted,
    RunAborted,
    RunCompleted,
    RunEvent,
    RunStarted,
    event_to_dict,
)
from repro.api import events as events_module
from repro.core.results import ClusteringResult, IterationRecord, IterationStats
from repro.service import append_ndjson, read_events
from repro.warehouse import Ingester, connect


def _stats(iteration: int = 1) -> IterationStats:
    return IterationStats(
        iteration=iteration,
        pre_inertia=12.5,
        post_inertia=11.0,
        n_centroids=3,
        epsilon_spent=0.25,
        centroids=np.zeros((3, 4)),
    )


SAMPLES: dict[type, RunEvent] = {
    RunStarted: RunStarted(
        spec=None,
        label="G_SMA",
        dataset_name="cer",
        t=100,
        n=24,
        population=10_000,
        sum_sensitivity=2.0,
        resumed_iteration=0,
        crypto_backend="serial",
        bigint_backend="python",
        key_bits=256,
    ),
    IterationCompleted: IterationCompleted(
        stats=_stats(),
        epsilon_spent_total=0.25,
        epsilon_remaining=0.75,
        active_series=98,
        agreement=0.5,
        exchanges_per_node=3.0,
        crypto_ms=118.25,
    ),
    CheckpointSaved: CheckpointSaved(
        iteration=1, path=pathlib.Path("/tmp/ckpt/iter_001.json")
    ),
    FaultDetected: FaultDetected(
        iteration=2,
        fault="byzantine",
        detector="decryption-cross-check",
        participants=(4, 9),
        detail={"bad_sums": 1},
    ),
    RunAborted: RunAborted(
        iteration=2, fault="collusion", reason="key compromised",
        epsilon_charged=0.5,
    ),
    RunCompleted: RunCompleted(
        result=ClusteringResult(
            centroids=np.zeros((3, 4)),
            history=[_stats(1), _stats(2)],
            converged=True,
            strategy="G",
        ),
        reason="converged",
    ),
}

EVENT_TYPES = typing.get_args(RunEvent)


def _exported_name(event_type: type) -> str:
    """The name ``repro.api`` exports the class under (``IterationCompleted``
    is the loop's ``IterationRecord``, so ``__name__`` would say that)."""
    return next(n for n in api.__all__ if getattr(api, n) is event_type)


#: Compact ``json.dumps(event_to_dict(SAMPLES[...]))`` as printed by the
#: parent commit's hand-written ladder: the wire must not move by a byte.
PINNED = {
    RunStarted: '{"type":"run_started","label":"G_SMA","dataset":"cer","t":100,"n":24,"population":10000,"sum_sensitivity":2.0,"resumed_iteration":0,"crypto_backend":"serial","bigint_backend":"python","key_bits":256}',
    IterationCompleted: '{"type":"iteration_completed","iteration":1,"pre_inertia":12.5,"post_inertia":11.0,"n_centroids":3,"epsilon_spent":0.25,"epsilon_spent_total":0.25,"epsilon_remaining":0.75,"active_series":98,"agreement":0.5,"exchanges_per_node":3.0,"crypto_ms":118.25}',
    CheckpointSaved: '{"type":"checkpoint_saved","iteration":1,"path":"/tmp/ckpt/iter_001.json"}',
    FaultDetected: '{"type":"fault_detected","iteration":2,"fault":"byzantine","detector":"decryption-cross-check","participants":[4,9],"detail":{"bad_sums":1}}',
    RunAborted: '{"type":"run_aborted","iteration":2,"fault":"collusion","reason":"key compromised","epsilon_charged":0.5}',
    RunCompleted: '{"type":"run_completed","reason":"converged","iterations":2,"converged":true,"n_centroids":3}',
}
PINNED_BARE_ITERATION = '{"type":"iteration_completed","iteration":1,"pre_inertia":12.5,"post_inertia":11.0,"n_centroids":3,"epsilon_spent":0.25,"epsilon_spent_total":0.25,"epsilon_remaining":0.75,"active_series":null,"agreement":null,"exchanges_per_node":null,"crypto_ms":null}'


def _compact(event) -> str:
    return json.dumps(event_to_dict(event), separators=(",", ":"))


def test_samples_cover_the_whole_union():
    """Adding a new RunEvent member forces a sample (and a pin) here."""
    assert set(SAMPLES) == set(EVENT_TYPES) == set(PINNED)


def test_iteration_completed_is_the_loops_record():
    assert IterationCompleted is IterationRecord


@pytest.mark.parametrize("event_type", EVENT_TYPES, ids=_exported_name)
def test_wire_bytes_are_pinned(event_type):
    assert _compact(SAMPLES[event_type]) == PINNED[event_type]


def test_bare_iteration_wire_bytes_are_pinned():
    bare = IterationCompleted(
        stats=_stats(), epsilon_spent_total=0.25, epsilon_remaining=0.75
    )
    assert _compact(bare) == PINNED_BARE_ITERATION


def _declared_wire_keys(obj) -> list[str]:
    """What the declarations say goes on the wire, in field order."""
    keys: list[str] = []
    for f in dataclasses.fields(obj):
        key = f.metadata.get("wire", f.name)
        value = getattr(obj, f.name)
        if key is False:
            continue
        if dataclasses.is_dataclass(value):
            keys += _declared_wire_keys(value)
        else:
            keys.append(key)
    return keys


@pytest.mark.parametrize("event_type", EVENT_TYPES, ids=_exported_name)
def test_wire_keys_are_the_declared_on_wire_fields(event_type):
    """One field per fact: the wire is the ``"type"`` tag plus every
    declared field not marked off-wire, in declaration order — so a new
    fact is one edit, the field itself."""
    sample = SAMPLES[event_type]
    assert list(event_to_dict(sample)) == ["type"] + _declared_wire_keys(sample)


def test_a_new_field_reaches_the_wire_and_an_off_wire_one_does_not(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Throwaway:
        iteration: int
        fresh_fact: float
        renamed: str = dataclasses.field(default="x", metadata={"wire": "alias"})
        heavy: tuple = dataclasses.field(default=(), metadata={"wire": False})

    monkeypatch.setitem(events_module.EVENT_TAGS, Throwaway, "throwaway")
    wire = event_to_dict(Throwaway(iteration=3, fresh_fact=1.5, heavy=(1, 2)))
    assert wire == {
        "type": "throwaway", "iteration": 3, "fresh_fact": 1.5, "alias": "x",
    }


@pytest.mark.parametrize("event_type", EVENT_TYPES, ids=_exported_name)
def test_wire_dict_round_trips_through_ndjson(event_type, tmp_path):
    wire = event_to_dict(SAMPLES[event_type])
    assert isinstance(wire["type"], str) and wire["type"]
    path = tmp_path / "events.ndjson"
    append_ndjson(path, wire)
    assert read_events(path) == [json.loads(json.dumps(wire))] == [wire]


@pytest.mark.parametrize("event_type", EVENT_TYPES, ids=_exported_name)
def test_every_event_kind_lands_in_the_warehouse(event_type, tmp_path):
    """No event kind is silently dropped by ingestion: each wire line
    becomes exactly one row in the events table."""
    wire = dict(event_to_dict(SAMPLES[event_type]))
    wire.update({"job": "j1", "seq": 7, "ts": 1.5})
    path = tmp_path / "events.ndjson"
    append_ndjson(path, wire)

    con = connect(tmp_path / "wh.db")
    ingester = Ingester(con)
    ingester.ingest_events_file(path, job_id="j1")
    con.commit()
    row = con.execute("SELECT * FROM events").fetchone()
    assert row is not None, f"{wire['type']} dropped by ingestion"
    assert row["event_key"] == "j1:7"
    assert row["type"] == wire["type"]
    assert json.loads(row["payload"]) == wire
    con.close()


def test_fault_detected_round_trip_preserves_evidence():
    wire = event_to_dict(SAMPLES[FaultDetected])
    assert wire["participants"] == [4, 9]
    assert wire["detail"] == {"bad_sums": 1}
    assert json.loads(json.dumps(wire)) == wire


def test_run_aborted_carries_the_charged_budget():
    wire = event_to_dict(SAMPLES[RunAborted])
    assert wire == {
        "type": "run_aborted",
        "iteration": 2,
        "fault": "collusion",
        "reason": "key compromised",
        "epsilon_charged": 0.5,
    }


def test_checkpoint_saved_path_is_a_plain_string():
    wire = event_to_dict(SAMPLES[CheckpointSaved])
    assert wire["path"] == "/tmp/ckpt/iter_001.json"
    assert isinstance(wire["path"], str)


def test_iteration_completed_carries_crypto_ms():
    wire = event_to_dict(SAMPLES[IterationCompleted])
    assert wire["crypto_ms"] == 118.25
    # Planes without real ciphertexts leave the field unset → None on the
    # wire, so latency consumers can tell "no crypto" from "0 ms".
    bare = event_to_dict(
        IterationCompleted(
            stats=_stats(), epsilon_spent_total=0.25, epsilon_remaining=0.75
        )
    )
    assert bare["crypto_ms"] is None


def test_non_event_rejected():
    with pytest.raises(TypeError, match="not a run event"):
        event_to_dict(object())
