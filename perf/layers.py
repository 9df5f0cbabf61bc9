"""Per-layer metric names, units and the trace self-check table.

Layers are this repo's modules.  Every span ``X`` gives ``X_s`` (total
seconds inside it during the op), ``X_calls`` and — where the call's
arguments carry a work count — ``X_items``.  A few metrics are derived
(self times, medians, file timestamps, kernel probes); they are listed in
:data:`DERIVED`.  ``BENCHMARK.json`` declares exactly the names in
:data:`PER_LAYER` (pinned by ``perf/tests``).
"""

from __future__ import annotations

import statistics

from .spans import PATCHES

__all__ = [
    "DERIVED",
    "EXPECTED_SPANS",
    "PER_LAYER",
    "PROBES",
    "PROTOCOL_WORKLOADS",
    "span_layers",
]

#: Workloads that run Algorithm 1 in-process (iteration spans, coverage gate).
PROTOCOL_WORKLOADS = (
    "vcrypto_encrypt",
    "vcrypto_gossip",
    "object_decrypt",
    "vectorized_mock",
)

#: Spans the harness records itself, around its own calls into a layer.
HARNESS_SPANS = (
    "api.experiment.run_record",
    "warehouse.schema.connect",
    "warehouse.ingest.bulk",
    "warehouse.ingest.incremental",
    "warehouse.ingest.noop",
    "warehouse.report.fig2",
    "warehouse.report.fig3",
    "warehouse.report.latency",
    "warehouse.report.attacks",
    "warehouse.report.bench",
)

#: Direct kernel probes (traced run only): metric → (kind, key bits, calls).
#: The modulus is n² of a key that size, as the s = 1 planes use it.
PROBES = {
    "crypto.bigint.powmod_us_512": ("powmod", 256, 2000),
    "crypto.bigint.powmod_us_2048": ("powmod", 1024, 100),
    "crypto.numtheory.fixed_base_pow_us_256": ("fixed_base", 256, 2000),
    "crypto.numtheory.fixed_base_pow_us_1024": ("fixed_base", 1024, 2000),
}

#: Metrics that are not a plain span total: name → unit.
DERIVED = {
    "core.computation.step_self_s": "s",  # Alg. 3 glue outside wrapped calls
    "core.protocol.iter_s": "s",  # median run_iter step after the first
    "core.protocol.first_iter_extra_s": "s",  # first step − that median
    "api.import_s": "s",  # import repro.* in a fresh interpreter
    "api.experiment.facade_self_s": "s",  # run_s − init − steps − run_record
    "service.worker.spawn_to_first_event_s": "s",  # job.json claim → first ts
    "service.worker.job_wall_s": "s",  # job.json started_at → finished_at
    "service.job_overhead_s": "s",  # (run_s·workers − Σ inline) / jobs
    "service.bus.publish_us": "us",  # per line through EventBus.publish_record
    "warehouse.ingest.rows": "count",
    "warehouse.events_per_s": "1/s",  # bulk rows / bulk seconds
    "warehouse.report_s": "s",  # the five reports together
    **{name: "us" for name in PROBES},
    "calibration.slowdown": "ratio",  # probe time / reference (calibration.py)
    "trace.overhead_frac": "ratio",  # traced run_s / untraced − 1
    "trace.coverage_frac": "ratio",  # leaf-span seconds / run_s
}


def _span_names() -> dict[str, bool]:
    """Span name → whether it carries an items count."""
    names: dict[str, bool] = {}
    for _module, _path, name, items, _kind in PATCHES:
        names[name] = names.get(name, False) or items is not None
    for name in HARNESS_SPANS:
        names[name] = False
    return names


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    for name, has_items in _span_names().items():
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
        if has_items:
            units[f"{name}_items"] = "count"
    units.update(DERIVED)
    return units


#: Every per-layer metric → its unit.
PER_LAYER = _per_layer()


def span_layers(
    summary: dict[str, dict], run_s: float, leaf_s: float, protocol: bool
) -> dict:
    """Per-layer values read off one traced op's span summary.

    ``protocol`` ops run Algorithm 1 once inside the run window, so the
    iteration medians and the facade's self time are defined for them.
    """
    values: dict[str, float] = {"trace.coverage_frac": leaf_s / run_s}
    for name, entry in summary.items():
        values[f"{name}_s"] = entry["total_s"]
        values[f"{name}_calls"] = entry["calls"]
        if f"{name}_items" in PER_LAYER:
            values[f"{name}_items"] = entry["items"]
    if "core.computation.step" in summary:
        values["core.computation.step_self_s"] = summary[
            "core.computation.step"
        ]["self_s"]
    if protocol:
        steps = summary["core.protocol.iter"]["durations"]
        later = statistics.median(steps[1:])
        values["core.protocol.iter_s"] = later
        values["core.protocol.first_iter_extra_s"] = steps[0] - later
        values["api.experiment.facade_self_s"] = run_s - sum(
            summary[name]["total_s"]
            for name in (
                "core.protocol.init",
                "core.protocol.iter",
                "api.experiment.run_record",
            )
        )
    return values


_PROTOCOL_COMMON = (
    "datasets.build",
    "api.experiment.context",
    "api.experiment.run_record",
    "core.protocol.init",
    "core.protocol.iter",
    "core.computation.step",
    "clustering.distance.assign",
    "clustering.inertia.intra_inertia",
)
_VECTORIZED_ENGINE = (
    "gossip.vectorized_protocol.run_cycle",
    "gossip.vectorized_protocol.draw_pairing",
    "gossip.dissemination.exchange_pairs",
    "gossip.decryption.share_collection",
    "core.noise.draw_shares",
    "core.noise.correction",
)
_VCRYPTO = _PROTOCOL_COMMON + _VECTORIZED_ENGINE + (
    "crypto.threshold.keygen",
    "crypto.damgard_jurik.fast_encryptor_init",
    "crypto.encoding.pack",
    "crypto.encoding.unpack",
    "crypto.backend.encrypt_batch",
    "crypto.backend.mulmod_batch",
    "crypto.backend.partial_decrypt_batch",
    "crypto.threshold.combine",
    "gossip.cipher_array.exchange_pairs",
)

#: Trace self-check: spans that must fire at least once on each workload.  A
#: name-import that escaped the patch then fails the run instead of reading
#: 0 s.  (``service_batch`` runs its jobs in other processes; the spans
#: below come from the scheduler side and the inline baseline.)
EXPECTED_SPANS = {
    "vcrypto_encrypt": _VCRYPTO,
    # An odd population leaves one node out of every pairing, so only here
    # do exchange counters diverge and Alg. 2's delayed-division scaling
    # (pow_batch) run at all.
    "vcrypto_gossip": _VCRYPTO + ("crypto.backend.pow_batch",),
    "object_decrypt": _PROTOCOL_COMMON + (
        "crypto.threshold.keygen",
        "crypto.damgard_jurik.fast_encryptor_init",
        "crypto.encoding.pack",
        "crypto.encoding.unpack",
        "crypto.backend.encrypt_batch",
        "crypto.backend.partial_decrypt_batch",
        "crypto.threshold.combine",
        "gossip.engine.run_cycle",
        "gossip.eesum.object_exchange",
        "gossip.decryption.epidemic_setup",
        "gossip.decryption.epidemic_exchange",
        "gossip.decryption.plaintexts_of",
        "core.noise.correction",
    ),
    "vectorized_mock": _PROTOCOL_COMMON + _VECTORIZED_ENGINE + (
        "gossip.eesum.vectorized_exchange_pairs",
    ),
    "service_batch": (
        "service.store.submit_batch",
        "service.scheduler.drain",
        "datasets.build",
        "api.experiment.context",
        "api.checkpoint.save",
        "core.computation.step",
    ),
    "warehouse_ingest": tuple(
        name for name in HARNESS_SPANS if name.startswith("warehouse.")
    ) + ("datasets.build",),
}
