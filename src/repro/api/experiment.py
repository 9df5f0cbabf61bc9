"""The ``Experiment`` facade: one front door for every execution plane.

    spec = RunSpec.load("experiment.json")
    result = Experiment.from_spec(spec).run()

or, streaming with checkpointing:

    for event in Experiment.from_spec(spec).run_iter(checkpoint_dir="ckpt"):
        ...

``Experiment`` resolves the spec's registry keys (dataset, initializer,
strategy, plane), builds the workload, and dispatches to the plane's
runner.  Planes are :class:`ExecutionPlane` instances in the
:data:`~repro.api.registry.PLANES` registry — the four built-ins
(``quality``, ``object``, ``vectorized``, ``vectorized-crypto``) are
registered by :mod:`repro.api.builtins`, and a new plane is one
``@register_plane`` away.

Seed discipline (what makes checkpoint/resume bit-identical):

* dataset generation uses ``dataset.params["seed"]`` if present, else the
  run seed;
* the initializer draws from ``default_rng(init.params["seed"] | seed)``;
* every plane seeds ``ChiaroscuroRun(seed=spec.seed)``, whose
  ``noise_rng = default_rng(seed + 1)`` is the quality plane's one stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from ..core.config import ChiaroscuroParams
from ..core.results import ClusteringResult, IterationRecord
from ..crypto import bigint
from ..datasets.timeseries import TimeSeriesSet
from ..privacy.budget import BudgetStrategy
from .checkpoint import Checkpoint, CheckpointStore
from .events import (
    CheckpointSaved,
    RunAborted,
    RunCompleted,
    RunEvent,
    RunStarted,
)
from .registry import DATASETS, INITIALIZERS, PLANES, resolve_strategy
from .spec import RunSpec

__all__ = [
    "Experiment",
    "ExecutionPlane",
    "RunContext",
    "RESULT_SCHEMA",
    "run_environment",
    "run_record",
]

#: Schema tag shared by every structured result emitted by the CLI and the
#: benchmark suite (see :func:`run_record`).
RESULT_SCHEMA = "chiaroscuro-run/v1"


def run_environment(spec: RunSpec) -> dict:
    """The crypto execution environment a spec resolves to, for telemetry.

    ``bigint_backend`` is the *concrete* kernel — never ``"auto"`` itself:
    an explicit spec choice is resolved (and validated), while ``auto``
    reports the process's active kernel, matching what ``ChiaroscuroRun``
    executes with — so a stored record states which arithmetic actually
    ran.
    ``key_bits`` is the threshold-key modulus size on planes that build
    genuine ciphertexts (``ExecutionPlane.uses_real_crypto`` — the
    ``object`` and ``vectorized-crypto`` built-ins); planes running no
    real crypto record ``key_bits = 0``.
    """
    requested = spec.params.bigint_backend
    return {
        "crypto_backend": spec.params.crypto_backend,
        "bigint_backend": (
            bigint.active_backend()
            if requested == "auto"
            else bigint.resolve_backend(requested)
        ),
        "key_bits": (
            spec.params.key_bits if PLANES.get(spec.plane).uses_real_crypto else 0
        ),
    }


@dataclass
class RunContext:
    """Everything a plane needs, resolved once per experiment."""

    spec: RunSpec
    dataset: TimeSeriesSet
    initial_centroids: np.ndarray
    strategy: BudgetStrategy
    params: ChiaroscuroParams
    keypair: Any = None  # optional pre-built ThresholdKeypair (object plane)
    runtime: Any = None  # plane-owned engine object, exposed for diagnostics
    fault_plan: Any = None  # FaultPlan when the spec declares faults


class ExecutionPlane:
    """Base class for registry-registered execution planes."""

    key: str = ""
    #: Every plane resumes from the state log; the reference benchmark's
    #: ``service_batch`` workload (``perf/workloads.py``) reads this name.
    supports_checkpoint = True
    #: Whether runs on this plane build genuine ciphertexts (and therefore
    #: a threshold key of ``params.key_bits``); drives the ``key_bits``
    #: field of :func:`run_environment`, and a spec naming the plane loads
    #: the real-ciphertext substrate while it resolves (:mod:`repro.lazy`).
    uses_real_crypto: bool = False
    #: ``RunSpec.options`` keys this plane consumes.  Spec validation
    #: rejects keys no registered plane declares (typo protection), while
    #: a plane ignores other planes' keys so one spec can pivot planes.
    option_keys: frozenset = frozenset()

    def run_iter(
        self,
        ctx: RunContext,
        resume: Checkpoint | None = None,
        cycle_hook: Callable[[int, int], None] | None = None,
    ) -> Iterator[IterationRecord]:
        """Yield the loop's per-iteration records, unchanged; ``resume`` is
        the last record of the state log to continue after."""
        raise NotImplementedError


#: ``params`` keys :func:`_spec_identity` ignores: the result-neutral
#: execution knobs, then keys retired since older checkpoints were written —
#: ``use_packing`` never had an effect on a checkpointable plane;
#: ``protocol_plane`` and ``budget_strategy`` restated the spec's ``plane``
#: and ``strategy``, which are compared; nothing ever read ``delta``.
_RESULT_NEUTRAL_PARAMS = frozenset({
    "bigint_backend", "crypto_backend", "backend_workers",
    "use_packing", "protocol_plane", "budget_strategy", "delta",
})


def _spec_identity(spec_dict: dict) -> dict:
    """A spec dict with result-neutral knobs stripped, for checkpoint
    compatibility checks.

    The bigint kernel and the execution backend are pure speed knobs
    (bit-identical outputs), so a run may legitimately resume its own
    checkpoint under a different kernel/backend/worker count — and
    checkpoints written before a knob existed must keep resuming.
    """
    identity = dict(spec_dict)
    identity["params"] = {
        k: v for k, v in spec_dict.get("params", {}).items()
        if k not in _RESULT_NEUTRAL_PARAMS
    }
    return identity


def _dataset_cache_key(kind: str, params: dict, seed: int) -> str:
    return json.dumps([kind, params, seed], sort_keys=True)


_DATASET_CACHE: dict[str, TimeSeriesSet] = {}
_DATASET_CACHE_MAX = 8


def build_dataset(kind: str, params: dict, seed: int) -> TimeSeriesSet:
    """Build (or reuse) a workload; sweeps over run seeds hit the cache."""
    params = dict(params)
    dataset_seed = params.pop("seed", seed)  # a pinned seed defines the data
    key = _dataset_cache_key(kind, params, dataset_seed)
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        return cached
    dataset = DATASETS.get(kind)(seed=dataset_seed, **params)
    if dataset.values.size <= 5_000_000:  # don't pin 10⁵–10⁶-node matrices
        if len(_DATASET_CACHE) >= _DATASET_CACHE_MAX:
            _DATASET_CACHE.pop(next(iter(_DATASET_CACHE)))
        _DATASET_CACHE[key] = dataset
    return dataset


class Experiment:
    """Facade: resolve a :class:`RunSpec` and execute it on its plane."""

    def __init__(self, spec: RunSpec, keypair: Any = None) -> None:
        self.spec = spec
        self._keypair = keypair
        self._context: RunContext | None = None

    @classmethod
    def from_spec(cls, spec: RunSpec, *, keypair: Any = None) -> "Experiment":
        return cls(spec, keypair=keypair)

    # -------------------------------------------------------------- context

    @property
    def context(self) -> RunContext:
        """The resolved workload/strategy/centroids (built on first access)."""
        if self._context is None:
            self._context = self._build_context()
        return self._context

    def _build_context(self) -> RunContext:
        spec = self.spec
        dataset = build_dataset(spec.dataset.kind, spec.dataset.params, spec.seed)
        init_params = dict(spec.init.params)
        init_rng = np.random.default_rng(init_params.pop("seed", spec.seed))
        initial = INITIALIZERS.get(spec.init.kind)(
            dataset, spec.params.k, init_rng, **init_params
        )
        initial = np.asarray(initial, dtype=float)
        strategy = resolve_strategy(spec.strategy, spec.params)
        return RunContext(
            spec=spec,
            dataset=dataset,
            initial_centroids=initial,
            strategy=strategy,
            params=spec.params,
            keypair=self._keypair,
        )

    def smoothing_active(self) -> bool:
        """Whether the SMA post-step applies to this run (all planes agree)."""
        return self.spec.params.smoothing_plan(self.context.dataset.n)[1]

    # ------------------------------------------------------------ execution

    def run_iter(
        self,
        checkpoint_dir: str | None = None,
        resume: bool = True,
        cycle_hook: Callable[[int, int], None] | None = None,
    ) -> Iterator[RunEvent]:
        """Execute the spec, yielding typed :class:`RunEvent` objects.

        The record is the event: each ``IterationCompleted`` is the very
        :class:`~repro.core.results.IterationRecord` the plane's loop
        yielded, passed on as is.

        With ``checkpoint_dir``, a :class:`Checkpoint` is appended to the
        directory's state log after every iteration and, when ``resume`` is
        true and the log was written by *the same spec*, the run continues
        after its last completed iteration; otherwise a new log replaces
        it.  Consumers may stop iterating at any time (early stopping).

        A spec declaring ``faults`` runs under a
        :class:`~repro.faults.FaultPlan`: :class:`FaultDetected` events
        interleave with the stream, and a fault the protocol cannot
        continue past yields a :class:`RunAborted` followed by a final
        ``RunCompleted(reason="aborted")`` — a clean end, never an
        exception.  Faulted runs skip checkpoint writes (injector state is
        not serialized; a seeded faulted run re-executes deterministically
        from scratch, which crash recovery relies on instead).
        """
        spec = self.spec
        ctx = self.context
        plane: ExecutionPlane = PLANES.get(spec.plane)

        fault_plan = None
        aborts = ()  # the exceptions that abort a run cleanly: a fault's only
        if spec.faults:
            # Loaded already: resolving the spec built its faults.
            from ..faults import FaultAbort, FaultPlan

            fault_plan, aborts = FaultPlan.from_spec(spec), (FaultAbort,)
            checkpoint_dir = None  # documented: faulted runs re-run, not resume
        ctx.fault_plan = fault_plan

        store: CheckpointStore | None = None
        records: list[Checkpoint] = []
        if checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
            if resume:
                records = store.records()
                if records and _spec_identity(
                    records[0].spec
                ) != _spec_identity(spec.to_dict()):
                    raise ValueError(
                        f"checkpoint in {store.directory} was written by a "
                        "different spec; refusing to resume (clear the "
                        "directory or pass resume=False)"
                    )
            store.start(records)
        checkpoint = records[-1] if records else None

        result = ClusteringResult(
            centroids=ctx.initial_centroids.copy(),
            strategy=ctx.strategy.name,
            smoothing=self.smoothing_active(),
        )
        if checkpoint is not None:
            result.history = [record.stats for record in records]
            result.centroids = checkpoint.stats.centroids
            result.converged = checkpoint.converged

        yield RunStarted(
            spec=spec,
            label=result.label,
            dataset_name=ctx.dataset.name,
            t=ctx.dataset.t,
            n=ctx.dataset.n,
            population=ctx.dataset.population,
            sum_sensitivity=ctx.dataset.sum_sensitivity,
            resumed_iteration=checkpoint.stats.iteration if checkpoint else 0,
            **run_environment(spec),
        )

        steps: Iterator[IterationRecord] = (
            iter(())  # the checkpointed run already converged: nothing to do
            if result.converged
            else plane.run_iter(ctx, resume=checkpoint, cycle_hook=cycle_hook)
        )
        aborted = False
        try:
            for step in steps:
                result.absorb(step)
                if fault_plan is not None:
                    # Detections raised during the iteration precede its
                    # completion event.
                    yield from fault_plan.drain_events()
                yield step  # the record is the IterationCompleted event
                if store is not None:
                    path = store.save(
                        Checkpoint(
                            stats=step.stats,
                            epsilon_spent=step.epsilon_spent_total,
                            converged=step.converged,
                            rng_state=step.rng_state,
                            crypto_state=step.crypto_state,
                            # the history mirrors the log, one entry a record
                            spec=None if len(result.history) > 1 else spec.to_dict(),
                        )
                    )
                    yield CheckpointSaved(
                        iteration=step.stats.iteration, path=path
                    )
        except aborts as abort:
            aborted = True
            yield from fault_plan.drain_events()
            yield RunAborted(
                iteration=abort.iteration,
                fault=abort.fault,
                reason=abort.reason,
                # The loop's accountant charges ε *before* an iteration
                # runs, so the aborted iteration's slice is already on the
                # ledger — report it, never under-report.
                epsilon_charged=ctx.runtime.accountant.spent,
            )

        if fault_plan is not None:
            # An iteration that ends the run without completing (lost
            # clusters, exhausted budget) may still have raised detections.
            yield from fault_plan.drain_events()
        yield RunCompleted(
            result=result,
            reason="aborted" if aborted else self._reason(result),
        )

    def run(
        self,
        checkpoint_dir: str | None = None,
        resume: bool = True,
        cycle_hook: Callable[[int, int], None] | None = None,
    ) -> ClusteringResult:
        """Execute the spec to completion; returns the final result."""
        result: ClusteringResult | None = None
        for event in self.run_iter(
            checkpoint_dir=checkpoint_dir, resume=resume, cycle_hook=cycle_hook
        ):
            if isinstance(event, RunCompleted):
                result = event.result
        assert result is not None  # run_iter always ends with RunCompleted
        return result

    def _reason(self, result: ClusteringResult) -> str:
        if result.converged:
            return "converged"
        last = result.history[-1].iteration if result.history else 0
        if last >= self.spec.params.max_iterations:
            return "iterations"
        bound = self.context.strategy.max_iterations()
        if bound is not None and last >= bound:
            return "budget"
        return "clusters-lost"


def run_record(
    spec: RunSpec,
    result: ClusteringResult,
    timings: dict | None = None,
    extra: dict | None = None,
    environment: dict | None = None,
) -> dict:
    """The canonical structured record of one run (``chiaroscuro-run/v1``).

    Every structured emitter — ``repro cluster --json-out``, the benchmark
    suite's ``record_runs`` — wraps runs in this one schema so BENCH/result
    JSON files are diffable across PRs and tools.  The ``environment``
    block makes each record self-describing: which crypto execution
    backend, which *resolved* bigint kernel, and what key size produced
    it.  Pass ``environment`` captured at run time (the ``RunStarted``
    event carries the same three fields) when recording long after the
    run — the default re-resolves via :func:`run_environment`, which for
    an ``"auto"`` spec reports the kernel active *now*, not necessarily
    the one that ran.
    """
    record = {
        "schema": RESULT_SCHEMA,
        "spec": spec.to_dict(),
        "environment": (
            dict(environment) if environment is not None else run_environment(spec)
        ),
        "result": result.to_dict(),
        "timings": dict(timings or {}),
    }
    if extra:
        record.update(extra)
    return record
