"""repro.api — the unified experiment API (the repo's one front door).

Define an experiment declaratively, run it on any execution plane,
observe it as a stream of typed events, and checkpoint/resume it:

>>> from repro.api import Experiment, RunSpec
>>> spec = RunSpec.from_dict({
...     "plane": "quality",
...     "seed": 1,
...     "strategy": "G",
...     "dataset": {"kind": "cer", "params": {"n_series": 2000}},
...     "init": {"kind": "courbogen"},
...     "params": {"k": 10, "max_iterations": 5, "epsilon": 0.69},
... })
>>> result = Experiment.from_spec(spec).run()

Components:

* :class:`RunSpec` — frozen, JSON-round-trippable experiment description
  (dataset block, init block, ``ChiaroscuroParams``, strategy, seed,
  plane);
* registries + ``@register_*`` decorators — datasets (``cer``, ``numed``,
  ``points2d``, ``timeseries``), initializers and budget strategies, each
  a new one a registration away; and the execution planes (``quality``,
  ``object``, ``vectorized``, ``vectorized-crypto``), the substrates of
  :class:`~repro.core.protocol.ChiaroscuroRun`'s one loop;
* :class:`Experiment` — the facade: ``run()`` returns a
  ``ClusteringResult``; ``run_iter()`` streams
  :class:`~repro.api.events.RunEvent` objects for progress reporting and
  early stopping;
* :class:`Checkpoint` / :class:`CheckpointStore` — the append-only state
  log, one record per iteration; a killed run on any plane resumes
  bit-identically.
"""

from .checkpoint import Checkpoint, CheckpointStore, atomic_write_text
from .events import (
    CheckpointSaved,
    FaultDetected,
    IterationCompleted,
    RunAborted,
    RunCompleted,
    RunEvent,
    RunStarted,
    event_to_dict,
)
from .experiment import (
    RESULT_SCHEMA,
    ExecutionPlane,
    Experiment,
    RunContext,
    run_environment,
    run_record,
)
from .registry import (
    DATASETS,
    INITIALIZERS,
    PLANES,
    STRATEGIES,
    Registry,
    register_dataset,
    register_initializer,
    register_strategy,
    resolve_strategy,
)
from .spec import DatasetSpec, FaultSpec, InitSpec, RunSpec

from . import builtins as _builtins  # noqa: F401  (registers the built-in keys)

__all__ = [
    "Checkpoint",
    "CheckpointSaved",
    "CheckpointStore",
    "DATASETS",
    "DatasetSpec",
    "ExecutionPlane",
    "Experiment",
    "FaultDetected",
    "FaultSpec",
    "INITIALIZERS",
    "InitSpec",
    "IterationCompleted",
    "PLANES",
    "RESULT_SCHEMA",
    "Registry",
    "RunAborted",
    "RunCompleted",
    "RunContext",
    "RunEvent",
    "RunSpec",
    "RunStarted",
    "STRATEGIES",
    "atomic_write_text",
    "event_to_dict",
    "register_dataset",
    "register_initializer",
    "register_strategy",
    "resolve_strategy",
    "run_environment",
    "run_record",
]
