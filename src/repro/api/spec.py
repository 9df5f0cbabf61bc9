"""The declarative experiment specification — ``RunSpec`` and its blocks.

A :class:`RunSpec` is the *artifact*: a frozen, JSON-round-trippable
description of one experiment — dataset block, init block, the full
:class:`~repro.core.config.ChiaroscuroParams` sheet (Tables 1–2), budget
strategy, seed and execution plane.  Any frontend (CLI, benchmark, test,
service) submits a spec; :class:`~repro.api.experiment.Experiment` decides
how to execute it.  The same spec modulo its ``plane`` field drives the
quality, object and vectorized planes.

Construction paths: direct, :meth:`RunSpec.from_dict` /
:meth:`RunSpec.from_json` / :meth:`RunSpec.load`, and
:meth:`RunSpec.from_cli_args` (the ``repro cluster`` flag set).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Self

import numpy as np

from .. import lazy
from ..core.config import ChiaroscuroParams
from ..core.protocol import PROTOCOL_PLANES  # the planes a fault block may run on
from .registry import DATASETS, INITIALIZERS, PLANES, resolve_strategy

__all__ = ["DatasetSpec", "FaultSpec", "InitSpec", "RunSpec", "jsonify"]

#: Default initializer per built-in dataset kind (used by ``from_cli_args``).
DEFAULT_INITIALIZERS = {
    "cer": "courbogen",
    "numed": "sample",
    "points2d": "sample",
    "timeseries": "sample",
}


def jsonify(value: Any) -> Any:
    """Normalize to plain JSON types, so spec equality survives round-trips
    (and fault evidence reaches the wire as JSON); anything else raises."""
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    raise TypeError(f"no JSON form for a value of type {type(value).__name__}")


@dataclass(frozen=True)
class _Block:
    """A registry ``kind`` plus the kwargs its registered builder takes."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", jsonify(self.params))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: Mapping) -> Self:
        return cls(kind=d["kind"], params=dict(d.get("params", {})))


class DatasetSpec(_Block):
    """Which workload to build: a registry kind plus generator kwargs.

    ``params`` may carry its own ``"seed"``; otherwise the run seed is
    used, so sweeps can pin the dataset while varying run randomness.
    """


class InitSpec(_Block):
    """How to draw the k initial centroids (``k`` itself lives in params.k).

    Like datasets, ``params`` may pin its own ``"seed"``.
    """


class FaultSpec(_Block):
    """One declared fault: a fault-registry kind plus its config params.

    ``params`` are the constructor kwargs of the registered fault-config
    dataclass (e.g. ``{"loss": 0.2}`` for ``kind="network"``); they are
    validated at spec construction by instantiating the config.
    """


@dataclass(frozen=True)
class RunSpec:
    """One experiment, fully specified and serializable.

    ``options`` carries plane-specific knobs outside the Table 1 sheet —
    the quality plane reads ``gossip_e_max``, the Lemma 2 error model of
    :class:`~repro.core.computation.CentralComputationStep`.  Keys no
    registered plane declares in its ``option_keys`` are rejected here
    (typo protection); a plane simply ignores *other* planes' keys, so
    one spec can still pivot across planes.

    ``faults`` declares the hostile-deployment scenario: a tuple of
    :class:`FaultSpec` entries (registry kind + params) injected through
    :class:`~repro.faults.FaultPlan` when the run executes.  Only the
    protocol planes run a live adversary, so faults are rejected on the
    quality plane; an empty block is bit-identical to no block at all
    (and serializes to nothing — old checkpoints keep resuming).
    """

    dataset: DatasetSpec
    init: InitSpec
    params: ChiaroscuroParams = field(default_factory=ChiaroscuroParams)
    strategy: str = "G"
    seed: int = 0
    plane: str = "quality"
    churn: float = 0.0
    options: dict = field(default_factory=dict)
    name: str = ""
    faults: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", jsonify(self.options))
        faults = tuple(
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
            for f in self.faults
        )
        object.__setattr__(self, "faults", faults)
        if faults:
            if self.plane not in PROTOCOL_PLANES:
                raise ValueError(
                    "faults require a protocol plane "
                    f"({' or '.join(map(repr, PROTOCOL_PLANES))}); the "
                    f"{self.plane!r} plane runs no live adversary"
                )
            # The fault plane loads only for a spec that declares faults
            # (repro.lazy); repro.faults imports repro.api besides, so a
            # module-level import would cycle.
            from ..faults import build_fault

            for fault in faults:
                try:
                    build_fault(fault.kind, fault.params)
                except KeyError as exc:
                    raise ValueError(str(exc)) from None
        if not 0 <= self.churn < 1:
            raise ValueError("churn must be in [0, 1)")
        if self.plane not in PLANES:
            raise ValueError(
                f"unknown plane {self.plane!r}; registered: {', '.join(PLANES.keys())}"
            )
        if self.dataset.kind not in DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset.kind!r}; registered: "
                f"{', '.join(DATASETS.keys())}"
            )
        if self.init.kind not in INITIALIZERS:
            raise ValueError(
                f"unknown initializer {self.init.kind!r}; registered: "
                f"{', '.join(INITIALIZERS.keys())}"
            )
        # The real-ciphertext substrate loads while a spec naming it
        # resolves (repro.lazy): never inside a run, and never in a worker
        # forked after the spec was built.
        if PLANES.get(self.plane).uses_real_crypto:
            lazy.load()
        try:
            resolve_strategy(self.strategy, self.params)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        known_options = set().union(
            *(PLANES.get(key).option_keys for key in PLANES)
        )
        unknown = sorted(set(self.options) - known_options)
        if unknown:
            raise ValueError(
                f"unknown options key(s) {', '.join(map(repr, unknown))}; "
                f"keys declared by registered planes: "
                f"{', '.join(sorted(known_options)) or '(none)'}"
            )

    # ------------------------------------------------------------------ io

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "plane": self.plane,
            "seed": self.seed,
            "churn": self.churn,
            "strategy": self.strategy,
            "dataset": self.dataset.to_dict(),
            "init": self.init.to_dict(),
            "params": asdict(self.params),
            "options": dict(self.options),
        }
        if self.faults:
            # Emitted only when non-empty, so fault-free specs serialize
            # exactly as before the fault plane existed (checkpoint spec-
            # identity compatibility).
            d["faults"] = [fault.to_dict() for fault in self.faults]
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunSpec":
        params_dict = dict(d.get("params", {}))
        # Retired keys, which job stores, checkpoints and committed BENCH
        # files written while they existed still carry.  The plane and the
        # strategy are the spec's own fields now: a stored protocol_plane is
        # dropped, a stored budget_strategy speaks only where "strategy" is
        # absent (it was that default's source); a stored delta was read by
        # nothing, and a stored view_size only moved the object engine's
        # stream (both engines now draw one uniform pairing).
        params_dict.pop("protocol_plane", None)
        params_dict.pop("delta", None)
        params_dict.pop("view_size", None)
        stored_strategy = params_dict.pop("budget_strategy", "G")
        # Packing is the only ciphertext layout; stored specs carry True.
        if params_dict.pop("use_packing", True) is not True:
            raise ValueError(
                "params.use_packing was removed: real-crypto planes always "
                "pack (the one-ciphertext-per-value layout is gone) — drop "
                "the key"
            )
        try:
            params = ChiaroscuroParams(**params_dict)
        except TypeError as exc:
            raise ValueError(f"bad params block: {exc}") from None
        return cls(
            dataset=DatasetSpec.from_dict(d["dataset"]),
            init=InitSpec.from_dict(d["init"]),
            params=params,
            strategy=d.get("strategy") or stored_strategy,
            seed=int(d.get("seed", 0)),
            plane=d.get("plane", "quality"),
            churn=float(d.get("churn", 0.0)),
            options=dict(d.get("options", {})),
            name=d.get("name", ""),
            faults=d.get("faults", ()),  # __post_init__ builds the blocks
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunSpec":
        return cls.from_json(pathlib.Path(path).read_text())

    # ------------------------------------------------------------ variants

    def with_plane(self, plane: str) -> "RunSpec":
        """The same experiment on a different plane (the three-plane pivot)."""
        return self.replace(plane=plane)

    def replace(self, **changes) -> "RunSpec":
        """``dataclasses.replace`` with re-validation."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ cli

    @classmethod
    def from_cli_args(cls, args) -> "RunSpec":
        """Build a spec from the ``repro cluster`` argparse namespace.

        ``theta`` is pinned to 0 (the paper's Fig. 2 setting: traces span
        the full iteration budget) — pass a spec file for convergence-test
        runs.
        """
        params = ChiaroscuroParams(
            k=args.k,
            epsilon=args.epsilon,
            max_iterations=args.iterations,
            use_smoothing=not args.no_smoothing,
            key_bits=args.key_bits,
            bigint_backend=getattr(args, "bigint_backend", None) or "auto",
            theta=0.0,
        )
        dataset_params: dict[str, Any] = {}
        if args.dataset in ("cer", "numed"):
            dataset_params = {"n_series": args.series, "population_scale": args.scale}
        elif args.dataset == "timeseries":
            raise ValueError(
                "the 'timeseries' dataset carries inline values — use --spec"
            )
        return cls(
            dataset=DatasetSpec(kind=args.dataset, params=dataset_params),
            init=InitSpec(kind=DEFAULT_INITIALIZERS.get(args.dataset, "sample")),
            params=params,
            strategy=args.strategy.upper(),
            seed=args.seed,
            plane=getattr(args, "plane", None) or "quality",
            churn=args.churn,
        )
