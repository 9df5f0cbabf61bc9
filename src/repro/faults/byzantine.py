"""Byzantine participants, exercised against the Sec. 4.4 countermeasures.

Four deviation modes, each targeting a different defensive leg:

* ``tamper`` — byzantine nodes report scaled decrypted results.  Caught by
  :class:`~repro.core.verification.DecryptionCrossCheck` (the epidemic
  cross-check: honest nodes agree up to the benign spread; a scaled report
  sits outside it).  Flagged reports are excluded from the output, so the
  canonical (min-id) trace every honest node acts on stays honest.
* ``replay`` — byzantine nodes re-report the *previous* iteration's
  decryption (a stale-result replay).  Caught the same way from the second
  iteration on: centroids move between iterations, so a replayed report
  deviates from the fresh median.
* ``malformed`` — byzantine nodes emit structurally broken ciphertext
  batches *during gossip*.  On the object plane a truncated EESum vector
  violates the protocol's length contract and the receiving node rejects
  the exchange (the ``exchange-guard`` detector); the corruption is rolled
  back, so an undetected malformed batch cannot persist.  On the
  vectorized plane the poison is a NaN payload, which the epidemic
  averaging spreads — the decryption cross-check then rejects the
  non-finite digests (satellite: explicit NaN/inf rejection) and, once no
  finite reference remains, the run aborts cleanly.
* ``unenrolled`` — byzantine devices never obtained a valid enrolment
  token.  :class:`~repro.core.verification.DeviceRegistry` rejects them at
  bootstrap (``device-registry`` detector) and the population refuses
  their exchanges — they are isolated, not merely flagged.

The detected-or-harmless property pinned by
``tests/properties/test_fault_invariants.py``: after ``observe_output``,
every corrupted report id is either flagged (and excluded) or its report
deviates from the honest reference by at most the configured tolerance —
there is no third outcome where an altered result flows downstream.

Gossip-level *input* poisoning with well-formed ciphertexts (lying about
one's own series) is out of scope by design: the paper assigns that attack
to the trusted-execution leg (hardware), not to the protocol-level
countermeasures modeled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.verification import DecryptionCrossCheck, DeviceRegistry
from ..gossip.eesum import EESum
from .base import FaultInjector, register_fault

__all__ = ["ByzantineFault"]

_MODES = ("tamper", "replay", "malformed", "unenrolled")

#: Registrar secret for the simulated bootstrap server.  The *simulation*
#: needs a fixed secret so runs are reproducible; a deployment would draw
#: it at bootstrap.
_REGISTRAR_SECRET = b"chiaroscuro-bootstrap-registrar"


@register_fault("byzantine")
@dataclass(frozen=True)
class ByzantineFault:
    """A byzantine subset of the population, deviating in ``mode``.

    The subset is ``nodes`` when given, else ``fraction`` of the population
    drawn from the injector's named stream.  ``scale`` is the relative
    deviation of tampered reports; ``rate`` the per-exchange corruption
    probability for object-plane malformed batches; ``tolerance`` the
    cross-check's relative tolerance (generous enough that the benign
    epidemic spread never false-positives honest nodes).  With
    ``abort_on_detect`` any detection escalates to a clean run abort
    (deployments that prefer halting over excluding).
    """

    fraction: float = 0.0
    nodes: tuple = ()
    mode: str = "tamper"
    scale: float = 0.05
    rate: float = 1.0
    tolerance: float = 1e-2
    abort_on_detect: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not self.nodes and self.fraction == 0.0:
            raise ValueError("set a byzantine fraction or explicit nodes")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if self.scale == 0.0 and self.mode == "tamper":
            raise ValueError("tamper mode needs a non-zero scale")
        object.__setattr__(self, "nodes", tuple(int(i) for i in self.nodes))

    def build(self, rng: np.random.Generator) -> "ByzantineInjector":
        return ByzantineInjector(self, rng)


class ByzantineInjector(FaultInjector):
    """Live state of one byzantine subset across a run."""

    def __init__(self, config: ByzantineFault, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.checker = DecryptionCrossCheck(
            relative_tolerance=config.tolerance
        )
        self.node_ids: tuple[int, ...] = ()
        self.node_set: frozenset[int] = frozenset()
        self.plane = ""
        self._blocked_array = np.empty(0, dtype=np.int64)
        self._poisoned: set[int] = set()
        self._eesum_active = False
        self._prev_reports: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rejection_iteration = -1
        self._rejections = 0

    # -------------------------------------------------------------- binding

    def bind(self, binding, plan) -> None:
        cfg = self.config
        population = binding.population
        self.plane = binding.plane
        if cfg.nodes:
            ids = tuple(sorted(set(cfg.nodes)))
            if ids and (ids[0] < 0 or ids[-1] >= population):
                raise ValueError(
                    f"byzantine node ids must be in [0, {population})"
                )
        else:
            count = min(population - 1, max(1, round(cfg.fraction * population)))
            ids = tuple(
                sorted(
                    int(i)
                    for i in self.rng.choice(population, size=count, replace=False)
                )
            )
        self.node_ids = ids
        self.node_set = frozenset(ids)
        if cfg.mode == "unenrolled":
            self._enroll_population(population, plan)

    def _enroll_population(self, population: int, plan) -> None:
        """Bootstrap the authenticated population (Sec. 4.4 leg 1).

        Honest devices present their registrar-issued token; byzantine
        devices present a token issued for a *different* identity (the
        realistic forgery available without the registrar secret).  The
        registry rejects every forgery, and rejected devices are blocked
        from all subsequent exchanges.
        """
        registry = DeviceRegistry(secret=_REGISTRAR_SECRET)
        rejected = []
        for device in range(population):
            if device in self.node_set:
                forged = registry.token_for((device + 1) % population)
                try:
                    registry.enroll(device, forged)
                except PermissionError:
                    rejected.append(device)
            else:
                registry.enroll(device, registry.token_for(device))
        self._blocked_array = np.array(sorted(rejected), dtype=np.int64)
        if rejected:
            plan.detected(
                0,
                "byzantine",
                "device-registry",
                rejected[:32],
                {
                    "mode": "unenrolled",
                    "rejected": len(rejected),
                    "enrolled": len(registry.enrolled),
                },
            )

    # ------------------------------------------------------- exchange level

    def begin_cycle(self, engine, protocols: tuple, iteration: int) -> None:
        cfg = self.config
        if cfg.mode != "malformed":
            return
        if self.plane == "object":
            self._eesum_active = any(isinstance(p, EESum) for p in protocols)
            return
        # Vectorized malformed: poison the byzantine rows of each EESum
        # payload once.  Only the value body is poisoned — the appended
        # counter column stays finite, matching a well-formed envelope
        # around a garbage payload (the decode path then surfaces NaN
        # digests for the cross-check to reject rather than crashing on a
        # non-finite counter).
        for protocol in protocols:
            values = getattr(protocol, "values", None)
            if values is None or id(protocol) in self._poisoned:
                continue
            self._poisoned.add(id(protocol))
            rows = [i for i in self.node_ids if i < len(values)]
            if rows and values.shape[1] > 1:
                values[rows, :-1] = np.nan

    def transform_pairs(self, iteration: int, left, right):
        if not len(self._blocked_array) or not len(left):
            return left, right, [], []
        keep = ~(
            np.isin(left, self._blocked_array)
            | np.isin(right, self._blocked_array)
        )
        return left[keep], right[keep], [], []

    def corrupt_object_exchange(self, iteration: int, initiator, contact):
        cfg = self.config
        if (
            cfg.mode != "malformed"
            or self.plane != "object"
            or not self._eesum_active
        ):
            return None
        if initiator.node_id in self.node_set:
            sender = initiator
        elif contact.node_id in self.node_set:
            sender = contact
        else:
            return None
        if self.rng.random() >= cfg.rate:
            return None
        state = sender.state.get("eesum")
        if state is None or not state.ciphertexts:
            return None
        removed = state.ciphertexts.pop()  # truncated batch: wrong length

        def undo() -> None:
            state.ciphertexts.append(removed)

        return undo

    def on_rejected(self, iteration: int, node_id: int, plan, error) -> None:
        self._rejections += 1
        if iteration != self._rejection_iteration:
            # One summary event per iteration, not one per rejected message.
            self._rejection_iteration = iteration
            plan.detected(
                iteration,
                "byzantine",
                "exchange-guard",
                (node_id,),
                {
                    "mode": self.config.mode,
                    "error": str(error),
                    "rejections_so_far": self._rejections,
                },
            )
        if self.config.abort_on_detect:
            plan.abort(
                "byzantine",
                iteration,
                f"malformed batch from device {node_id} rejected at the "
                f"exchange boundary: {error}",
            )

    # --------------------------------------------------------- report level

    def observe_output(self, output, iteration: int, plan):
        cfg = self.config
        if not output.sums:
            return output
        corrupt = [i for i in self.node_ids if i in output.sums]
        if cfg.mode == "tamper":
            for i in corrupt:
                output.sums[i] = output.sums[i] * (1.0 + cfg.scale)
                output.counts[i] = output.counts[i] * (1.0 + cfg.scale)
        elif cfg.mode == "replay":
            snapshot = {
                i: (output.sums[i].copy(), output.counts[i].copy())
                for i in corrupt
            }
            for i in corrupt:
                previous = self._prev_reports.get(i)
                if previous is not None:
                    output.sums[i] = previous[0].copy()
                    output.counts[i] = previous[1].copy()
            self._prev_reports = snapshot
        self._cross_check(output, iteration, plan, corrupt)
        return output

    def _cross_check(self, output, iteration: int, plan, corrupt) -> None:
        """The epidemic cross-check (Sec. 4.4 leg 2) over decoded reports."""
        cfg = self.config
        reports = {
            i: np.concatenate(
                [np.ravel(output.sums[i]), np.ravel(output.counts[i])]
            )
            for i in sorted(output.sums)
        }
        # A report of the wrong dimensionality (a replay from an iteration
        # with a different surviving-cluster count) is trivially rejectable
        # before any numeric comparison — drop it so the numeric check runs
        # over a homogeneous batch.
        lengths: dict[int, list[int]] = {}
        for i, vector in reports.items():
            lengths.setdefault(vector.size, []).append(i)
        majority = max(lengths, key=lambda size: len(lengths[size]))
        misshapen = sorted(
            i
            for size, ids in lengths.items()
            if size != majority
            for i in ids
        )
        if misshapen:
            plan.detected(
                iteration,
                "byzantine",
                "decryption-cross-check",
                misshapen[:32],
                {
                    "mode": cfg.mode,
                    "misshapen": len(misshapen),
                    "expected_length": majority,
                },
            )
            for i in misshapen:
                reports.pop(i)
                output.sums.pop(i, None)
                output.counts.pop(i, None)
            if not output.sums:
                plan.abort(
                    "byzantine",
                    iteration,
                    "every decryption report was misshapen",
                )
            if cfg.abort_on_detect:
                plan.abort(
                    "byzantine",
                    iteration,
                    f"{len(misshapen)} misshapen decryption report(s) flagged",
                )
        try:
            report = self.checker.check(reports)
        except ValueError as exc:
            plan.detected(
                iteration,
                "byzantine",
                "decryption-cross-check",
                corrupt[:32],
                {"mode": cfg.mode, "error": str(exc)},
            )
            plan.abort("byzantine", iteration, f"cross-check failed: {exc}")
            return  # pragma: no cover - abort raises
        if not report.deviating:
            return
        flagged = sorted(report.deviating)
        plan.detected(
            iteration,
            "byzantine",
            "decryption-cross-check",
            flagged[:32],
            {
                "mode": cfg.mode,
                "flagged": len(flagged),
                "non_finite": len(report.non_finite),
                "max_benign_spread": report.max_benign_spread,
            },
        )
        for i in flagged:
            output.sums.pop(i, None)
            output.counts.pop(i, None)
        if not output.sums:
            plan.abort(
                "byzantine", iteration, "cross-check flagged every report"
            )
        if cfg.abort_on_detect:
            plan.abort(
                "byzantine",
                iteration,
                f"{len(flagged)} deviating decryption report(s) flagged",
            )
