"""Malicious-attacker countermeasures (Sec. 4.4).

The paper's extensions against attackers that deviate from the execution
sequence rest on three legs; this module implements the two that are
protocol-level (the third — trusted execution environments — is hardware):

1. **Authenticated population** — restrict the execution sequence to
   authorized devices: :class:`DeviceRegistry` is the bootstrap-server
   check that admits a device (and hands it its key-share slot) only with
   a valid enrolment token.
2. **Epidemic cross-checking** — the collaborative execution makes
   deviations *visible*: all participants are supposed to decrypt the same
   converged values, so disseminating digests of the decrypted results and
   comparing them detects "lying" participants.
   :class:`DecryptionCrossCheck` implements the check the paper names
   explicitly ("checking that decrypted values are all equal across
   participants (epidemic dissemination)") with a tolerance for the benign
   epidemic approximation spread.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DeviceRegistry", "CrossCheckReport", "DecryptionCrossCheck"]


@dataclass
class DeviceRegistry:
    """Bootstrap-side enrolment of authorized devices.

    Tokens are HMACs of the device identifier under the registrar's secret
    — the standard authentication step footnote 4 alludes to.  The registry
    also assigns key-share slots, so an unauthorized device can never hold
    a share of the decryption key.
    """

    secret: bytes
    enrolled: dict[int, int] = field(default_factory=dict)  # device → share slot

    def token_for(self, device_id: int) -> str:
        """The enrolment token the registrar would issue to ``device_id``."""
        return hmac.new(
            self.secret, str(device_id).encode(), hashlib.sha256
        ).hexdigest()

    def enroll(self, device_id: int, token: str) -> int:
        """Admit a device presenting a valid token; returns its share slot.

        Raises ``PermissionError`` on a bad token; enrolment is idempotent.
        """
        expected = self.token_for(device_id)
        if not hmac.compare_digest(expected, token):
            raise PermissionError(f"invalid enrolment token for device {device_id}")
        if device_id not in self.enrolled:
            self.enrolled[device_id] = len(self.enrolled)
        return self.enrolled[device_id]

    def is_authorized(self, device_id: int) -> bool:
        return device_id in self.enrolled


@dataclass
class CrossCheckReport:
    """Outcome of one decryption cross-check round.

    ``non_finite`` names the participants whose reports carried NaN/inf
    digests — they are always also in ``deviating`` (a non-finite digest is
    never a benign epidemic spread; it is a poisoned or garbage report).
    """

    agreeing: list[int]
    deviating: list[int]
    reference: np.ndarray
    max_benign_spread: float
    non_finite: list[int] = field(default_factory=list)


class DecryptionCrossCheck:
    """Flag participants whose decrypted values deviate beyond the benign spread.

    The epidemic sums converge to the same values at every honest node up
    to the gossip approximation error ``e_max``; a participant reporting a
    result outside that envelope is deviating (lying about its decryption,
    or having tampered with the sums).  The reference is the coordinate-wise
    *median* of the reported vectors, which tolerates up to half the
    population deviating.
    """

    #: Coordinates whose reference is nearer zero than this are compared
    #: against it, so the relative test never divides by zero.
    ABSOLUTE_FLOOR = 1e-9

    def __init__(self, relative_tolerance: float = 1e-3):
        if relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be positive")
        self.relative_tolerance = relative_tolerance

    def check(self, reports: dict[int, np.ndarray]) -> CrossCheckReport:
        """Compare per-participant decrypted vectors; returns the report.

        Non-finite digests (NaN/inf) are rejected explicitly: a NaN compares
        false against *any* tolerance, so without this gate a poisoned
        report would land in neither bucket and the round could read as
        clean.  Non-finite reporters are excluded from the median reference
        and flagged as deviating (and named in ``non_finite``).  If every
        report is non-finite there is no reference to check against and the
        round itself fails loudly.
        """
        if not reports:
            raise ValueError("no reports to cross-check")
        ids = sorted(reports)
        stacked = np.array([np.asarray(reports[i], dtype=float).ravel() for i in ids])
        finite_rows = np.isfinite(stacked).all(axis=1)
        non_finite = [i for i, ok in zip(ids, finite_rows) if not ok]
        if not finite_rows.any():
            shown = ids if len(ids) <= 16 else f"{ids[:16]} (+{len(ids) - 16} more)"
            raise ValueError(
                "every cross-check report is non-finite; no reference can "
                f"be established (participants: {shown})"
            )
        reference = np.median(stacked[finite_rows], axis=0)
        scale = np.maximum(np.abs(reference), self.ABSOLUTE_FLOOR)
        with np.errstate(invalid="ignore"):
            deviation = np.abs(stacked - reference) / scale
            worst = np.where(finite_rows, deviation.max(axis=1), np.inf)
        agreeing = [i for i, w in zip(ids, worst) if w <= self.relative_tolerance]
        deviating = [i for i, w in zip(ids, worst) if w > self.relative_tolerance]
        benign = float(
            max(w for i, w in zip(ids, worst) if w <= self.relative_tolerance)
        ) if agreeing else 0.0
        return CrossCheckReport(
            agreeing=agreeing,
            deviating=deviating,
            reference=reference,
            max_benign_spread=benign,
            non_finite=non_finite,
        )
