"""Findings: what a rule reports, keyed by a content-based fingerprint.

The fingerprint deliberately ignores line *numbers* — it hashes the rule
id, the file's repo-relative path, the stripped source text of the
flagged line and an occurrence index (for identical lines) — so the
warehouse's ``lint_findings`` rows follow one finding across unrelated
edits above it, exactly like it keys events by content, never by file
position alone.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import asdict, dataclass, field, replace

__all__ = ["Finding", "STATUSES", "fingerprint_findings", "relative_path"]

#: Finding lifecycle statuses (what the reporters and warehouse see).
STATUSES = ("new", "suppressed")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative posix path when possible
    line: int
    message: str
    col: int = 0
    #: flagged line's source text, stripped (fingerprint input + display)
    snippet: str = ""
    #: one of :data:`STATUSES` (engine-assigned)
    status: str = "new"
    #: suppression justification (status == 'suppressed' only)
    justification: str = ""
    fingerprint: str = field(default="", compare=False)

    def to_dict(self) -> dict:
        return asdict(self)


def relative_path(path: pathlib.Path) -> str:
    """Repo-relative posix form when under the cwd, else as given."""
    try:
        return path.resolve().relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def fingerprint_findings(findings: list[Finding]) -> list[Finding]:
    """Assign stable fingerprints; identical lines get occurrence indexes."""
    seen: dict[tuple[str, str, str], int] = {}
    out: list[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.snippet)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        digest = hashlib.sha256(
            "\x1f".join(
                [finding.rule, finding.path, finding.snippet, str(occurrence)]
            ).encode()
        ).hexdigest()[:16]
        out.append(replace(finding, fingerprint=digest))
    return out
