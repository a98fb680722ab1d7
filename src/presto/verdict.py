"""Shared result type for every checker: equivalent, not, or undecided."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"


class _VerdictFields(NamedTuple):
    status: str
    method: str
    witness: Optional[dict[str, Any]] = None  # required for NotEquivalent
    reason: Optional[str] = None  # required for Inconclusive


class Verdict(_VerdictFields):
    """A checker's answer; built and copied (``_replace``) only when its
    status has what that status requires."""

    __slots__ = ()

    def __new__(cls, status: str, method: str, witness: Optional[dict[str, Any]] = None,
                reason: Optional[str] = None) -> "Verdict":
        if status not in (EQUIVALENT, NOT_EQUIVALENT, INCONCLUSIVE):
            raise ValueError(f"unknown verdict status {status!r}")
        if status == NOT_EQUIVALENT and witness is None:
            raise ValueError("NotEquivalent verdicts need a witness")
        if status == INCONCLUSIVE and reason is None:
            raise ValueError("Inconclusive verdicts need a reason")
        return tuple.__new__(cls, (status, method, witness, reason))

    def _replace(self, **changes: Any) -> "Verdict":
        return Verdict(**{**self._asdict(), **changes})

    @property
    def equivalent(self) -> bool:
        return self.status == EQUIVALENT

    def exit_code(self) -> int:
        return {EQUIVALENT: 0, NOT_EQUIVALENT: 1, INCONCLUSIVE: 2}[self.status]
