"""Plain data record of a verdict certificate.

:class:`Certificate`, its polarity and status constants and
:func:`skipped_certificate` travel with litmus results into the cache,
the verdict store and CLI reports.  They live apart from the certifier
(:mod:`repro.cert.verdict`) and import only the standard library, so a
process that only reads or reports verdicts never loads the model
finder, the SAT solver or the proof checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


#: certificate polarities
UNSAT, SAT, NONE = "unsat", "sat", "none"

#: certificate statuses
VERIFIED, FAILED, SKIPPED = "verified", "failed", "skipped"


@dataclass(frozen=True)
class Certificate:
    """The independently checked evidence behind one verdict.

    ``polarity`` is ``"unsat"`` (DRAT refutation), ``"sat"`` (witness
    assignment) or ``"none"`` (nothing checkable was produced);
    ``status`` is ``"verified"``, ``"failed"`` or ``"skipped"``.
    ``digest`` content-addresses the trace/witness, ``steps`` counts
    trace steps (or assigned variables for witnesses), ``clauses`` the
    CNF clauses validated against, and ``check_time`` the seconds the
    checker spent.
    """

    polarity: str
    status: str
    digest: Optional[str] = None
    steps: int = 0
    clauses: int = 0
    check_time: float = 0.0
    detail: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    @property
    def failed(self) -> bool:
        return self.status == FAILED

    def format(self) -> str:
        """A compact one-line rendering for CLI output."""
        body = (
            f"{self.polarity}/{self.status} steps={self.steps} "
            f"clauses={self.clauses} check={self.check_time * 1000:.1f}ms"
        )
        if self.digest:
            body += f" digest={self.digest[:12]}"
        if self.detail:
            body += f" ({self.detail})"
        return body


def skipped_certificate(reason: str) -> Certificate:
    """A certificate recording that this verdict was not certifiable."""
    return Certificate(polarity=NONE, status=SKIPPED, detail=reason)
