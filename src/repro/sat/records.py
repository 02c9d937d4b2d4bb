"""Plain data record of the SAT solver: its per-solver counters.

:class:`SolverStats` travels with litmus results into the cache, the
verdict store and CLI reports.  It lives apart from the solver
(:mod:`repro.sat.solver`) and imports only the standard library, so a
process that only reads or reports verdicts never loads the CDCL engine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict


@dataclass
class SolverStats:
    """Structured per-solver counters (cumulative across incremental solves).

    Supports dict-style access (``stats["conflicts"]``) for backward
    compatibility, and field-wise subtraction so callers can compute
    per-solve deltas from snapshots: ``after - before``.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    solves: int = 0
    solve_time: float = 0.0

    def __getitem__(self, key: str):
        if key not in self.as_dict():
            raise KeyError(key)
        return getattr(self, key)

    def copy(self) -> "SolverStats":
        """An independent snapshot of the current counters."""
        return replace(self)

    def __sub__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def format(self) -> str:
        """A compact one-line rendering for CLI/benchmark output."""
        return (
            f"decisions={self.decisions} propagations={self.propagations} "
            f"conflicts={self.conflicts} restarts={self.restarts} "
            f"learned={self.learned} deleted={self.deleted} "
            f"solves={self.solves} time={self.solve_time:.3f}s"
        )
