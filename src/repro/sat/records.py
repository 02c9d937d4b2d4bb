"""Plain data record of the SAT solver: its per-solver counters.

:class:`SolverStats` travels with litmus results into the cache, the
verdict store and CLI reports.  It lives apart from the solver
(:mod:`repro.sat.solver`) and imports only the standard library (and the
stdlib-only :mod:`repro.core.counters` base), so a process that only
reads or reports verdicts never loads the CDCL engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.counters import Counters


@dataclass
class SolverStats(Counters):
    """Structured per-solver counters (cumulative across incremental solves).

    Field-wise subtraction gives per-solve deltas from snapshots:
    ``after - before``.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    solves: int = 0
    solve_time: float = 0.0

    def format(self) -> str:
        """A compact one-line rendering for CLI/benchmark output."""
        return (
            f"decisions={self.decisions} propagations={self.propagations} "
            f"conflicts={self.conflicts} restarts={self.restarts} "
            f"learned={self.learned} deleted={self.deleted} "
            f"solves={self.solves} time={self.solve_time:.3f}s"
        )
