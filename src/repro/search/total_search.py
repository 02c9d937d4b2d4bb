"""Execution search for total-coherence models (TSO, SC).

CPU-style models define coherence as a *total* order over the writes to each
location (§2.2), so the witness space is: an ``rf`` choice per read, and a
permutation of writes per location with the init write pinned first.  The
checker is pluggable, letting TSO and SC share the enumeration.

The registry decides tso and sc on the zoo engine (:mod:`repro.zoo`);
this straightforward search, which rebuilds and checks one
:class:`Execution` per candidate, is kept as their independent
reference — the zoo agreement tests and the operational-equivalence
tests compare against it.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, Iterator, Sequence

from ..core.deadline import check_deadline
from ..core.execution import Execution
from ..ptx.program import Program
from ..ptx.static import static_pass
from ..relation import Relation
from .ptx_search import Candidate
from .records import Outcome
from .values import valuations


def total_co_candidates(
    program: Program,
    check: Callable[[Execution], object],
    speculation_values: Sequence[int] = (),
    include_inconsistent: bool = False,
) -> Iterator[Candidate]:
    """Enumerate candidates with per-location total coherence orders.

    ``check`` maps an :class:`Execution` to a report object exposing
    ``consistent`` and ``axioms`` (e.g. :func:`repro.tso.check_execution`).
    """
    sp = static_pass(program)
    elab, static, reads = sp.elab, sp.execution, sp.reads
    for rf_assignment in itertools.product(*sp.rf_choices):
        check_deadline()
        rf_source = {
            read.eid: write.eid for read, write in zip(reads, rf_assignment)
        }
        rf_rel = Relation(
            (write, read) for read, write in zip(reads, rf_assignment)
        )
        for valuation in valuations(
            elab, rf_source, sp.base_values, speculation_values
        ):
            for co_rel in sp.total_co:
                execution = static.with_relations(rf=rf_rel, co=co_rel)
                report = check(execution)
                if getattr(report, "consistent", False) or include_inconsistent:
                    yield Candidate(
                        execution=execution,
                        valuation=dict(valuation),
                        report=report,
                        elaboration=elab,
                    )


def allowed_outcomes_total(
    program: Program,
    check: Callable[[Execution], object],
    speculation_values: Sequence[int] = (),
) -> FrozenSet[Outcome]:
    """All outcomes of consistent executions under a total-co model."""
    return frozenset(
        candidate.outcome()
        for candidate in total_co_candidates(
            program, check, speculation_values=speculation_values
        )
    )
