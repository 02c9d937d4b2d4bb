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
from typing import Callable, Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..core.deadline import check_deadline
from ..core.execution import Execution, program_order
from ..ptx.events import Event, init_write
from ..ptx.program import Program, elaborate
from ..relation import Relation
from .posets import total_orders_with_first
from .ptx_search import Candidate, Outcome
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
    elab = elaborate(program)
    init_events = tuple(
        init_write(eid=len(elab.events) + index, loc=loc)
        for index, loc in enumerate(program.locations)
    )
    events: Tuple[Event, ...] = elab.events + init_events
    po = program_order(elab.by_thread)
    base_values = {event.eid: 0 for event in init_events}

    reads = [e for e in elab.events if e.is_read]
    writes_by_loc: Dict[str, List[Event]] = {}
    for event in events:
        if event.is_write:
            writes_by_loc.setdefault(event.loc, []).append(event)
    init_by_loc = {event.loc: event for event in init_events}

    static = Execution(
        events=events,
        relations={
            "po": po,
            "rf": Relation.empty(2),
            "co": Relation.empty(2),
            "rmw": elab.rmw,
            "dep": elab.dep,
            "syncbarrier": elab.syncbarrier,
        },
    )

    def co_choices() -> Iterator[Relation]:
        per_loc = []
        for loc, writes in sorted(writes_by_loc.items()):
            init = init_by_loc[loc]
            others = [w for w in writes if w is not init]
            per_loc.append(list(total_orders_with_first(init, others)))
        for combo in itertools.product(*per_loc):
            merged = Relation.empty(2)
            for order in combo:
                merged = merged | order
            yield merged

    rf_choices = [writes_by_loc[read.loc] for read in reads]
    for rf_assignment in itertools.product(*rf_choices):
        check_deadline()
        rf_source = {
            read.eid: write.eid for read, write in zip(reads, rf_assignment)
        }
        rf_rel = Relation(
            (write, read) for read, write in zip(reads, rf_assignment)
        )
        for valuation in valuations(elab, rf_source, base_values, speculation_values):
            for co_rel in co_choices():
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
