"""Interpreting PTX executions as scoped C++ executions (paper §5.2).

The soundness statement lifts each legal execution of the compiled PTX
program back to the source level:

* ``rf_PTX ⊆ map⁻¹ ; rf_RC11 ; map`` — a source read returns whatever its
  compiled load returned;
* ``co ⊆ map⁻¹ ; mo ; map`` and ``fr ⊆ map⁻¹ ; rb ; map`` — the source
  modification order must extend the (partial) PTX coherence order.

Because PTX ``co`` is partial and RC11 ``mo`` is total, one PTX execution
lifts to a *family* of RC11 executions (one per linear extension of the
lifted coherence order).  The empirical check of §6.1 asks whether any
member of that family violates an RC11 axiom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.execution import Execution, by_location, program_order
from ..ptx.events import is_init as ptx_is_init
from ..ptx.program import elaborate
from ..rc11.events import CEvent, c_init_write
from ..rc11.model import Rc11Report, check_execution, is_race_free
from ..rc11.program import CElaboration, c_elaborate, read_node, write_node
from ..relation import Relation
from ..search.ptx_search import Candidate
from .compiler import CompiledProgram, event_map


@dataclass(frozen=True)
class Lift:
    """A PTX execution interpreted at the source level.

    ``executions()`` enumerates the RC11 executions induced by every
    ``mo`` linear extension of the lifted coherence order.
    """

    compiled: CompiledProgram
    c_elab: CElaboration
    events: Tuple[CEvent, ...]
    sb: Relation
    rf: Relation
    lifted_co: Relation
    valuation: Dict[int, int]

    def executions(self) -> Iterator[Execution]:
        """Yield one RC11 execution per ``mo`` linear extension."""
        writes_by_loc = by_location(e for e in self.events if e.is_write)
        per_loc: List[List[Relation]] = []
        for loc, writes in sorted(writes_by_loc.items()):
            extensions = []
            required = self.lifted_co.filter(lambda t, loc=loc: t[0].loc == loc)
            for perm in itertools.permutations(writes):
                order = Relation.total_order(perm)
                if required.issubset(order):
                    extensions.append(order)
            per_loc.append(extensions)
        for combo in itertools.product(*per_loc):
            mo = Relation.empty(2)
            for order in combo:
                mo = mo | order
            yield Execution(
                events=self.events,
                relations={"sb": self.sb, "rf": self.rf, "mo": mo},
            )

    def reports(self) -> Iterator[Rc11Report]:
        """Check every lifted execution against the RC11 axioms."""
        for execution in self.executions():
            yield check_execution(execution)

    def violating_axioms(self, only_race_free: bool = True) -> Tuple[str, ...]:
        """RC11 axioms violated by *some* lifted execution.

        With ``only_race_free`` (the default, matching the theorem's
        precondition) executions whose lift contains a data race are not
        counted as counterexamples.
        """
        failed: set = set()
        for execution in self.executions():
            if only_race_free and not is_race_free(execution):
                continue
            report = check_execution(execution)
            failed.update(report.failed)
        return tuple(sorted(failed))


def lift_candidate(
    compiled: CompiledProgram,
    candidate: Candidate,
    c_elab: Optional[CElaboration] = None,
) -> Lift:
    """Interpret one PTX candidate execution at the source level."""
    c_elab = c_elab or c_elaborate(compiled.source)
    ptx_elab = candidate.elaboration
    mapping = event_map(compiled, c_elab, ptx_elab)
    target_to_source = {target: source for source, target in mapping}

    locations = compiled.source.locations
    init_events = tuple(
        c_init_write(eid=len(c_elab.events) + index, loc=loc)
        for index, loc in enumerate(locations)
    )
    init_by_loc = {event.loc: event for event in init_events}
    events: Tuple[CEvent, ...] = c_elab.events + init_events
    sb = program_order(c_elab.by_thread) | Relation(
        (init, event) for init in init_events for event in c_elab.events
    )

    def to_source(ptx_event) -> CEvent:
        if ptx_is_init(ptx_event):
            return init_by_loc[ptx_event.loc]
        return target_to_source[ptx_event]

    # rf: each source read's compiled load/atom-read determines its source.
    rf_pairs = []
    for write, read in candidate.execution.relation("rf"):
        source_read = to_source(read)
        source_write = to_source(write)
        rf_pairs.append((source_write, source_read))
    rf = Relation(rf_pairs)

    # co: project PTX coherence onto source writes.
    co_pairs = []
    for a, b in candidate.execution.relation("co"):
        source_a = to_source(a)
        source_b = to_source(b)
        if source_a is not source_b:
            co_pairs.append((source_a, source_b))
    lifted_co = Relation(co_pairs).closure()

    # valuation: source value nodes inherit the compiled events' values.
    valuation: Dict[int, int] = {}
    for source, target in mapping:
        if target.is_read:
            valuation[read_node(source)] = candidate.valuation[target.eid]
        elif target.is_write:
            valuation[write_node(source)] = candidate.valuation[target.eid]
    for init in init_events:
        valuation[write_node(init)] = 0

    return Lift(
        compiled=compiled,
        c_elab=c_elab,
        events=events,
        sb=sb,
        rf=rf,
        lifted_co=lifted_co,
        valuation=valuation,
    )
