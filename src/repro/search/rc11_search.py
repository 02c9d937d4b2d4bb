"""Exhaustive enumeration of consistent scoped-RC11 executions.

The source-model analog of :mod:`.ptx_search`: enumerate reads-from
witnesses and per-location *total* modification orders (``mo``), solve the
value dataflow, and filter through the Figure 10c axioms.  Init writes are
sequenced-before every program event and pinned at the bottom of ``mo``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Mapping, Sequence, Tuple

from ..core.execution import Execution, by_location, program_order
from ..core.scopes import ThreadId
from ..relation import Relation
from ..rc11.events import CEvent, c_init_write
from ..rc11.model import Rc11Report, build_env, check_execution, is_race_free
from ..rc11.program import (
    CElaboration,
    CProgram,
    c_elaborate,
    read_node,
    write_node,
)
from .posets import total_coherence_orders
from .records import register_sort_key
from .values import valuations


@dataclass(frozen=True)
class COutcome:
    """Observable result of a scoped C++ execution."""

    registers: Tuple[Tuple[Tuple[ThreadId, str], int], ...]
    memory: Tuple[Tuple[str, int], ...]

    def register(self, thread: ThreadId, name: str):
        """Final value of a register, or None."""
        return dict(self.registers).get((thread, name))

    def memory_value(self, loc: str):
        """Final value of a location (mo is total, so it is unique)."""
        return dict(self.memory).get(loc)

    def __repr__(self) -> str:
        regs = ", ".join(
            f"{thread}:{name}={value}" for (thread, name), value in self.registers
        )
        mem = ", ".join(f"[{loc}]={value}" for loc, value in self.memory)
        return f"<COutcome {regs} | {mem}>"


@dataclass(frozen=True)
class CCandidate:
    """A candidate scoped-RC11 execution with its valuation and verdict."""

    execution: Execution
    valuation: Mapping[int, int]  # value-node id -> value
    report: Rc11Report
    elaboration: CElaboration

    @property
    def race_free(self) -> bool:
        """Whether the execution has no data race."""
        return is_race_free(self.execution)

    def outcome(self) -> COutcome:
        """Compute the observable outcome of this execution."""
        registers: Dict[Tuple[ThreadId, str], int] = {}
        for thread_events in self.elaboration.by_thread:
            for event in thread_events:
                dst = self.elaboration.read_dst.get(read_node(event))
                if dst is not None:
                    registers[(event.thread, dst)] = self.valuation[read_node(event)]
        mo = self.execution.relation("mo")
        memory: Dict[str, int] = {}
        writes = [e for e in self.execution.events if e.is_write]
        for event in writes:
            if not any(
                other.loc == event.loc and (event, other) in mo for other in writes
            ):
                memory[event.loc] = self.valuation[write_node(event)]
        return COutcome(
            registers=tuple(sorted(registers.items(), key=register_sort_key)),
            memory=tuple(sorted(memory.items())),
        )


def c_candidate_executions(
    program: CProgram,
    speculation_values: Sequence[int] = (),
    include_inconsistent: bool = False,
    with_thin_air: bool = False,
) -> Iterator[CCandidate]:
    """Enumerate candidate executions of a scoped C++ program."""
    elab = c_elaborate(program)
    init_events = tuple(
        c_init_write(eid=len(elab.events) + index, loc=loc)
        for index, loc in enumerate(program.locations)
    )
    events: Tuple[CEvent, ...] = elab.events + init_events
    sb = program_order(elab.by_thread) | Relation(
        (init, event) for init in init_events for event in elab.events
    )
    base_values = {write_node(event): 0 for event in init_events}

    reads = [e for e in elab.events if e.is_read]
    writes_by_loc = by_location(e for e in events if e.is_write)
    static = Execution(
        events=events,
        relations={"sb": sb, "rf": Relation.empty(2), "mo": Relation.empty(2)},
    )

    mo_choices = list(total_coherence_orders(init_events, writes_by_loc))

    rf_choices = [
        [w for w in writes_by_loc[read.loc] if w is not read]
        for read in reads
    ]
    for rf_assignment in itertools.product(*rf_choices):
        rf_source = {
            read_node(read): write_node(write)
            for read, write in zip(reads, rf_assignment)
        }
        rf_rel = Relation(
            (write, read) for read, write in zip(reads, rf_assignment)
        )
        for valuation in valuations(elab, rf_source, base_values, speculation_values):
            for mo_rel in mo_choices:
                execution = static.with_relations(rf=rf_rel, mo=mo_rel)
                report = check_execution(execution, with_thin_air=with_thin_air)
                if report.consistent or include_inconsistent:
                    yield CCandidate(
                        execution=execution,
                        valuation=dict(valuation),
                        report=report,
                        elaboration=elab,
                    )


def c_allowed_outcomes(
    program: CProgram,
    speculation_values: Sequence[int] = (),
    require_race_free: bool = False,
    with_thin_air: bool = False,
) -> FrozenSet[COutcome]:
    """All outcomes of consistent executions of a scoped C++ program."""
    outcomes = set()
    for candidate in c_candidate_executions(
        program,
        speculation_values=speculation_values,
        with_thin_air=with_thin_air,
    ):
        if require_race_free and not candidate.race_free:
            continue
        outcomes.add(candidate.outcome())
    return frozenset(outcomes)
