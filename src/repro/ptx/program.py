"""PTX programs and their elaboration into event templates.

A :class:`Program` is a set of straight-line instruction sequences, one per
thread (litmus tests never need loops: the model considers the fully
unrolled execution, §2.2).  :func:`elaborate` lowers instructions to the
events of :mod:`repro.ptx.events`, splitting atomics into read/write pairs,
and computes the purely syntactic artefacts the execution search needs:

* per-thread event sequences (hence ``po``),
* the ``rmw`` relation linking atomic halves,
* the register-dataflow ``dep`` relation consumed by Axiom 4 (No-Thin-Air),
* which register each read defines, and how each write's value is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.scopes import SystemShape, ThreadId
from ..relation import Relation
from .events import Event, Kind, Sem
from .isa import Atom, AtomOp, Bar, BarOp, Fence, Instruction, Ld, Operand, Red, St, element_location


@dataclass(frozen=True)
class ThreadCode:
    """One thread's straight-line instruction sequence."""

    tid: ThreadId
    instructions: Tuple[Instruction, ...]


@dataclass(frozen=True)
class Program:
    """A multi-threaded PTX program."""

    name: str
    threads: Tuple[ThreadCode, ...]
    shape: SystemShape = field(default_factory=SystemShape)

    def __post_init__(self):
        tids = [t.tid for t in self.threads]
        if len(set(tids)) != len(tids):
            raise ValueError(f"duplicate thread ids in program {self.name!r}")

    @property
    def locations(self) -> Tuple[str, ...]:
        """All memory locations touched by the program (vector accesses
        contribute one location per element), sorted."""
        locs = set()
        for thread in self.threads:
            for instr in thread.instructions:
                loc = getattr(instr, "loc", None)
                if loc is None:
                    continue
                for index in range(getattr(instr, "vec", 1)):
                    locs.add(element_location(loc, index))
        return tuple(sorted(locs))


class ProgramBuilder:
    """Fluent construction of litmus-sized PTX programs.

    Example::

        prog = (ProgramBuilder("MP")
                .thread(t0).st("x", 1).st("y", 1, sem=Sem.RELEASE, scope=Scope.GPU)
                .thread(t1).ld("r1", "y", sem=Sem.ACQUIRE, scope=Scope.GPU).ld("r2", "x")
                .build())
    """

    def __init__(self, name: str, shape: Optional[SystemShape] = None):
        self._name = name
        self._shape = shape or SystemShape()
        self._threads: List[Tuple[ThreadId, List[Instruction]]] = []

    def thread(self, tid: ThreadId) -> "ProgramBuilder":
        """Start a new thread; subsequent instruction calls append to it."""
        self._threads.append((tid, []))
        return self

    def _append(self, instr: Instruction) -> "ProgramBuilder":
        if not self._threads:
            raise ValueError("call .thread(tid) before adding instructions")
        self._threads[-1][1].append(instr)
        return self

    def ld(self, dst, loc: str, sem: Sem = Sem.WEAK, scope=None, vec: int = 1) -> "ProgramBuilder":
        """Append an ``ld`` instruction (pass a register tuple for vectors)."""
        return self._append(Ld(dst=dst, loc=loc, sem=sem, scope=scope, vec=vec))

    def st(self, loc: str, src, sem: Sem = Sem.WEAK, scope=None, vec: int = 1) -> "ProgramBuilder":
        """Append an ``st`` instruction (pass an operand tuple for vectors)."""
        return self._append(St(loc=loc, src=src, sem=sem, scope=scope, vec=vec))

    def atom(self, dst, loc, op, operands, sem=Sem.RELAXED, scope=None) -> "ProgramBuilder":
        """Append an ``atom`` instruction."""
        operands = tuple(operands) if isinstance(operands, (tuple, list)) else (operands,)
        return self._append(Atom(dst=dst, loc=loc, op=op, operands=operands, sem=sem, scope=scope))

    def red(self, loc, op, operands, sem=Sem.RELAXED, scope=None) -> "ProgramBuilder":
        """Append a ``red`` instruction."""
        operands = tuple(operands) if isinstance(operands, (tuple, list)) else (operands,)
        return self._append(Red(loc=loc, op=op, operands=operands, sem=sem, scope=scope))

    def fence(self, sem: Sem = Sem.SC, scope=None) -> "ProgramBuilder":
        """Append a ``fence`` instruction (defaults to ``fence.sc.sys``)."""
        from ..core.scopes import Scope

        return self._append(Fence(sem=sem, scope=scope or Scope.SYS))

    def bar(self, op: BarOp = BarOp.SYNC, barrier: int = 0) -> "ProgramBuilder":
        """Append a ``bar`` instruction."""
        return self._append(Bar(op=op, barrier=barrier))

    def build(self) -> Program:
        """Finish construction."""
        return Program(
            name=self._name,
            threads=tuple(
                ThreadCode(tid=tid, instructions=tuple(instrs))
                for tid, instrs in self._threads
            ),
            shape=self._shape,
        )


@dataclass(frozen=True)
class ReadRef:
    """A value flowing out of a read event (identified by eid)."""

    eid: int


#: A resolved operand: a literal, or the value returned by a read.
Resolved = Union[int, ReadRef]


@dataclass(frozen=True)
class WriteRecipe:
    """How a write event's value is computed during the search.

    Either a direct (resolved) operand for ``st``, or an RMW combining the
    value returned by the paired read with the instruction operands.
    """

    operand: Optional[Resolved] = None
    rmw_op: Optional[AtomOp] = None
    rmw_operands: Tuple[Resolved, ...] = ()
    rmw_read_eid: Optional[int] = None


@dataclass(frozen=True)
class Elaboration:
    """The result of lowering a program to events.

    It holds no reference back to the program, so memoizing it per
    program (:func:`repro.ptx.static.static_pass`) never keeps the program
    alive."""

    events: Tuple[Event, ...]
    by_thread: Tuple[Tuple[Event, ...], ...]
    rmw: Relation
    dep: Relation
    read_dst: Dict[int, str]          # read eid -> destination register
    write_recipe: Dict[int, WriteRecipe]  # write eid -> value recipe
    syncbarrier: Relation

    def event(self, eid: int) -> Event:
        """Look up an event by id."""
        return self.events[eid]


def elaborate(program: Program) -> Elaboration:
    """Lower a program to event templates plus syntactic relations."""
    events: List[Event] = []
    by_thread: List[Tuple[Event, ...]] = []
    rmw_pairs: List[Tuple[Event, Event]] = []
    dep_pairs: List[Tuple[Event, Event]] = []
    read_dst: Dict[int, str] = {}
    write_recipe: Dict[int, WriteRecipe] = {}
    barrier_events: List[Event] = []
    instr_counter = 0

    for thread in program.threads:
        thread_events: List[Event] = []
        # register -> read event that last defined it (for dep edges)
        defined_by: Dict[str, Event] = {}

        def new_event(**kw) -> Event:
            event = Event(eid=len(events), **kw)
            events.append(event)
            thread_events.append(event)
            return event

        def resolve(operand: Operand, consumer: Event) -> Resolved:
            """Resolve an operand, recording the dep edge for registers."""
            if isinstance(operand, int):
                return operand
            source = defined_by.get(operand)
            if source is None:
                raise ValueError(
                    f"register {operand!r} used before definition in "
                    f"thread {thread.tid}"
                )
            dep_pairs.append((source, consumer))
            return ReadRef(source.eid)

        for instr in thread.instructions:
            instr_counter += 1
            if isinstance(instr, Ld):
                # §8.2.2: a vector access is a set of scalar operations on
                # the element locations.  (Their mutual order is
                # "unspecified"; intra-instruction po is semantically inert
                # in the model — see tests/test_ptx_vec.py — so the scalar
                # expansion below is faithful.)
                dsts = instr.dst if instr.vec > 1 else (instr.dst,)
                for index, dst in enumerate(dsts):
                    read = new_event(
                        thread=thread.tid, kind=Kind.READ, sem=instr.sem,
                        scope=instr.scope,
                        loc=element_location(instr.loc, index),
                        instr=instr_counter,
                    )
                    read_dst[read.eid] = dst
                    defined_by[dst] = read
            elif isinstance(instr, St):
                srcs = instr.src if instr.vec > 1 else (instr.src,)
                for index, src in enumerate(srcs):
                    write = new_event(
                        thread=thread.tid, kind=Kind.WRITE, sem=instr.sem,
                        scope=instr.scope,
                        loc=element_location(instr.loc, index),
                        instr=instr_counter,
                    )
                    write_recipe[write.eid] = WriteRecipe(
                        operand=resolve(src, write)
                    )
            elif isinstance(instr, (Atom, Red)):
                read = new_event(
                    thread=thread.tid, kind=Kind.READ, sem=instr.read_sem,
                    scope=instr.scope, loc=instr.loc, instr=instr_counter,
                )
                write = new_event(
                    thread=thread.tid, kind=Kind.WRITE, sem=instr.write_sem,
                    scope=instr.scope, loc=instr.loc, instr=instr_counter,
                )
                rmw_pairs.append((read, write))
                # the write's value is a function of the read's value
                dep_pairs.append((read, write))
                write_recipe[write.eid] = WriteRecipe(
                    rmw_op=instr.op,
                    rmw_operands=tuple(
                        resolve(operand, write) for operand in instr.operands
                    ),
                    rmw_read_eid=read.eid,
                )
                if isinstance(instr, Atom):
                    read_dst[read.eid] = instr.dst
                    defined_by[instr.dst] = read
            elif isinstance(instr, Fence):
                new_event(
                    thread=thread.tid, kind=Kind.FENCE, sem=instr.sem,
                    scope=instr.scope, instr=instr_counter,
                )
            elif isinstance(instr, Bar):
                kind = Kind.BAR_ARRIVE if instr.op is BarOp.ARRIVE else Kind.BAR_SYNC
                event = new_event(
                    thread=thread.tid, kind=kind, sem=Sem.WEAK,
                    barrier=instr.barrier, instr=instr_counter,
                )
                barrier_events.append(event)
            else:
                raise TypeError(f"unknown instruction: {instr!r}")
        by_thread.append(tuple(thread_events))

    # §8.8.4: bar.sync/red/arrive synchronizes with bar.sync/red on the same
    # barrier — with CTA-execution-barrier semantics, so only within a CTA.
    sync_pairs = []
    for a in barrier_events:
        for b in barrier_events:
            if a is b or b.kind is Kind.BAR_ARRIVE:
                continue
            if a.barrier != b.barrier:
                continue
            if a.thread == b.thread:
                continue
            if a.thread.gpu == b.thread.gpu and a.thread.cta == b.thread.cta:
                sync_pairs.append((a, b))

    return Elaboration(
        events=tuple(events),
        by_thread=tuple(by_thread),
        rmw=Relation(rmw_pairs),
        dep=Relation(dep_pairs),
        read_dst=read_dst,
        write_recipe=write_recipe,
        syncbarrier=Relation(sync_pairs),
    )
