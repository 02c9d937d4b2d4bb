"""Operational baseline machines: SC interleaving and TSO store buffers.

The paper (§2.2) contrasts axiomatic and operational styles: "Ideally, the
various ways of expressing any given model will be proven equivalent."
For the two baseline models this repository carries both styles and tests
their agreement *empirically* over litmus programs
(``tests/test_operational_equivalence.py``) — the executable cousin of the
x86-TSO equivalence proof the paper cites [44].

* :class:`ScMachine` — Lamport's interleaving semantics: one global
  memory, one atomic step per instruction.
* :class:`TsoMachine` — the classic x86-TSO abstract machine: a FIFO
  store buffer per hardware thread; loads snoop their own buffer
  (store-to-load forwarding), fences and atomics drain the buffer, and a
  background step may flush the oldest entry of any buffer at any time.

Both machines exhaustively enumerate reachable final states (DFS over the
nondeterminism with state memoisation), producing the same
:class:`~repro.search.records.Outcome` values the axiomatic searches
report, so the two sides compare directly.

Scope: the machines execute the PTX instruction surface that the baseline
*axiomatic* models also interpret — loads, stores, atomics, fences.
Scope/semantics qualifiers are ignored (these are scope-free CPU models);
CTA barriers are out of scope and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..core.deadline import check_deadline
from ..core.scopes import ThreadId
from ..ptx.isa import Atom, Bar, Fence, Ld, Red, St
from ..ptx.program import Program
from ..search.records import Outcome, register_sort_key


class UnsupportedInstruction(ValueError):
    """The operational baselines do not model this instruction."""


Registers = Tuple[Tuple[str, int], ...]
Memory = Tuple[Tuple[str, int], ...]
Buffer = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class _State:
    """One machine configuration (hashable for memoisation)."""

    pcs: Tuple[int, ...]
    memory: Memory
    registers: Tuple[Registers, ...]
    buffers: Tuple[Buffer, ...]

    def read_memory(self, loc: str) -> int:
        return dict(self.memory).get(loc, 0)

    def write_memory(self, loc: str, value: int) -> Memory:
        updated = dict(self.memory)
        updated[loc] = value
        return tuple(sorted(updated.items()))

    def read_register(self, thread: int, name: str) -> int:
        return dict(self.registers[thread])[name]

    def write_register(
        self, thread: int, name: str, value: int
    ) -> Tuple[Registers, ...]:
        regs = list(self.registers)
        updated = dict(regs[thread])
        updated[name] = value
        regs[thread] = tuple(sorted(updated.items()))
        return tuple(regs)


class _BaseMachine:
    """Shared DFS driver over nondeterministic machine steps."""

    def __init__(self, program: Program):
        self.program = program
        self.threads = program.threads
        for thread in self.threads:
            for instr in thread.instructions:
                if isinstance(instr, Bar):
                    raise UnsupportedInstruction(
                        "CTA barriers are outside the CPU baseline machines"
                    )

    # -- hooks -----------------------------------------------------------
    def initial(self) -> _State:
        return _State(
            pcs=tuple(0 for _ in self.threads),
            memory=tuple(
                sorted((loc, 0) for loc in self.program.locations)
            ),
            registers=tuple(() for _ in self.threads),
            buffers=tuple(() for _ in self.threads),
        )

    def successors(self, state: _State) -> Iterator[_State]:
        raise NotImplementedError

    def is_final(self, state: _State) -> bool:
        return all(
            pc >= len(thread.instructions)
            for pc, thread in zip(state.pcs, self.threads)
        ) and all(not buffer for buffer in state.buffers)

    # -- shared helpers ---------------------------------------------------
    def operand(self, state: _State, thread: int, operand) -> int:
        if isinstance(operand, int):
            return operand
        return state.read_register(thread, operand)

    def final_outcomes(self) -> FrozenSet[Outcome]:
        """Exhaustively enumerate reachable final states as Outcomes."""
        seen = set()
        finals: set = set()
        stack = [self.initial()]
        while stack:
            check_deadline()
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            if self.is_final(state):
                finals.add(self._outcome(state))
                continue
            progressed = False
            for successor in self.successors(state):
                progressed = True
                if successor not in seen:
                    stack.append(successor)
            if not progressed:
                raise RuntimeError("machine deadlocked (should not happen)")
        return frozenset(finals)

    def _outcome(self, state: _State) -> Outcome:
        registers: Dict[Tuple[ThreadId, str], int] = {}
        for index, thread in enumerate(self.threads):
            for name, value in state.registers[index]:
                registers[(thread.tid, name)] = value
        memory = tuple(
            sorted((loc, frozenset({value})) for loc, value in state.memory)
        )
        return Outcome(
            registers=tuple(sorted(registers.items(), key=register_sort_key)),
            memory=memory,
        )


class ScMachine(_BaseMachine):
    """Sequential consistency: atomic interleaving of instructions."""

    def successors(self, state: _State) -> Iterator[_State]:
        for index, thread in enumerate(self.threads):
            pc = state.pcs[index]
            if pc >= len(thread.instructions):
                continue
            instr = thread.instructions[pc]
            pcs = tuple(
                p + 1 if i == index else p for i, p in enumerate(state.pcs)
            )
            if isinstance(instr, Ld):
                value = state.read_memory(instr.loc)
                yield _State(
                    pcs, state.memory,
                    state.write_register(index, instr.dst, value),
                    state.buffers,
                )
            elif isinstance(instr, St):
                value = self.operand(state, index, instr.src)
                yield _State(
                    pcs, state.write_memory(instr.loc, value),
                    state.registers, state.buffers,
                )
            elif isinstance(instr, (Atom, Red)):
                old = state.read_memory(instr.loc)
                operands = tuple(
                    self.operand(state, index, op) for op in instr.operands
                )
                new = instr.op.apply(old, operands)
                registers = state.registers
                if isinstance(instr, Atom):
                    registers = state.write_register(index, instr.dst, old)
                yield _State(
                    pcs, state.write_memory(instr.loc, new),
                    registers, state.buffers,
                )
            elif isinstance(instr, Fence):
                yield _State(pcs, state.memory, state.registers, state.buffers)
            else:
                raise UnsupportedInstruction(repr(instr))


class TsoMachine(_BaseMachine):
    """The x86-TSO abstract machine: per-thread FIFO store buffers."""

    def _flush_one(self, state: _State, thread: int) -> _State:
        buffer = state.buffers[thread]
        loc, value = buffer[0]
        buffers = list(state.buffers)
        buffers[thread] = buffer[1:]
        return _State(
            state.pcs,
            state.write_memory(loc, value),
            state.registers,
            tuple(buffers),
        )

    def _buffered_value(self, state: _State, thread: int, loc: str) -> Optional[int]:
        for entry_loc, entry_value in reversed(state.buffers[thread]):
            if entry_loc == loc:
                return entry_value
        return None

    def successors(self, state: _State) -> Iterator[_State]:
        # background flush steps — the source of TSO's weak behaviours
        for index in range(len(self.threads)):
            if state.buffers[index]:
                yield self._flush_one(state, index)
        for index, thread in enumerate(self.threads):
            pc = state.pcs[index]
            if pc >= len(thread.instructions):
                continue
            instr = thread.instructions[pc]
            pcs = tuple(
                p + 1 if i == index else p for i, p in enumerate(state.pcs)
            )
            if isinstance(instr, Ld):
                forwarded = self._buffered_value(state, index, instr.loc)
                value = (
                    forwarded if forwarded is not None
                    else state.read_memory(instr.loc)
                )
                yield _State(
                    pcs, state.memory,
                    state.write_register(index, instr.dst, value),
                    state.buffers,
                )
            elif isinstance(instr, St):
                value = self.operand(state, index, instr.src)
                buffers = list(state.buffers)
                buffers[index] = buffers[index] + ((instr.loc, value),)
                yield _State(pcs, state.memory, state.registers, tuple(buffers))
            elif isinstance(instr, Fence):
                if state.buffers[index]:
                    continue  # blocked until the buffer drains
                yield _State(pcs, state.memory, state.registers, state.buffers)
            elif isinstance(instr, (Atom, Red)):
                if state.buffers[index]:
                    continue  # atomics drain the buffer first (locked bus)
                old = state.read_memory(instr.loc)
                operands = tuple(
                    self.operand(state, index, op) for op in instr.operands
                )
                new = instr.op.apply(old, operands)
                registers = state.registers
                if isinstance(instr, Atom):
                    registers = state.write_register(index, instr.dst, old)
                yield _State(
                    pcs, state.write_memory(instr.loc, new),
                    registers, state.buffers,
                )
            else:
                raise UnsupportedInstruction(repr(instr))


def supports_program(program: Program) -> bool:
    """Whether the baseline machines can execute ``program``.

    The machines reject CTA barriers and vector accesses; everything
    else on the PTX instruction surface runs (with scope/semantics
    qualifiers ignored).  Callers fanning programs out to the
    operational models — the differential fuzzer in particular — probe
    this instead of paying for an ERROR-status task per unsupported
    program.
    """
    for thread in program.threads:
        for instr in thread.instructions:
            if isinstance(instr, Bar):
                return False
            if getattr(instr, "vec", 1) > 1:
                return False
    return True


def _check_supported(program: Program) -> None:
    if not supports_program(program):
        raise UnsupportedInstruction(
            "program outside the operational fragment "
            "(CTA barriers and vector accesses are not modelled)"
        )


def sc_operational_outcomes(program: Program) -> FrozenSet[Outcome]:
    """All final states of the SC interleaving machine."""
    _check_supported(program)
    return ScMachine(program).final_outcomes()


def tso_operational_outcomes(program: Program) -> FrozenSet[Outcome]:
    """All final states of the TSO store-buffer machine."""
    _check_supported(program)
    return TsoMachine(program).final_outcomes()
