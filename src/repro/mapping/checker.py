"""Empirical bounded verification of the compilation mapping (paper §6.1).

For a given event bound N, compilation scheme, and RC11 axiom, the checker
asks: *is there a scoped C++ program of at most N events, a legal execution
of its compiled PTX program, and a lifting of that execution, such that the
lifted (race-free) RC11 execution violates the axiom?*

A sound mapping admits no such counterexample.  The deliberately broken
``BUGGY_RMW_SC`` scheme (Figure 12) must produce one.

The runtimes of these checks as the bound grows — scoped vs de-scoped,
axiom by axiom — reproduce the shape of the paper's Figure 17.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.counters import Counters
from ..lang import eval_formula
from ..rc11 import spec as rc11_spec
from ..rc11.model import build_env as rc11_build_env
from ..rc11.model import is_race_free
from ..rc11.program import CProgram, c_elaborate
from ..search.ptx_search import candidate_executions
from .compiler import STANDARD, CompiledProgram, MappingScheme, compile_program
from .lifting import lift_candidate
from .skeletons import source_skeletons


@dataclass(frozen=True)
class Counterexample:
    """A mapping-soundness violation found by the bounded search."""

    program: CProgram
    axiom: str
    detail: str = ""

    def __repr__(self) -> str:
        return f"<Counterexample axiom={self.axiom} program={self.program.name}>"


@dataclass
class CheckStats(Counters):
    """Search-effort accounting for one check run."""

    skeletons: int = 0
    compiled: int = 0
    ptx_executions: int = 0
    lifted_executions: int = 0
    elapsed: float = 0.0
    timed_out: bool = False


@dataclass(frozen=True)
class MappingCheckResult:
    """The outcome of one bounded per-axiom mapping check."""

    axiom: str
    bound: int
    scheme: MappingScheme
    scoped: bool
    counterexamples: Tuple[Counterexample, ...]
    stats: CheckStats

    @property
    def holds(self) -> bool:
        """Whether no counterexample was found within the bound."""
        return not self.counterexamples


def check_program_against_axiom(
    program: CProgram,
    axiom: str,
    scheme: MappingScheme = STANDARD,
    stats: Optional[CheckStats] = None,
) -> Optional[Counterexample]:
    """Check one source program: does any lifted legal PTX execution break
    the axiom (while being race-free at the source level)?"""
    stats = stats if stats is not None else CheckStats()
    formula = rc11_spec.AXIOMS[axiom]
    compiled = compile_program(program, scheme)
    c_elab = c_elaborate(program)
    stats.compiled += 1
    for candidate in candidate_executions(compiled.target):
        stats.ptx_executions += 1
        lift = lift_candidate(compiled, candidate, c_elab=c_elab)
        for execution in lift.executions():
            stats.lifted_executions += 1
            env = rc11_build_env(execution)
            if eval_formula(formula, env):
                continue
            if not is_race_free(execution, env=env):
                continue
            return Counterexample(
                program=program,
                axiom=axiom,
                detail=(
                    f"lifted execution of {compiled.target.name} violates "
                    f"{axiom}"
                ),
            )
    return None


def check_mapping_axiom(
    bound: int,
    axiom: str,
    scheme: MappingScheme = STANDARD,
    scoped: bool = True,
    max_locations: int = 2,
    time_budget: Optional[float] = None,
    stop_on_first: bool = True,
    skeletons: Optional[Iterable[CProgram]] = None,
) -> MappingCheckResult:
    """Run the bounded per-axiom check at the given event bound.

    ``time_budget`` (seconds) truncates the search, marking the result's
    stats as timed out — the moral equivalent of the paper's 48-hour cap.
    ``skeletons`` overrides the default skeleton stream (used by tests).
    """
    if axiom not in rc11_spec.AXIOMS:
        raise KeyError(f"unknown RC11 axiom {axiom!r}")
    stats = CheckStats()
    found: List[Counterexample] = []
    started = time.perf_counter()
    stream = (
        skeletons
        if skeletons is not None
        else source_skeletons(bound, scoped=scoped, max_locations=max_locations)
    )
    for program in stream:
        stats.skeletons += 1
        if time_budget is not None and time.perf_counter() - started > time_budget:
            stats.timed_out = True
            break
        counterexample = check_program_against_axiom(
            program, axiom, scheme=scheme, stats=stats
        )
        if counterexample is not None:
            found.append(counterexample)
            if stop_on_first:
                break
    stats.elapsed = time.perf_counter() - started
    return MappingCheckResult(
        axiom=axiom,
        bound=bound,
        scheme=scheme,
        scoped=scoped,
        counterexamples=tuple(found),
        stats=stats,
    )


def check_mapping(
    bound: int,
    scheme: MappingScheme = STANDARD,
    scoped: bool = True,
    axioms: Sequence[str] = ("Coherence", "Atomicity", "SC"),
    **kw,
) -> Dict[str, MappingCheckResult]:
    """Run the bounded check for each axiom (the Figure 17 row set)."""
    return {
        axiom: check_mapping_axiom(bound, axiom, scheme=scheme, scoped=scoped, **kw)
        for axiom in axioms
    }
