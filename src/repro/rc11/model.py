"""Checking candidate scoped-RC11 executions, plus the race judgment.

The soundness theorem (paper §5.2) is stated for *race-free* source
programs, so alongside the Figure 10c axioms this module implements the
scoped data-race definition: conflicting accesses from different threads
must be ordered by happens-before, and if synchronization-free they race;
additionally (the scoped twist of Wickerson et al.) two atomics whose
scopes are not mutually inclusive cannot order each other, so an
unordered non-inclusive conflicting pair races even when both are atomic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.execution import Execution, same_location
from ..core.scopes import mutually_inclusive
from ..lang import Env, eval_expr, eval_formula, relation_env
from ..relation import Relation
from . import spec
from .events import CEvent, CKind, MemOrder, c_is_init


def inclusion(events: Tuple[CEvent, ...]) -> Relation:
    """The ``incl`` relation: distinct pairs of scoped (atomic) events whose
    scopes mutually include each other's threads (§4.1)."""
    pairs: List[Tuple[CEvent, CEvent]] = []
    for a in events:
        for b in events:
            if a is b or a.scope is None or b.scope is None:
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


def build_env(execution: Execution, bitset: bool = False) -> Env:
    """Environment for the scoped RC11 spec.

    ``execution.relations`` must provide ``sb``, ``rf`` and ``mo``; the
    event-class sets, ``sloc``, ``incl`` and the single-event ``rmw``
    identity are derived here.  ``bitset`` selects the dense bitset
    representation over frozensets; verdicts are identical.
    """
    events = execution.events
    bindings: Dict[str, Relation] = {
        "sb": execution.relation("sb"),
        "sloc": same_location(events),
        "rf": execution.relation("rf"),
        "mo": execution.relation("mo"),
        "incl": inclusion(events),
        "rmw": Relation(
            (e, e) for e in events if e.kind is CKind.RMW
        ),
        "R": Relation.set_of(e for e in events if e.is_read),
        "W": Relation.set_of(e for e in events if e.is_write),
        "F": Relation.set_of(e for e in events if e.is_fence),
        "E_rel": Relation.set_of(e for e in events if e.mo.at_least_rel),
        "E_acq": Relation.set_of(e for e in events if e.mo.at_least_acq),
        "W_rlx": Relation.set_of(
            e for e in events if e.is_write and e.mo.at_least_rlx
        ),
        "R_rlx": Relation.set_of(
            e for e in events if e.is_read and e.mo.at_least_rlx
        ),
        "E_sc": Relation.set_of(
            e for e in events if e.is_memory and e.mo is MemOrder.SC
        ),
        "F_sc": Relation.set_of(
            e for e in events if e.is_fence and e.mo is MemOrder.SC
        ),
    }
    return relation_env(events, bindings, sets=spec.BASE_SETS, bitset=bitset)


@dataclass(frozen=True)
class Rc11Report:
    """Verdict of the scoped RC11 axioms on one candidate execution."""

    axioms: Dict[str, bool]
    execution: Execution

    @property
    def consistent(self) -> bool:
        """Whether every axiom holds."""
        return all(self.axioms.values())

    @property
    def failed(self) -> Tuple[str, ...]:
        """Names of the axioms that failed."""
        return tuple(name for name, ok in self.axioms.items() if not ok)


def check_execution(
    execution: Execution,
    with_thin_air: bool = False,
    env: Optional[Env] = None,
) -> Rc11Report:
    """Evaluate the Figure 10c axioms on a candidate execution.

    ``with_thin_air`` re-enables the RC11 No-Thin-Air axiom the paper drops
    (§4.1), for ablation experiments.
    """
    # the self-built environment evaluates over bitsets (verdicts are
    # representation-independent)
    env = env or build_env(execution, bitset=True)
    axioms = spec.AXIOMS_WITH_THIN_AIR if with_thin_air else spec.AXIOMS
    results = {name: eval_formula(axiom, env) for name, axiom in axioms.items()}
    return Rc11Report(axioms=results, execution=execution)


def data_races(execution: Execution, env: Optional[Env] = None) -> Relation:
    """All data races, as a symmetric relation over events.

    A race is a conflicting pair (same location, at least one write) from
    different threads, unordered by happens-before, where additionally at
    least one side is non-atomic or the pair is not scope-inclusive.
    """
    env = env or build_env(execution, bitset=True)
    hb = eval_expr(spec.DERIVED["hb"], env)
    incl = env.lookup("incl")
    pairs: List[Tuple[CEvent, CEvent]] = []
    events = [e for e in execution.events if e.is_memory and not c_is_init(e)]
    for a in events:
        for b in events:
            if a.eid >= b.eid or a.thread == b.thread:
                continue
            if a.loc != b.loc or not (a.is_write or b.is_write):
                continue
            if (a, b) in hb or (b, a) in hb:
                continue
            if a.mo.is_atomic and b.mo.is_atomic and (a, b) in incl:
                continue
            pairs.append((a, b))
            pairs.append((b, a))
    return Relation(pairs)


def is_race_free(execution: Execution, env: Optional[Env] = None) -> bool:
    """Whether the execution contains no data race."""
    return data_races(execution, env=env).is_empty()
