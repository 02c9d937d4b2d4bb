"""Checking candidate PTX executions against the formal model.

This module turns a candidate :class:`~repro.core.execution.Execution`
(events + the chosen ``rf``/``co``/``sc`` witnesses) into an evaluation
environment for the Figure 4/7 spec and reports which axioms hold.  It also
implements the PTX data-race definition (§8.6.1), which — uniquely among
scoped GPU models — does *not* render racy programs undefined; races merely
lose single-copy-atomicity guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.execution import Execution, program_order, same_location
from ..core.scopes import mutually_inclusive
from ..lang import Env, eval_expr, eval_formula, relation_env
from ..relation import Relation
from . import spec
from .events import Event, Sem, init_write, is_init
from .program import Elaboration, Program, elaborate


def static_execution(
    program: Program,
) -> Tuple[Elaboration, Tuple[Event, ...], Execution]:
    """A program's candidate-execution skeleton, witnesses empty.

    Elaborates ``program`` and appends one init write per location (eids
    after the program's events).  Returns ``(elaboration, init events,
    execution)``; the execution binds ``po``, ``rmw``, ``dep`` and
    ``syncbarrier``, with ``rf``, ``co`` and ``sc`` empty.
    """
    elab = elaborate(program)
    init_events = tuple(
        init_write(eid=len(elab.events) + index, loc=loc)
        for index, loc in enumerate(program.locations)
    )
    empty = Relation.empty(2)
    execution = Execution(events=elab.events + init_events, relations={
        "po": program_order(elab.by_thread), "rf": empty, "co": empty,
        "sc": empty, "rmw": elab.rmw, "dep": elab.dep,
        "syncbarrier": elab.syncbarrier,
    })
    return elab, init_events, execution


def moral_strength(events: Tuple[Event, ...], po: Relation) -> Relation:
    """The morally-strong relation (§8.6).

    Two distinct operations are morally strong iff

    1. they are related in program order, **or** each is strong and names a
       scope including the thread executing the other; and
    2. if both are memory operations, they overlap (same location).

    The relation is symmetric by construction.
    """
    pairs: List[Tuple[Event, Event]] = []
    events = tuple(events)
    for a in events:
        for b in events:
            if a is b:
                continue
            if a.is_memory and b.is_memory and a.loc != b.loc:
                continue
            if (a, b) in po or (b, a) in po:
                pairs.append((a, b))
                continue
            if not (a.is_strong and b.is_strong):
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


def build_env(execution: Execution, bitset: bool = False) -> Env:
    """Build the evaluation environment for the PTX spec.

    ``execution.relations`` must already provide the witness relations
    ``po``, ``rf``, ``co``, ``sc``, ``rmw``, ``dep`` and ``syncbarrier``;
    everything else (event-class sets, ``sloc``, ``po_loc``,
    ``morally_strong``) is derived here from the events themselves.

    ``bitset`` selects the dense bitset representation (what the
    compiled kernel folds its constants in) over the frozenset-backed
    :class:`Relation` default.  Verdicts are identical either way.
    """
    events = execution.events
    po = execution.relation("po")
    sloc = same_location(events)
    bindings: Dict[str, Relation] = {
        "po": po,
        "sloc": sloc,
        "po_loc": po & sloc,
        "rf": execution.relation("rf"),
        "co": execution.relation("co"),
        "sc": execution.relation("sc"),
        "rmw": execution.relation("rmw"),
        "dep": execution.relation("dep"),
        "syncbarrier": execution.relation("syncbarrier"),
        "morally_strong": moral_strength(events, po),
        "R": Relation.set_of(e for e in events if e.is_read),
        "W": Relation.set_of(e for e in events if e.is_write),
        "F": Relation.set_of(e for e in events if e.is_fence),
        "W_rel": Relation.set_of(
            e for e in events if e.is_write and e.sem.releases
        ),
        "R_acq": Relation.set_of(
            e for e in events if e.is_read and e.sem.acquires
        ),
        "W_strong": Relation.set_of(
            e for e in events if e.is_write and e.is_strong
        ),
        "R_strong": Relation.set_of(
            e for e in events if e.is_read and e.is_strong
        ),
        "F_rel": Relation.set_of(
            e for e in events if e.is_fence and e.sem.releases
        ),
        "F_acq": Relation.set_of(
            e for e in events if e.is_fence and e.sem.acquires
        ),
        "F_sc": Relation.set_of(
            e for e in events if e.is_fence and e.sem is Sem.SC
        ),
    }
    return relation_env(events, bindings, sets=spec.BASE_SETS, bitset=bitset)


@dataclass(frozen=True)
class ConsistencyReport:
    """The verdict of the six PTX axioms on one candidate execution."""

    axioms: Dict[str, bool]
    execution: Execution
    failure_witness: Dict[str, object] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        """Whether every axiom holds."""
        return all(self.axioms.values())

    @property
    def failed(self) -> Tuple[str, ...]:
        """Names of the axioms that failed."""
        return tuple(name for name, ok in self.axioms.items() if not ok)

    def __repr__(self) -> str:
        verdict = "consistent" if self.consistent else f"violates {list(self.failed)}"
        return f"<ConsistencyReport {verdict}>"


def check_execution(
    execution: Execution,
    skip_axioms: Tuple[str, ...] = (),
    env: Optional[Env] = None,
) -> ConsistencyReport:
    """Evaluate the six PTX axioms (Figure 7) on a candidate execution.

    ``skip_axioms`` supports ablation studies (e.g. disabling No-Thin-Air to
    exhibit the Figure 8 out-of-thin-air execution).
    """
    env = env or build_env(execution)
    results: Dict[str, bool] = {}
    for name, axiom in spec.AXIOMS.items():
        if name in skip_axioms:
            results[name] = True
            continue
        results[name] = eval_formula(axiom, env)
    return ConsistencyReport(axioms=results, execution=execution)


def derived_relation(execution: Execution, name: str) -> Relation:
    """Evaluate one of the Figure 4 derived relations (e.g. ``cause``)."""
    env = build_env(execution)
    value = eval_expr(spec.DERIVED[name], env)
    return value if isinstance(value, Relation) else value.to_relation()


def data_races(execution: Execution) -> Relation:
    """All data races in the execution (§8.6.1), as a symmetric relation.

    Two overlapping operations *conflict* when at least one is a write; a
    conflict is a *race* when the operations are neither related in
    causality order nor morally strong.  Initial writes are excluded: the
    kernel launch boundary orders them before everything.
    """
    env = build_env(execution)
    cause = eval_expr(spec.DERIVED["cause"], env)
    ms = env.lookup("morally_strong")
    pairs: List[Tuple[Event, Event]] = []
    events = [e for e in execution.events if e.is_memory and not is_init(e)]
    for a in events:
        for b in events:
            if a.eid >= b.eid:
                continue
            if a.loc != b.loc or not (a.is_write or b.is_write):
                continue
            if (a, b) in ms or (a, b) in cause or (b, a) in cause:
                continue
            pairs.append((a, b))
            pairs.append((b, a))
    return Relation(pairs)


def is_race_free(execution: Execution) -> bool:
    """Whether the execution contains no data race."""
    return data_races(execution).is_empty()
