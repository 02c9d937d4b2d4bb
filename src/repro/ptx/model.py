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

from ..core.execution import Execution
from ..lang import Env, eval_expr, eval_formula
from ..relation import Relation
from ..zoo.models import PTX
from . import spec
from .events import Event, is_init
from .program import Elaboration, Program
from .static import (  # noqa: F401 — moral_strength stays importable here
    Vocabulary,
    moral_strength,
    signature_env,
    static_pass,
)


def static_execution(
    program: Program,
) -> Tuple[Elaboration, Tuple[Event, ...], Execution]:
    """A program's candidate-execution skeleton, witnesses empty.

    Returns ``(elaboration, init events, execution)`` from the program's
    memoized :func:`~repro.ptx.static.static_pass`: the execution holds
    the elaborated events and one init write per location (eids after
    the program's events), binding ``po``, ``rmw``, ``dep`` and
    ``syncbarrier``, with ``rf``, ``co`` and ``sc`` empty.  Every engine
    reading the program shares it, so its relations are read-only.
    """
    sp = static_pass(program)
    return sp.elab, sp.init_events, sp.execution


def build_env(execution: Execution, bitset: bool = False) -> Env:
    """Build the evaluation environment for the PTX spec.

    ``execution.relations`` must already provide the witness relations
    ``po``, ``rf``, ``co``, ``sc``, ``rmw``, ``dep`` and ``syncbarrier``;
    the rest is the PTX signature (:data:`repro.zoo.models.PTX`) over the
    execution's vocabulary (:mod:`repro.ptx.static`): the event-class
    sets, ``sloc``, ``po_loc`` and ``morally_strong``.

    ``bitset`` selects the dense bitset representation (what the
    compiled kernel folds its constants in) over the frozenset-backed
    :class:`Relation` default.  Verdicts are identical either way.
    """
    env = signature_env(PTX.signature, Vocabulary(execution), bitset)
    for name in ("rf", "co", "sc"):
        env.bindings[name] = env.to_kernel(execution.relation(name))
    return env


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
