"""Checking executions against the TSO baseline (paper Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.execution import Execution, same_location
from ..lang import Env, eval_formula, relation_env
from ..relation import Relation
from . import spec


def build_env(execution: Execution, bitset: bool = False) -> Env:
    """Environment for the TSO spec over PTX-style events.

    TSO has no scopes and no strength distinctions: every access is an
    ordinary load/store.  Fences of any flavour act as full fences (this
    matches the paper's use of TSO purely as an expository baseline), and
    both halves of an atomic are fencing, per §2.2 ("at least one is an
    atomic read-modify-write operation").  ``bitset`` selects the dense
    bitset representation; verdicts are identical.
    """
    events = execution.events
    po = execution.relation("po")
    sloc = same_location(events)
    rf = execution.relation("rf")
    rmw = execution.relation("rmw")
    atomic_halves = {e for pair in rmw for e in pair}

    def is_fencing(event) -> bool:
        return event.is_fence or event in atomic_halves

    ppo_pairs = []
    fence_pairs = []
    memory = [e for e in events if e.is_memory]
    for a, b in po:
        if not (a.is_memory and b.is_memory):
            continue
        if not (a.is_write and b.is_read):
            ppo_pairs.append((a, b))
        if is_fencing(a) or is_fencing(b):
            fence_pairs.append((a, b))
        else:
            between = any(
                e.is_fence and (a, e) in po and (e, b) in po for e in events
            )
            if between:
                fence_pairs.append((a, b))
    rfe = Relation(
        (w, r) for w, r in rf if getattr(w, "thread", None) != getattr(r, "thread", None)
    )
    bindings: Dict[str, Relation] = {
        "po": po,
        "po_loc": po & sloc,
        "rf": rf,
        "rfe": rfe,
        "co": execution.relation("co"),
        "rmw": rmw,
        "ppo": Relation(ppo_pairs),
        "fence": Relation(fence_pairs),
        "R": Relation.set_of(e for e in memory if e.is_read),
        "W": Relation.set_of(e for e in memory if e.is_write),
    }
    return relation_env(events, bindings, sets=("R", "W"), bitset=bitset)


@dataclass(frozen=True)
class TsoReport:
    """Verdict of the two TSO axioms on one candidate execution."""

    axioms: Dict[str, bool]
    execution: Execution

    @property
    def consistent(self) -> bool:
        """Whether both axioms hold."""
        return all(self.axioms.values())


def check_execution(execution: Execution, env: Optional[Env] = None) -> TsoReport:
    """Evaluate the Figure 2 axioms on a candidate execution."""
    # the self-built environment evaluates over bitsets (verdicts are
    # representation-independent)
    env = env or build_env(execution, bitset=True)
    results = {
        name: eval_formula(axiom, env) for name, axiom in spec.AXIOMS.items()
    }
    return TsoReport(axioms=results, execution=execution)
