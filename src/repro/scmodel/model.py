"""Checking executions against the sequential-consistency baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.execution import Execution
from ..lang import Env, eval_formula, relation_env
from ..relation import Relation
from . import spec


def build_env(execution: Execution, bitset: bool = False) -> Env:
    """Environment for the SC spec: just ``po``/``rf``/``co`` over memory
    events (``bitset`` selects the dense bitset representation)."""
    bindings: Dict[str, Relation] = {
        "po": execution.relation("po"),
        "rf": execution.relation("rf"),
        "co": execution.relation("co"),
        "rmw": execution.relation("rmw"),
    }
    return relation_env(execution.events, bindings, bitset=bitset)


@dataclass(frozen=True)
class ScReport:
    """Verdict of the SC axiom on one candidate execution."""

    axioms: Dict[str, bool]
    execution: Execution

    @property
    def consistent(self) -> bool:
        """Whether the execution is sequentially consistent."""
        return all(self.axioms.values())


def check_execution(execution: Execution, env: Optional[Env] = None) -> ScReport:
    """Evaluate the SC axiom on a candidate execution."""
    # the self-built environment evaluates over bitsets (verdicts are
    # representation-independent)
    env = env or build_env(execution, bitset=True)
    results = {
        name: eval_formula(axiom, env) for name, axiom in spec.AXIOMS.items()
    }
    return ScReport(axioms=results, execution=execution)
