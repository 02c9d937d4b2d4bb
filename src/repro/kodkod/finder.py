"""The model-finding front end (the Alloy Analyzer analog, §5.1–5.2).

``solve`` finds an instance of a formula within bounds; ``check`` searches
for a counterexample to an assertion (Alloy's ``check`` command, Figure
16a); ``instances`` enumerates satisfying instances up to the witness
relations.  Instances come back as plain ``name -> Relation`` maps, so they
plug directly into the concrete evaluator for cross-validation.

Enumeration runs on one *incremental* SAT solver: blocking clauses are
pushed into the live solver (never into the shared CNF), so learned
clauses, variable activities and saved phases persist across the whole
enumeration, and the caller's :class:`~repro.kodkod.translate.Translation`
stays pristine and re-enumerable.

Every SAT call records a :class:`~repro.sat.records.SolverStats` snapshot on
the translation (and into the optional ``stats`` collector), so callers can
observe decisions/conflicts/learned-clause reuse per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..lang import ast
from ..relation import Relation
from ..sat.records import SolverStats
from ..sat.solver import Solver, enumerate_models
from .bounds import Bounds
from .translate import Translation, Translator


@dataclass(frozen=True)
class Instance:
    """A concrete binding of every bounded relation.

    Instances are plain data by design: :meth:`to_dict` flattens them to
    JSON-native structures so they can cross process boundaries (worker
    IPC in the parallel litmus session) or be persisted, and
    :meth:`from_dict` rebuilds an equal instance.  Atom order inside each
    relation is canonicalized by sorting on the repr of the tuples.
    """

    relations: Dict[str, Relation]

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def to_dict(self) -> Dict[str, List[list]]:
        """The bindings as ``{name: sorted list of atom tuples}``."""
        return {
            name: sorted((list(t) for t in rel), key=repr)
            for name, rel in sorted(self.relations.items())
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, List[list]]) -> "Instance":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            relations={
                name: Relation(tuple(t) for t in tuples)
                for name, tuples in payload.items()
            }
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={len(rel)}t" for name, rel in sorted(self.relations.items())
        )
        return f"<Instance {parts}>"


def _decode(translation: Translation, model: Dict[int, bool]) -> Instance:
    decoded = translation.decode(model)
    return Instance(
        relations={name: Relation(tuples) for name, tuples in decoded.items()}
    )


def translate_problem(
    formula: ast.Formula,
    bounds: Bounds,
    configure: Optional[callable] = None,
) -> Translation:
    """Translate a bounded problem to CNF without solving it.

    Public so a caller can hold on to the translation and query it more
    than once (:func:`solve_translation`, :func:`enumerate_translation`);
    the original CNF and bounds are also exactly what an independent
    checker validates traces and witnesses against.
    """
    translator = Translator(bounds)
    if configure is not None:
        configure(translator)
    translator.assert_formula(formula)
    return translator.finish()


def solve_translation(
    translation: Translation,
    stats: Optional[List[SolverStats]] = None,
    proof=None,
) -> Optional[Instance]:
    """Solve a prepared translation, recording solver stats on it.

    ``proof`` attaches a DRAT logger to the solver (see
    :mod:`repro.cert.drat`), so an unsatisfiable query leaves a trace the
    independent checker can validate.
    """
    solver = Solver(translation.cnf, proof=proof)
    satisfiable = solver.solve()
    snapshot = solver.stats.copy()
    translation.solver_stats.append(snapshot)
    if stats is not None:
        stats.append(snapshot)
    if not satisfiable:
        return None
    return _decode(translation, solver.model())


def solve(
    formula: ast.Formula,
    bounds: Bounds,
    configure: Optional[callable] = None,
    stats: Optional[List[SolverStats]] = None,
) -> Optional[Instance]:
    """Find an instance satisfying ``formula``, or None.

    ``configure`` receives the :class:`Translator` before solving, for
    extra-logical constraints (e.g. rf functionality via ``exactly_one_of``).
    ``stats``, if given, receives one :class:`SolverStats` snapshot.
    """
    return solve_translation(
        translate_problem(formula, bounds, configure), stats=stats
    )


def check(
    assertion: ast.Formula,
    bounds: Bounds,
    configure: Optional[callable] = None,
    stats: Optional[List[SolverStats]] = None,
) -> Optional[Instance]:
    """Search for a counterexample to ``assertion`` (Alloy ``check``).

    Returns a violating instance, or None if the assertion holds within
    the bounds.
    """
    return solve(ast.Not(assertion), bounds, configure=configure, stats=stats)


class _StatsFanout:
    """Append-only sink duplicating per-solve stats into several lists."""

    def __init__(self, *sinks: Optional[List[SolverStats]]):
        self.sinks = [sink for sink in sinks if sink is not None]

    def append(self, snapshot: SolverStats) -> None:
        for sink in self.sinks:
            sink.append(snapshot)


def instances(
    formula: ast.Formula,
    bounds: Bounds,
    configure: Optional[callable] = None,
    limit: Optional[int] = None,
    incremental: bool = True,
    stats: Optional[List[SolverStats]] = None,
    proof=None,
    blocking_out: Optional[List[List[int]]] = None,
) -> Iterator[Instance]:
    """Enumerate satisfying instances, distinct on the witness relations.

    Distinctness is judged *up to the witness (slack) relation variables*:
    two total SAT models that decode to the same relational binding count
    as one instance.  In particular, when every relation is exactly bounded
    there are no witness variables, and a satisfiable problem has exactly
    one instance — the enumeration yields it and stops, regardless of
    ``limit`` and of how many total SAT models the Tseitin internals admit.

    One incremental solver carries learned clauses across the enumeration
    (pass ``incremental=False`` for the rebuild-per-instance baseline); the
    translation's CNF is never mutated, so the same formula/bounds can be
    enumerated repeatedly with identical results.

    ``proof`` and ``blocking_out`` feed the certificate layer: the DRAT
    logger records the solve, and every pushed blocking clause is exposed
    so enumeration completeness can be independently certified.
    """
    yield from enumerate_translation(
        translate_problem(formula, bounds, configure),
        limit=limit,
        incremental=incremental,
        stats=stats,
        proof=proof,
        blocking_out=blocking_out,
    )


def enumerate_translation(
    translation: Translation,
    limit: Optional[int] = None,
    incremental: bool = True,
    stats: Optional[List[SolverStats]] = None,
    proof=None,
    blocking_out: Optional[List[List[int]]] = None,
) -> Iterator[Instance]:
    """Enumerate a prepared translation's instances (see :func:`instances`),
    recording solver stats on it."""
    sink = _StatsFanout(translation.solver_stats, stats)
    for model in enumerate_models(
        translation.cnf,
        projection=translation.projection_vars(),
        limit=limit,
        incremental=incremental,
        stats_out=sink,
        proof=proof,
        blocking_out=blocking_out,
    ):
        yield _decode(translation, model)
