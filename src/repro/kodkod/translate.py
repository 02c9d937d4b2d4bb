"""Translating relational formulas to CNF (the Kodkod back half, §5.1).

Every relational expression denotes, under given bounds, a *boolean matrix*:
a sparse map from tuples to SAT literals (missing tuples are constant
false).  As in Kodkod, matrix tuples hold atom *positions* in the
universe rather than the atoms themselves, so the translation hashes and
orders small ints only.  Expressions translate compositionally — union
is an OR gate per tuple, join is an OR of ANDs over the matched column,
and transitive closure is unrolled by iterative squaring, exactly as
Kodkod computes it ("by iterating r = r ∪ r.r enough times to cover the
upper bound", §5.3).

Formulas translate to single literals via Tseitin gates, so they can be
negated, conjoined, and asserted freely.

Exactly-bounded relations (``po``, ``sloc``, ``morally_strong``, the
event-class sets — Kodkod's partial instances) denote matrices of the
constant true literal.  The gates of :class:`~repro.sat.cnf.Cnf` propagate
those constants and share structurally equal gates, as Kodkod's boolean
circuits do (Torlak & Jackson, TACAS 2007), so only the subformulas that
depend on the free witness relations reach the CNF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..lang import ast
from ..sat.cnf import Cnf, FrozenCnf
from ..sat.records import SolverStats
from .bounds import Bounds

#: A sparse boolean matrix: tuple of universe positions -> SAT literal
#: (absent tuples are false).
Matrix = Dict[Tuple[int, ...], int]


@dataclass
class Translation:
    """The result of translating a problem: CNF plus variable maps."""

    #: a :class:`Cnf`, or the immutable :class:`FrozenCnf` a kept
    #: problem holds (both read as ``num_vars`` and ``clauses``)
    cnf: Union[Cnf, FrozenCnf]
    bounds: Bounds
    #: relation name -> (tuple -> SAT variable), for slack tuples only
    free_vars: Dict[str, Dict[tuple, int]] = field(default_factory=dict)
    #: one SolverStats snapshot per SAT call made against this translation
    #: (appended by :mod:`repro.kodkod.finder`; solver observability, §5.2)
    solver_stats: List[SolverStats] = field(default_factory=list)

    def decode(self, model: Dict[int, bool]) -> Dict[str, set]:
        """Decode a SAT model into concrete relations (name -> tuple set)."""
        out: Dict[str, set] = {}
        for name, bound in self.bounds.relations.items():
            tuples = set(bound.lower)
            for t, var in self.free_vars.get(name, {}).items():
                if model.get(var, False):
                    tuples.add(t)
            out[name] = tuples
        return out

    def projection_vars(self) -> List[int]:
        """All relation-variable SAT vars (for model enumeration)."""
        return [
            var
            for per_rel in self.free_vars.values()
            for var in per_rel.values()
        ]


class Translator:
    """Compiles expressions/formulas over bounded relations into CNF."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.cnf = Cnf()
        self.free_vars: Dict[str, Dict[tuple, int]] = {}
        #: id(node) -> (node, matrix); the node is pinned so its id stays
        #: unique, and identity lookups skip re-hashing frozen subtrees
        self._expr_cache: Dict[int, Tuple[ast.Expr, Matrix]] = {}
        position = {atom: i for i, atom in enumerate(bounds.universe)}
        self._size = len(position)

        def positions(tuples) -> List[Tuple[Tuple[int, ...], tuple]]:
            # positional order, not hash order: variable numbering and
            # matrix insertion order feed gate creation, so the CNF (and
            # its DRAT certificates) must not vary with hash randomization
            return sorted(
                (tuple(position[atom] for atom in t), t) for t in tuples
            )

        #: relation name -> its matrix, shared by every Var node naming it
        self._relations: Dict[str, Matrix] = {}
        for name, bound in bounds.relations.items():
            matrix = {
                key: self.cnf.true_lit() for key, _ in positions(bound.lower)
            }
            per_rel: Dict[tuple, int] = {}
            for key, t in positions(bound.slack):
                per_rel[t] = matrix[key] = self.cnf.new_var()
            self.free_vars[name] = per_rel
            self._relations[name] = matrix

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def matrix(self, expr: ast.Expr) -> Matrix:
        """The boolean matrix denoted by ``expr`` (cached per node)."""
        entry = self._expr_cache.get(id(expr))
        if entry is not None:
            return entry[1]
        result = self._compute(expr)
        self._expr_cache[id(expr)] = (expr, result)
        return result

    def _compute(self, expr: ast.Expr) -> Matrix:
        cnf = self.cnf
        if isinstance(expr, ast.Var):
            bound = self.bounds.get(expr.name)
            if bound.arity != expr.arity:
                raise ValueError(
                    f"relation {expr.name!r} bound at arity {bound.arity}, "
                    f"used at arity {expr.arity}"
                )
            return self._relations[expr.name]
        if isinstance(expr, ast.Iden):
            return {(a, a): cnf.true_lit() for a in range(self._size)}
        if isinstance(expr, ast.Univ):
            return {(a,): cnf.true_lit() for a in range(self._size)}
        if isinstance(expr, ast.Empty):
            return {}
        if isinstance(expr, ast.Union_):
            left, right = self.matrix(expr.left), self.matrix(expr.right)
            # iterate in insertion order (left first, then right-only):
            # raw set unions would make Tseitin gate numbering — and hence
            # the emitted CNF and DRAT certificates — vary with hash
            # randomization across runs
            out = {}
            for t, lit in left.items():
                out[t] = cnf.gate_or([lit, right[t]]) if t in right else lit
            for t, lit in right.items():
                if t not in left:
                    out[t] = lit
            return out
        if isinstance(expr, ast.Inter):
            left, right = self.matrix(expr.left), self.matrix(expr.right)
            return {
                t: cnf.gate_and([lit, right[t]])
                for t, lit in left.items()
                if t in right
            }
        if isinstance(expr, ast.Diff):
            left, right = self.matrix(expr.left), self.matrix(expr.right)
            out = {}
            for t, lit in left.items():
                if t in right:
                    out[t] = cnf.gate_and([lit, -right[t]])
                else:
                    out[t] = lit
            return out
        if isinstance(expr, ast.Join):
            return self._join(self.matrix(expr.left), self.matrix(expr.right))
        if isinstance(expr, ast.Product):
            left, right = self.matrix(expr.left), self.matrix(expr.right)
            return {
                s + t: cnf.gate_and([ls, lt])
                for s, ls in left.items()
                for t, lt in right.items()
            }
        if isinstance(expr, ast.Transpose):
            inner = self.matrix(expr.inner)
            return {(b, a): lit for (a, b), lit in inner.items()}
        if isinstance(expr, ast.TClosure):
            return self._closure(self.matrix(expr.inner))
        if isinstance(expr, ast.RTClosure):
            closed = self._closure(self.matrix(expr.inner))
            return self._with_iden(closed)
        if isinstance(expr, ast.Optional_):
            return self._with_iden(self.matrix(expr.inner))
        if isinstance(expr, ast.Bracket):
            inner = self.matrix(expr.inner)
            return {(t[0], t[0]): lit for t, lit in inner.items()}
        raise TypeError(f"unknown expression node: {expr!r}")

    def _with_iden(self, matrix: Matrix) -> Matrix:
        out = dict(matrix)
        for a in range(self._size):
            out[(a, a)] = self.cnf.true_lit()
        return out

    def _join(self, left: Matrix, right: Matrix) -> Matrix:
        from collections import defaultdict

        by_first: Dict[object, List[Tuple[tuple, int]]] = defaultdict(list)
        for t, lit in right.items():
            by_first[t[0]].append((t[1:], lit))
        combos: Dict[tuple, List[int]] = defaultdict(list)
        for t, lit in left.items():
            for rest, rlit in by_first.get(t[-1], ()):  # type: ignore[arg-type]
                out_tuple = t[:-1] + rest
                if not out_tuple:
                    raise ValueError("join produced arity 0")
                combos[out_tuple].append(self.cnf.gate_and([lit, rlit]))
        return {
            t: (lits[0] if len(lits) == 1 else self.cnf.gate_or(lits))
            for t, lits in combos.items()
        }

    def _closure(self, matrix: Matrix) -> Matrix:
        """Transitive closure by iterative squaring (Kodkod-style)."""
        size = max(self._size, 1)
        current = dict(matrix)
        steps = 1
        while steps < size:
            current = self._square(current)
            steps *= 2
        return current

    def _square(self, matrix: Matrix) -> Matrix:
        """One squaring step: r ∪ r;r."""
        composed = self._join(matrix, matrix)
        # insertion-order iteration, for the same determinism reason as
        # the Union_ case
        out = {}
        for t, lit in matrix.items():
            out[t] = (
                self.cnf.gate_or([lit, composed[t]]) if t in composed else lit
            )
        for t, lit in composed.items():
            if t not in matrix:
                out[t] = lit
        return out

    # ------------------------------------------------------------------
    # formulas
    # ------------------------------------------------------------------
    def literal(self, formula: ast.Formula) -> int:
        """A SAT literal equivalent to ``formula``."""
        cnf = self.cnf
        if isinstance(formula, ast.Subset):
            left, right = self.matrix(formula.left), self.matrix(formula.right)
            parts = [
                cnf.gate_or([-lit, right[t]]) if t in right else -lit
                for t, lit in left.items()
            ]
            return cnf.gate_and(parts)
        if isinstance(formula, ast.Equal):
            return cnf.gate_and(
                [
                    self.literal(ast.Subset(formula.left, formula.right)),
                    self.literal(ast.Subset(formula.right, formula.left)),
                ]
            )
        if isinstance(formula, ast.NoF):
            matrix = self.matrix(formula.expr)
            return cnf.gate_and([-lit for lit in matrix.values()])
        if isinstance(formula, ast.SomeF):
            matrix = self.matrix(formula.expr)
            return cnf.gate_or(list(matrix.values()))
        if isinstance(formula, ast.Acyclic):
            closed = self._closure(self.matrix(formula.expr))
            return cnf.gate_and(
                [-lit for (a, b), lit in closed.items() if a == b]
            )
        if isinstance(formula, ast.Irreflexive):
            matrix = self.matrix(formula.expr)
            return cnf.gate_and(
                [-lit for (a, b), lit in matrix.items() if a == b]
            )
        if isinstance(formula, ast.And):
            return cnf.gate_and([self.literal(formula.left), self.literal(formula.right)])
        if isinstance(formula, ast.Or):
            return cnf.gate_or([self.literal(formula.left), self.literal(formula.right)])
        if isinstance(formula, ast.Not):
            return -self.literal(formula.inner)
        if isinstance(formula, ast.TrueF):
            return cnf.true_lit()
        raise TypeError(f"unknown formula node: {formula!r}")

    def assert_formula(self, formula: ast.Formula) -> None:
        """Require ``formula`` to hold."""
        self.cnf.add_clause([self.literal(formula)])

    def exactly_one_of(self, name: str, tuples) -> None:
        """Constrain exactly one of the given tuples of relation ``name``.

        Used for functional witness relations (each read has exactly one
        rf source); expressible in relational logic only via cardinality,
        so exposed as a primitive, like Kodkod's multiplicity bounds.
        """
        lits = []
        bound = self.bounds.get(name)
        for t in tuples:
            t = tuple(t)
            if t in bound.lower:
                lits.append(self.cnf.true_lit())
            elif t in self.free_vars[name]:
                lits.append(self.free_vars[name][t])
        if not lits:
            raise ValueError(f"no candidate tuples for exactly-one on {name!r}")
        self.cnf.exactly_one(lits)

    def finish(self) -> Translation:
        """Package the accumulated CNF and variable maps."""
        return Translation(cnf=self.cnf, bounds=self.bounds, free_vars=self.free_vars)
