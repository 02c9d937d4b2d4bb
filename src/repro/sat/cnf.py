"""CNF formulas and Tseitin-style gate construction.

Variables are positive integers; a literal is a signed integer (negative for
negation), DIMACS style.  :class:`Cnf` owns the variable counter so that
translators (notably :mod:`repro.kodkod.translate`) can allocate fresh
variables for Tseitin definitions without collisions.

AND/OR gates are built the way Kodkod builds its boolean circuits (Torlak
& Jackson, TACAS 2007): inputs are simplified before anything is
allocated — constants propagate, duplicates collapse, complementary inputs
absorb — and a gate over an input set already seen returns the existing
output literal.  Sharing is sound because every gate emits the full
two-way Tseitin equivalence, so its output literal *is* the gate, in any
context.  OR is the De Morgan dual of AND (``a | b == -(-a & -b)``, with
identical clauses), so both kinds share one table.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

TRUE_LIT_NAME = "__true__"


class FrozenCnf(NamedTuple):
    """A finished formula as immutable tuples (:meth:`Cnf.freeze`).

    Tuples of ints hold no reference the garbage collector has to follow,
    so a long-lived formula costs the collector nothing once it has been
    seen; the gate table that built it is not kept.  The solver and the
    certificate checker read ``num_vars`` and ``clauses`` as they read a
    :class:`Cnf`.
    """

    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]
    #: the constant-true variable, or None if the formula never used it
    true_var: Optional[int] = None

    def with_units(self, lits: Iterable[int]) -> "FrozenCnf":
        """The formula plus one unit clause per literal, put first (a
        solver simplifies the clauses it loads after a unit against it)."""
        return self._replace(
            clauses=tuple((lit,) for lit in lits) + self.clauses
        )

    def copy(self) -> "Cnf":
        """A growable copy (a :class:`Cnf` without a gate table)."""
        clone = Cnf()
        clone.num_vars = self.num_vars
        clone.clauses = [list(clause) for clause in self.clauses]
        clone._true_lit = self.true_var
        return clone


class Cnf:
    """A growable CNF formula with gate helpers.

    The constant-true literal is materialised lazily as a reserved variable
    asserted by a unit clause; gates fold it away (and its negation, the
    false literal) instead of wrapping it.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._true_lit: Optional[int] = None
        #: sorted AND-input tuple -> the gate's output literal
        self._gates: Dict[Tuple[int, ...], int] = {}

    def copy(self) -> "Cnf":
        """An independent copy (same variable counter, cloned clause lists
        and gate table)."""
        clone = Cnf()
        clone.num_vars = self.num_vars
        clone.clauses = [list(clause) for clause in self.clauses]
        clone._true_lit = self._true_lit
        clone._gates = dict(self._gates)
        return clone

    def freeze(self) -> FrozenCnf:
        """The formula as it stands, as immutable tuples, last clause first.

        A gate's clauses follow its inputs' and a translator asserts its
        goal last, so reversed they read top-down: a solver loading them
        meets the root units first and never attaches the clauses those
        satisfy (about four in five of a litmus problem's)."""
        return FrozenCnf(
            self.num_vars,
            tuple(tuple(clause) for clause in reversed(self.clauses)),
            self._true_lit,
        )

    def new_var(self) -> int:
        """Allocate a fresh variable and return it (as a positive literal)."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause (iterable of non-zero literals)."""
        clause = list(lits)
        self._validate(clause)
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # constants
    # ------------------------------------------------------------------
    def true_lit(self) -> int:
        """A literal constrained to be true."""
        if self._true_lit is None:
            self._true_lit = self.new_var()
            self.add_clause([self._true_lit])
        return self._true_lit

    def false_lit(self) -> int:
        """A literal constrained to be false."""
        return -self.true_lit()

    # ------------------------------------------------------------------
    # Tseitin gates: each returns a literal equivalent to the gate output
    # ------------------------------------------------------------------
    def gate_and(self, lits: Iterable[int]) -> int:
        """A literal equivalent to the conjunction of ``lits``.

        True inputs and repeats are dropped; a false input, or a literal
        together with its negation, makes the gate false; a single
        remaining input is returned as is; an input set seen before
        returns that gate's output.
        """
        true = self._true_lit
        inputs: Dict[int, None] = {}
        for lit in lits:
            if lit == true:
                continue
            if -lit in inputs or (true is not None and lit == -true):
                return self.false_lit()
            inputs[lit] = None
        if not inputs:
            return self.true_lit()
        if len(inputs) == 1:
            return next(iter(inputs))
        key = tuple(sorted(inputs))
        out = self._gates.get(key)
        if out is None:
            self._validate(inputs)
            out = self.new_var()
            clauses = self.clauses
            for lit in inputs:
                clauses.append([-out, lit])
            clauses.append([out] + [-lit for lit in inputs])
            self._gates[key] = out
        return out

    def gate_or(self, lits: Iterable[int]) -> int:
        """A literal equivalent to the disjunction of ``lits``: the negated
        AND of the negated inputs, which emits the OR gate's clauses."""
        return -self.gate_and([-lit for lit in lits])

    def _validate(self, lits: Iterable[int]) -> None:
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unallocated variable")

    def gate_not(self, lit: int) -> int:
        """Negation is free: just flip the literal."""
        return -lit

    def gate_implies(self, a: int, b: int) -> int:
        """A literal equivalent to ``a -> b``."""
        return self.gate_or([-a, b])

    def gate_iff(self, a: int, b: int) -> int:
        """A literal equivalent to ``a <-> b``."""
        out = self.new_var()
        self.add_clause([-out, -a, b])
        self.add_clause([-out, a, -b])
        self.add_clause([out, a, b])
        self.add_clause([out, -a, -b])
        return out

    def gate_ite(self, cond: int, then: int, other: int) -> int:
        """A literal equivalent to ``cond ? then : other``."""
        out = self.new_var()
        self.add_clause([-out, -cond, then])
        self.add_clause([-out, cond, other])
        self.add_clause([out, -cond, -then])
        self.add_clause([out, cond, -other])
        return out

    # ------------------------------------------------------------------
    # cardinality (pairwise encoding; fine at litmus-test scale)
    # ------------------------------------------------------------------
    def at_most_one(self, lits: Sequence[int]) -> None:
        """Assert that at most one of ``lits`` is true."""
        lits = list(lits)
        for i, a in enumerate(lits):
            for b in lits[i + 1 :]:
                self.add_clause([-a, -b])

    def exactly_one(self, lits: Sequence[int]) -> None:
        """Assert that exactly one of ``lits`` is true."""
        lits = list(lits)
        if not lits:
            raise ValueError("exactly_one of an empty set is unsatisfiable")
        self.add_clause(lits)
        self.at_most_one(lits)

    def __repr__(self) -> str:
        return f"Cnf(vars={self.num_vars}, clauses={len(self.clauses)})"
