"""An incremental CDCL SAT solver.

This is the backend of the bounded relational model finder
(:mod:`repro.kodkod`), playing the role that an off-the-shelf SAT solver
plays underneath Alloy/Kodkod in the paper (§5.1).  It is a conventional
conflict-driven clause-learning solver:

* two-watched-literal unit propagation
* first-UIP conflict analysis with learned-clause minimisation (self-
  subsumption against reason clauses)
* VSIDS-style variable activity (indexed max-heap) with exponential decay
  and phase saving
* Luby-sequence restarts
* activity/LBD-based learned-clause database reduction, triggered
  geometrically, so long runs don't grow watch lists without bound

The solver is *incremental*: :meth:`Solver.add_clause` may be called after
:meth:`Solver.solve` to strengthen the formula (the solver backtracks to
the root level, simplifies the clause against root-level assignments, and
re-attaches watches).  Model enumeration pushes blocking clauses into one
live solver, so learned clauses, variable activities and saved phases
persist across the whole enumeration — the dominant cost of enumerating
all bounded instances of a relational formula (§5.2, Figure 17) is paid
once instead of per instance.

Per-solver counters live in a structured :class:`SolverStats`, threaded up
through the model finder and the litmus runner for observability.

The implementation favours clarity over raw speed, but comfortably handles
the tens of thousands of clauses produced by litmus-scale relational
encodings.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional

from ..core.deadline import check_deadline
from .cnf import Cnf
from .records import SolverStats


class Unsatisfiable(Exception):
    """Raised by helpers that require a model when none exists."""


def luby(index: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed."""
    x = index - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Clause(list):
    """A clause: a literal list plus learned-clause bookkeeping.

    Subclassing ``list`` keeps watch handling and conflict analysis working
    on plain indexing/iteration while giving the database reduction pass a
    place to hang activity and LBD (literal block distance).
    """

    __slots__ = ("learnt", "activity", "lbd")

    def __init__(self, lits: Iterable[int], learnt: bool = False, lbd: int = 0):
        super().__init__(lits)
        self.learnt = learnt
        self.activity = 0.0
        self.lbd = lbd


class _ActivityHeap:
    """Indexed binary max-heap of variables keyed on VSIDS activity.

    Replaces the O(num_vars) linear scan per decision with O(log n)
    pops/updates.  The heap shares the solver's activity array; uniform
    rescaling preserves the heap order, so only bumps need repair.
    """

    def __init__(self, activity: List[float]):
        """A heap holding every variable 1..n of ``activity``.  Every
        activity starts at 0.0, so that heap is the variables in order,
        as inserting them one by one would leave it."""
        self.activity = activity
        self.heap: List[int] = list(range(1, len(activity)))
        self.pos: List[int] = list(range(-1, len(activity) - 1))

    def __contains__(self, var: int) -> bool:
        return self.pos[var] >= 0

    def __len__(self) -> int:
        return len(self.heap)

    def insert(self, var: int) -> None:
        if self.pos[var] >= 0:
            return
        self.pos[var] = len(self.heap)
        self.heap.append(var)
        self._sift_up(self.pos[var])

    def bumped(self, var: int) -> None:
        """Restore the heap property after ``activity[var]`` increased."""
        if self.pos[var] >= 0:
            self._sift_up(self.pos[var])

    def pop(self) -> int:
        heap, pos = self.heap, self.pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        return top

    def _sift_up(self, index: int) -> None:
        heap, pos, activity = self.heap, self.pos, self.activity
        var = heap[index]
        score = activity[var]
        while index > 0:
            parent = (index - 1) >> 1
            parent_var = heap[parent]
            if activity[parent_var] >= score:
                break
            heap[index] = parent_var
            pos[parent_var] = index
            index = parent
        heap[index] = var
        pos[var] = index

    def _sift_down(self, index: int) -> None:
        heap, pos, activity = self.heap, self.pos, self.activity
        var = heap[index]
        score = activity[var]
        size = len(heap)
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            right = child + 1
            if right < size and activity[heap[right]] > activity[heap[child]]:
                child = right
            child_var = heap[child]
            if activity[child_var] <= score:
                break
            heap[index] = child_var
            pos[child_var] = index
            index = child
        heap[index] = var
        pos[var] = index


class Solver:
    """Incremental CDCL solver over a :class:`~repro.sat.cnf.Cnf` formula.

    The constructor copies the formula's clauses into solver-internal
    storage, so the caller's :class:`Cnf` is never mutated — blocking
    clauses and other incremental additions go through :meth:`add_clause`.
    A :class:`~repro.sat.cnf.FrozenCnf` propagated ahead
    (:meth:`~repro.sat.cnf.FrozenCnf.simplified`) loads as its root units
    and open clauses, without simplifying its clauses again.
    """

    RESTART_BASE = 64
    ACTIVITY_DECAY = 0.95
    ACTIVITY_RESCALE = 1e100
    CLAUSE_DECAY = 0.999
    CLAUSE_RESCALE = 1e20
    #: geometric growth of the learned-clause budget per reduction
    LEARNTS_GROWTH = 1.3

    def __init__(self, cnf: Cnf, proof=None):
        #: optional proof sink (:class:`repro.cert.drat.DratLogger`-shaped:
        #: ``add``/``delete``/``extend`` taking literal iterables).  The
        #: solver logs every learned clause, every database deletion, every
        #: incremental input addition, and the final empty clause, so an
        #: UNSAT run leaves a DRAT trace checkable by
        #: :func:`repro.cert.checker.check_unsat_proof`.
        self.proof = proof
        self._refutation_logged = False
        self.num_vars = cnf.num_vars
        self.assign: List[Optional[bool]] = [None] * (self.num_vars + 1)
        self.level: List[int] = [0] * (self.num_vars + 1)
        self.reason: List[Optional[List[int]]] = [None] * (self.num_vars + 1)
        self.activity: List[float] = [0.0] * (self.num_vars + 1)
        self.phase: List[bool] = [False] * (self.num_vars + 1)
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.watches: Dict[int, List[Clause]] = defaultdict(list)
        self.order = _ActivityHeap(self.activity)
        self.learnts: List[Clause] = []
        self.max_learnts = max(256.0, len(cnf.clauses) / 3.0)
        self.ok = True
        self.stats = SolverStats()
        # a formula propagated once ahead (FrozenCnf.simplified) loads its
        # root units and open clauses as they are, then any units added
        # since; any other loads clause by clause, each simplified against
        # the root assignment so far
        root = getattr(cnf, "root", None)
        clauses = cnf.clauses
        if root is not None:
            self._load_root(root)
            clauses = [(lit,) for lit in cnf.units]
        for clause in clauses:
            if not self.ok:
                break
            self._add_clause(list(clause))

    # ------------------------------------------------------------------
    # clause management
    # ------------------------------------------------------------------
    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause to a live solver (the incremental interface).

        May be called after :meth:`solve`: the solver backtracks to the
        root level, simplifies the clause against root assignments,
        attaches watches, and unit-propagates any resulting implication.
        Learned clauses, activities and saved phases all survive.  Returns
        the solver's ``ok`` flag (False once the formula is root-level
        unsatisfiable).
        """
        clause = list(lits)
        if any(lit == 0 for lit in clause):
            raise ValueError("literal 0 is not allowed in a clause")
        for lit in clause:
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unallocated variable")
        if not self.ok:
            return False
        if self.proof is not None:
            # an incremental addition is a new input clause, not a derived
            # consequence: log it as an extension before any refutation it
            # may trigger
            self.proof.extend(clause)
        self._cancel_until(0)
        self._add_clause(clause)
        return self.ok

    def _log_refutation(self) -> None:
        """Close the proof trace with the empty clause (once)."""
        if self.proof is not None and not self._refutation_logged:
            self._refutation_logged = True
            self.proof.add(())

    def _add_clause(self, clause: List[int]) -> None:
        seen: set = set()
        simplified: List[int] = []
        for lit in clause:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value is True:
                return  # satisfied at root (additions happen at level 0)
            if value is False:
                continue  # falsified at root; drop literal
            seen.add(lit)
            simplified.append(lit)
        if not simplified:
            self.ok = False
            self._log_refutation()
            return
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None) or self._propagate() is not None:
                self.ok = False
                self._log_refutation()
            return
        self._attach(Clause(simplified))

    def _load_root(self, root) -> None:
        """Load a :class:`~repro.sat.cnf.RootLoad` into the empty solver:
        its units are the root assignment (already propagated) and its
        open clauses, unassigned and at least binary, are attached with
        no further simplification."""
        if root.conflict:
            self.ok = False
            self._log_refutation()
            return
        assign = self.assign
        for lit in root.units:
            assign[abs(lit)] = lit > 0  # at level 0, with no reason
        self.trail.extend(root.units)
        self.qhead = len(self.trail)
        # counted as this solver's, as if it had propagated them itself
        self.stats.propagations += len(root.units)
        watches = self.watches
        for lits in root.clauses:
            clause = Clause(lits)
            watches[lits[0]].append(clause)
            watches[lits[1]].append(clause)

    def _attach(self, clause: Clause) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _detach(self, clause: Clause) -> None:
        for lit in (clause[0], clause[1]):
            watch_list = self.watches[lit]
            for index, watched in enumerate(watch_list):
                if watched is clause:
                    watch_list[index] = watch_list[-1]
                    watch_list.pop()
                    break

    def _locked(self, clause: Clause) -> bool:
        """Whether the clause is the reason of its first literal (in use)."""
        return self.reason[abs(clause[0])] is clause

    def _reduce_db(self) -> None:
        """Drop the less useful half of the learned-clause database.

        Keeps binary clauses, glue clauses (LBD ≤ 2) and clauses currently
        locked as reasons; among the rest, the lowest-activity half goes.
        The budget then grows geometrically, so reductions stay rare.
        """
        self.learnts.sort(key=lambda c: c.activity)
        target = len(self.learnts) // 2
        kept: List[Clause] = []
        removed = 0
        for clause in self.learnts:
            if (
                removed < target
                and len(clause) > 2
                and clause.lbd > 2
                and not self._locked(clause)
            ):
                self._detach(clause)
                removed += 1
                if self.proof is not None:
                    self.proof.delete(list(clause))
            else:
                kept.append(clause)
        self.learnts = kept
        self.stats.deleted += removed
        self.max_learnts *= self.LEARNTS_GROWTH

    # ------------------------------------------------------------------
    # assignment primitives
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        value = self.assign[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        value = self._value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        boundary = self.trail_lim[target_level]
        for lit in reversed(self.trail[boundary:]):
            var = abs(lit)
            self.phase[var] = bool(self.assign[var])  # phase saving
            self.assign[var] = None
            self.reason[var] = None
            self.order.insert(var)
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[Clause]:
        """Unit-propagate; return a conflicting clause or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            false_lit = -lit
            watch_list = self.watches[false_lit]
            kept: List[Clause] = []
            conflict: Optional[Clause] = None
            index = 0
            while index < len(watch_list):
                clause = watch_list[index]
                index += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    kept.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1]].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self._value(first) is False:
                    conflict = clause
                    kept.extend(watch_list[index:])
                    break
                self._enqueue(first, clause)
            self.watches[false_lit] = kept
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > self.ACTIVITY_RESCALE:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1.0 / self.ACTIVITY_RESCALE
            self.var_inc *= 1.0 / self.ACTIVITY_RESCALE
        self.order.bumped(var)

    def _bump_clause(self, clause: List[int]) -> None:
        if not isinstance(clause, Clause) or not clause.learnt:
            return
        clause.activity += self.cla_inc
        if clause.activity > self.CLAUSE_RESCALE:
            for learnt in self.learnts:
                learnt.activity *= 1.0 / self.CLAUSE_RESCALE
            self.cla_inc *= 1.0 / self.CLAUSE_RESCALE

    def _analyze(self, conflict: Clause) -> tuple[List[int], int]:
        learnt: List[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit: Optional[int] = None
        reason: List[int] = conflict
        trail_index = len(self.trail) - 1
        current_level = self._decision_level()
        while True:
            self._bump_clause(reason)
            for q in reason:
                if q == lit:
                    continue  # the propagated literal itself, not an antecedent
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            lit = self.trail[trail_index]
            var = abs(lit)
            seen[var] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                learnt.insert(0, -lit)
                break
            clause = self.reason[var]
            reason = clause if clause is not None else []
        # Clause minimisation: a literal is redundant if every other literal
        # of its reason clause already occurs in the learnt clause.
        in_learnt = set(learnt)
        minimised = [learnt[0]]
        for q in learnt[1:]:
            clause = self.reason[abs(q)]
            if clause is not None and all(
                p == -q or p in in_learnt for p in clause
            ):
                continue
            minimised.append(q)
        learnt = minimised
        backtrack_level = 0
        if len(learnt) > 1:
            max_index = max(
                range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])]
            )
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backtrack_level = self.level[abs(learnt[1])]
        return learnt, backtrack_level

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> Optional[int]:
        # lazy deletion: assigned variables stay in the heap until popped
        while self.order.heap:
            var = self.order.pop()
            if self.assign[var] is None:
                return var
        return None

    def solve(self) -> bool:
        """Decide satisfiability; :meth:`model` is valid afterwards if True.

        May be called repeatedly, interleaved with :meth:`add_clause`; each
        call restarts the search at the root level but keeps all learned
        clauses, activities and saved phases.
        """
        started = time.perf_counter()
        try:
            return self._search()
        finally:
            self.stats.solves += 1
            self.stats.solve_time += time.perf_counter() - started

    def _search(self) -> bool:
        if not self.ok:
            return False
        self._cancel_until(0)
        restart_count = 1
        conflicts_until_restart = self.RESTART_BASE * luby(restart_count)
        conflicts_since_restart = 0
        while True:
            check_deadline()
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self.ok = False
                    self._log_refutation()
                    return False
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                self.stats.learned += 1
                if self.proof is not None:
                    # copy: the clause list is mutated in place by watch
                    # maintenance after attachment
                    self.proof.add(list(learnt))
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        self._log_refutation()
                        return False
                else:
                    lbd = len({self.level[abs(q)] for q in learnt})
                    clause = Clause(learnt, learnt=True, lbd=lbd)
                    clause.activity = self.cla_inc
                    self.learnts.append(clause)
                    self._attach(clause)
                    self._enqueue(clause[0], clause)
                self.var_inc /= self.ACTIVITY_DECAY
                self.cla_inc /= self.CLAUSE_DECAY
                if len(self.learnts) >= self.max_learnts:
                    self._reduce_db()
                continue
            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_until_restart = self.RESTART_BASE * luby(restart_count)
                conflicts_since_restart = 0
                self._cancel_until(0)
                continue
            var = self._pick_branch_var()
            if var is None:
                return True
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last successful solve."""
        return {
            var: bool(self.assign[var])
            for var in range(1, self.num_vars + 1)
            if self.assign[var] is not None
        }


def solve_cnf(cnf: Cnf) -> Optional[Dict[int, bool]]:
    """One-shot convenience wrapper: return a model dict or None."""
    solver = Solver(cnf)
    if solver.solve():
        return solver.model()
    return None


def enumerate_models(
    cnf: Cnf,
    projection: Optional[Iterable[int]] = None,
    limit: Optional[int] = None,
    incremental: bool = True,
    stats: Optional[SolverStats] = None,
    proof=None,
    blocking_out: Optional[List[List[int]]] = None,
) -> Iterator[Dict[int, bool]]:
    """Yield models, blocking each found (projected) assignment.

    ``projection`` restricts the blocking clause to the given variables, so
    models are enumerated up to the projection (the standard trick used for
    enumerating relational instances while ignoring Tseitin internals).  An
    *empty* projection means all models agree on the projection, so exactly
    one model is yielded.

    The caller's ``cnf`` is never mutated: blocking clauses live inside the
    solver, so the same formula object can be enumerated again later.  By
    default one incremental solver carries learned clauses, activities and
    saved phases across the whole enumeration; ``incremental=False`` keeps
    the old rebuild-per-model behaviour (on a private copy of the formula)
    as a baseline for benchmarks and differential tests.

    ``stats``, if given, is a :class:`SolverStats` sink: the counters of
    every solve that yields a model are added into it (the final,
    unsatisfiable solve that ends the enumeration is not).

    ``blocking_out``, if given, receives every blocking clause pushed into
    the solver, in push order — the certificate layer matches them against
    the yielded models.  ``proof`` attaches a DRAT logger to the solver
    (incremental mode only: a rebuilt-per-model solver has no single trace),
    so an exhausted enumeration leaves a checkable completeness refutation.
    """
    proj = sorted(set(projection)) if projection is not None else None
    if not incremental:
        if proof is not None:
            raise ValueError(
                "proof logging requires incremental enumeration (the "
                "rebuild baseline has no single solver to trace)"
            )
        yield from _enumerate_rebuild(cnf, proj, limit, stats, blocking_out)
        return
    solver = Solver(cnf, proof=proof)
    count = 0
    while limit is None or count < limit:
        before = solver.stats.copy()
        if not solver.solve():
            return
        if stats is not None:
            stats += solver.stats - before
        model = solver.model()
        yield model
        count += 1
        block_vars = proj if proj is not None else sorted(model)
        block = [-(var) if model.get(var, False) else var for var in block_vars]
        if not block:
            return
        if blocking_out is not None:
            blocking_out.append(list(block))
        if not solver.add_clause(block):
            return


def _enumerate_rebuild(
    cnf: Cnf,
    proj: Optional[List[int]],
    limit: Optional[int],
    stats: Optional[SolverStats],
    blocking_out: Optional[List[List[int]]] = None,
) -> Iterator[Dict[int, bool]]:
    """Per-model solver rebuild: the pre-incremental enumeration baseline."""
    working = cnf.copy()
    count = 0
    while limit is None or count < limit:
        solver = Solver(working)
        if not solver.solve():
            return
        if stats is not None:
            stats += solver.stats
        model = solver.model()
        yield model
        count += 1
        block_vars = proj if proj is not None else sorted(model)
        block = [-(var) if model.get(var, False) else var for var in block_vars]
        if not block:
            return
        if blocking_out is not None:
            blocking_out.append(list(block))
        working.add_clause(block)
