"""SAT-backed litmus checking (the paper's Alloy methodology, §5.2).

Instead of enumerating candidate executions one by one, encode the whole
search as a single bounded relational problem: the program's ``po``,
``rmw``, ``dep``, event-class sets and moral strength are *exact* bounds;
the witness relations ``rf``, ``co`` and ``sc`` are left free within
structural upper bounds; the six PTX axioms plus witness well-formedness
are asserted; and the litmus condition becomes a relational constraint on
``rf``/``co``.  One SAT call then decides whether the outcome is allowed.

Well-formedness, mirroring §3.4–3.5:

* ``rf`` — exactly one same-location write per read (cardinality, via the
  translator's ``exactly_one_of`` primitive);
* ``co`` — transitive, irreflexive, containing init-write edges, and
  relating every morally strong same-location write pair one way or the
  other (§8.8.6);
* ``sc`` — transitive, irreflexive, relating every morally strong
  ``fence.sc`` pair (§8.8.3).

Conditions are supported when register values are statically traceable to
constant stores (true for every paper litmus test); value-dependent chains
through RMWs fall back to the explicit enumerator.

Each (program, condition) is translated once (:func:`ptx_problem`): the
well-formedness and axiom CNF with the condition's Tseitin literal defined
but not asserted, kept as tuples with the program's static pass and
root-propagated once.  The
verdict query adds the literal as a unit clause, the instance enumeration
reads the CNF as it is, and the certificate layer checks exactly what
either of them solved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sat.cnf import FrozenCnf
from ..sat.records import SolverStats

from ..lang import ast
from ..litmus.conditions import AndC, Condition, MemEq, NotC, OrC, RegEq, TrueC
from ..litmus.test import LitmusTest
from ..ptx import spec as ptx_spec
from ..ptx.events import Event, Sem
from ..ptx.isa import AtomOp
from ..ptx.static import signature_env, static_pass
from ..relation import Relation
from ..zoo.models import PTX
from .bounds import Bounds, Universe
from .finder import enumerate_translation, solve_translation
from .translate import Translation, Translator


class UnsupportedCondition(ValueError):
    """The condition cannot be phrased relationally (value-dependent)."""


class UnsupportedProgram(ValueError):
    """The program's outcomes cannot be decoded from relational instances
    (some write stores a data-dependent value)."""


def static_write_values(elab) -> Dict[int, Optional[int]]:
    """Statically determined stored value per write eid (None = dynamic).

    Plain stores of integer literals are static; so is ``atom.exch`` with
    a constant operand (the exchange stores its operand regardless of the
    value read).  Everything else — RMW combines, register-valued stores —
    depends on the execution and maps to None.
    """
    values: Dict[int, Optional[int]] = {}
    for eid, recipe in elab.write_recipe.items():
        if recipe.rmw_op is None and isinstance(recipe.operand, int):
            values[eid] = recipe.operand
        elif (
            recipe.rmw_op is AtomOp.EXCH
            and recipe.rmw_operands
            and isinstance(recipe.rmw_operands[0], int)
        ):
            values[eid] = recipe.rmw_operands[0]
        else:
            values[eid] = None
    return values


class _ConditionCompiler:
    """Compiles final-state conditions to relational formulas.

    Mints fresh constant relations (``__constN``) for the specific event
    pairs a condition pins down; the caller binds them exactly.
    """

    def __init__(self, test: LitmusTest, elab, events: Tuple[Event, ...]):
        self.test = test
        self.elab = elab
        self.events = events
        self.consts: Dict[str, Relation] = {}
        self._write_values = static_write_values(elab)

    def _value_of(self, write: Event) -> Optional[int]:
        if write not in self.elab.events:
            return 0  # init write
        return self._write_values.get(write.eid)

    def _const(self, pairs) -> ast.Var:
        name = f"__const{len(self.consts)}"
        self.consts[name] = Relation(pairs)
        return ast.Var(name, arity=2)

    def _reg_atom(self, atom: RegEq) -> ast.Formula:
        thread = self.test.threads[atom.thread_index]
        read: Optional[Event] = None
        for thread_events in self.elab.by_thread:
            for event in thread_events:
                if (
                    event.thread == thread
                    and self.elab.read_dst.get(event.eid) == atom.reg
                ):
                    read = event
        if read is None:
            raise UnsupportedCondition(f"no read defines {atom!r}")
        sources: List[Event] = []
        for event in self.events:
            if not event.is_write or event.loc != read.loc:
                continue
            value = self._value_of(event)
            if value is None:
                raise UnsupportedCondition(
                    f"write {event!r} has a data-dependent value"
                )
            if value == atom.value:
                sources.append(event)
        if not sources:
            return ast.NoF(ast.Univ())  # value never produced
        return ast.SomeF(
            ast.Inter(ast.rel("rf"), self._const((s, read) for s in sources))
        )

    def _mem_atom(self, atom: MemEq) -> ast.Formula:
        loc_writes = [
            e for e in self.events if e.is_write and e.loc == atom.loc
        ]
        disjuncts: List[ast.Formula] = []
        for event in loc_writes:
            value = self._value_of(event)
            if value is None:
                raise UnsupportedCondition(
                    f"write {event!r} has a data-dependent value"
                )
            if value != atom.value:
                continue
            outgoing = [
                (event, other) for other in loc_writes if other is not event
            ]
            if outgoing:
                disjuncts.append(
                    ast.NoF(ast.Inter(ast.rel("co"), self._const(outgoing)))
                )
            else:
                disjuncts.append(ast.TrueF())
        if not disjuncts:
            return ast.NoF(ast.Univ())
        out = disjuncts[0]
        for d in disjuncts[1:]:
            out = ast.Or(out, d)
        return out

    def compile(self, condition: Condition) -> ast.Formula:
        """Translate a condition into a relational formula."""
        if isinstance(condition, RegEq):
            return self._reg_atom(condition)
        if isinstance(condition, MemEq):
            return self._mem_atom(condition)
        if isinstance(condition, AndC):
            return ast.And(self.compile(condition.left), self.compile(condition.right))
        if isinstance(condition, OrC):
            return ast.Or(self.compile(condition.left), self.compile(condition.right))
        if isinstance(condition, NotC):
            return ast.Not(self.compile(condition.inner))
        if isinstance(condition, TrueC):
            return ast.TrueF()
        raise UnsupportedCondition(f"unknown condition node {condition!r}")


@dataclass(frozen=True)
class PtxProblem:
    """A litmus test's bounded PTX problem, translated once.

    ``cnf`` is the witness well-formedness and the six axioms, with rf
    exactly-one, under ``bounds`` (which also bind the condition's
    constant relations exactly).  ``condition`` is the Tseitin literal
    of the test's condition: its gates are in ``cnf`` but nothing asserts
    it.  They only define that literal and constrain no relation
    variable, so ``cnf`` alone has exactly the consistent instances, and
    ``cnf`` plus the unit clause ``[condition]`` decides the condition.
    When the condition cannot be phrased relationally ``condition`` is
    None and ``unsupported`` says why.  ``cnf`` is root-propagated once
    here (:meth:`~repro.sat.cnf.FrozenCnf.simplified`), so every solver
    reading the problem loads only the clauses propagation leaves open.
    """

    bounds: Bounds
    cnf: FrozenCnf
    #: relation name -> (tuple -> SAT variable), for relations with slack
    free_vars: Dict[str, Dict[tuple, int]]
    condition: Optional[int]
    unsupported: Optional[str] = None

    def translation(self, condition: bool) -> Translation:
        """A fresh :class:`Translation` of the problem, with the
        condition asserted if ``condition`` is set (raising
        :class:`UnsupportedCondition` when it has no literal)."""
        cnf = self.cnf
        if condition:
            if self.condition is None:
                raise UnsupportedCondition(self.unsupported)
            cnf = cnf.with_units((self.condition,))
        return Translation(cnf=cnf, bounds=self.bounds, free_vars=self.free_vars)


@functools.lru_cache(maxsize=None)
def _ptx_goal() -> ast.Formula:
    """Witness well-formedness (§3.4–3.5) conjoined with the six axioms."""
    co = ast.rel("co")
    sc = ast.rel("sc")
    ms_var = ast.rel("morally_strong")
    sloc = ast.rel("sloc")
    ms_writes = ast.seq(
        ast.bracket(ast.set_("W")), ast.Inter(ms_var, sloc), ast.bracket(ast.set_("W"))
    )
    ms_fences = ast.seq(
        ast.bracket(ast.set_("F_sc")), ms_var, ast.bracket(ast.set_("F_sc"))
    )
    well_formed = ast.conj(
        ast.Subset(co @ co, co),
        ast.Irreflexive(co),
        ast.Subset(ms_writes, ast.Union_(co, ast.Transpose(co))),
        ast.Subset(sc @ sc, sc),
        ast.Irreflexive(sc),
        ast.Subset(ms_fences, ast.Union_(sc, ast.Transpose(sc))),
    )
    return ast.conj(well_formed, ast.conj(*ptx_spec.AXIOMS.values()))


def _translate(test: LitmusTest) -> PtxProblem:
    """Build and translate ``test``'s problem (see :class:`PtxProblem`)."""
    sp = static_pass(test.program)
    elab, init_events, events = sp.elab, sp.init_events, sp.events
    # the constant relations/sets: the PTX signature over the program's
    # vocabulary, as every other engine reads it
    env = signature_env(PTX.signature, sp)

    bounds = Bounds(Universe(tuple(events)))
    for name in ("po", "po_loc", "sloc", "rmw", "dep", "syncbarrier", "morally_strong"):
        bounds.bound_exactly(name, env.lookup(name), arity=2)
    for name in ptx_spec.BASE_SETS:
        bounds.bound_exactly(name, env.lookup(name), arity=1)

    reads = [e for e in events if e.is_read]
    writes = [e for e in events if e.is_write]
    rf_candidates = [
        [(w, r) for w in writes if w.loc == r.loc and w is not r]
        for r in reads
    ]
    bounds.bound("rf", 2, upper=[pair for group in rf_candidates for pair in group])

    co_lower = [
        (init, w)
        for init in init_events
        for w in writes
        if w.loc == init.loc and w is not init
    ]
    co_upper = [
        (a, b) for a in writes for b in writes if a is not b and a.loc == b.loc
    ]
    bounds.bound("co", 2, lower=co_lower, upper=co_upper)

    sc_fences = [e for e in events if e.is_fence and e.sem is Sem.SC]
    sc_upper = [(a, b) for a in sc_fences for b in sc_fences if a is not b]
    bounds.bound("sc", 2, upper=sc_upper)

    # the condition's constant relations must be bound before translation
    unsupported: Optional[str] = None
    compiler = _ConditionCompiler(test, elab, events)
    try:
        condition: Optional[ast.Formula] = compiler.compile(test.condition)
    except UnsupportedCondition as exc:
        condition, unsupported = None, str(exc)
    else:
        for name, relation in compiler.consts.items():
            bounds.bound_exactly(name, relation, arity=2)

    translator = Translator(bounds)
    for candidates in rf_candidates:
        translator.exactly_one_of("rf", candidates)
    translator.assert_formula(_ptx_goal())
    literal = None if condition is None else translator.literal(condition)
    return PtxProblem(
        bounds=bounds,
        cnf=translator.cnf.freeze().simplified(),
        free_vars={
            name: per_rel
            for name, per_rel in translator.free_vars.items()
            if per_rel
        },
        condition=literal,
        unsupported=unsupported,
    )


def ptx_problem(test: LitmusTest) -> PtxProblem:
    """``test``'s PTX problem, translated on first use and kept with its
    program's static pass, one per condition.  Every symbolic reader —
    the verdict query, the instance enumeration, the certificates — sees
    this one CNF, whichever asks first."""
    problems = static_pass(test.program).sat_problems
    problem = problems.get(test.condition)
    if problem is None:
        problem = problems[test.condition] = _translate(test)
    return problem


def symbolic_outcome_allowed(
    test: LitmusTest,
    stats: Optional[SolverStats] = None,
) -> bool:
    """Decide the test condition with one bounded SAT query.

    Returns True when some axiom-consistent execution satisfies the
    condition (i.e. the outcome is *allowed*).  ``stats``, if given,
    receives the SAT call's :class:`SolverStats`.
    """
    translation = ptx_problem(test).translation(condition=True)
    return solve_translation(translation, stats=stats) is not None


def symbolic_consistent_instances(
    test: LitmusTest,
    limit: Optional[int] = None,
    incremental: bool = True,
    stats: Optional[SolverStats] = None,
    proof=None,
    blocking_out: Optional[List[List[int]]] = None,
):
    """Enumerate the axiom-consistent witness instances of ``test``.

    Yields one :class:`~repro.kodkod.finder.Instance` per distinct
    ``rf``/``co``/``sc`` binding admitted by the six PTX axioms — the
    paper's §5.2 "enumerate all bounded instances" methodology, driven by
    the incremental solver so learned clauses persist across the whole
    enumeration (``incremental=False`` restores the per-instance rebuild
    baseline for comparison).  The CNF is :func:`ptx_problem`'s, with
    the condition left unasserted.
    """
    return enumerate_translation(
        ptx_problem(test).translation(condition=False),
        limit=limit,
        incremental=incremental,
        stats=stats,
        proof=proof,
        blocking_out=blocking_out,
    )


def symbolic_outcomes(
    test: LitmusTest,
    limit: Optional[int] = None,
    stats: Optional[SolverStats] = None,
):
    """The full allowed-outcome *set* of ``test``, computed symbolically.

    Enumerates every axiom-consistent ``rf``/``co``/``sc`` instance
    (:func:`symbolic_consistent_instances`) and decodes each to the same
    :class:`~repro.search.records.Outcome` the enumerative engine
    reports — registers from ``rf`` plus static write values, memory from
    coherence-maximal writes.  This is the cross-engine oracle's strong
    comparison: two engines can agree on a verdict while disagreeing on
    the outcome set, and only the set comparison catches that.

    Decoding subtlety: the relational encoding leaves ``co`` free on
    *non*-morally-strong same-location write pairs, so the SAT solver may
    order racy writes the enumerative search deliberately leaves
    unordered.  Observability is therefore computed over the instance's
    ``co`` restricted to the edges the enumerative engine can produce —
    morally strong pairs, init-write edges, and causality-forced edges —
    which maps every spuriously-ordered instance onto the outcome of its
    minimally-ordered counterpart.  ``sc`` is likewise free on
    ``fence.sc`` pairs that are not morally strong, which the enumerative
    engine never orients, so ``cause`` is decoded over the closure of the
    instance's ``sc`` restricted to morally strong pairs.

    ``cause`` is decoded by the interpreter (:func:`~repro.lang.eval_expr`
    over a bitset environment), not by the compiled kernel, on purpose:
    this enumeration is the fuzz oracle's check on the enumerative
    engines, which run the compiled kernel, so the two share no compiled
    code.  The interpreted decode costs about 30% of this function on
    fuzz-sized programs; that is the price of the independence.

    Raises :class:`UnsupportedProgram` when some write's value is
    data-dependent (the instance alone cannot determine it).
    """
    from ..lang import eval_expr
    from ..search.staged import co_maximal_memory
    from ..search.records import Outcome, register_sort_key

    sp = static_pass(test.program)
    elab, init_events, events = sp.elab, sp.init_events, sp.events
    values = static_write_values(elab)

    def value_of(event: Event) -> int:
        if event in init_events:
            return 0
        value = values.get(event.eid)
        if value is None:
            raise UnsupportedProgram(
                f"write {event!r} stores a data-dependent value"
            )
        return value

    writes = [e for e in events if e.is_write]
    for write in writes:
        value_of(write)  # fail fast, before any SAT work

    # decode over bitsets: one cause evaluation per instance is
    # the oracle path's hot spot, and the retained memo carries the
    # rf/sc-independent subexpressions across instances
    env = signature_env(PTX.signature, sp, bitset=True)
    ms = env.lookup("morally_strong")
    init_edges = sp.init_co

    cause_expr = ptx_spec.DERIVED["cause"]
    outcomes = set()
    for instance in symbolic_consistent_instances(test, limit=limit, stats=stats):
        rf, co, sc = instance["rf"], instance["co"], instance["sc"]
        registers: Dict = {}
        for write, read in rf:
            dst = elab.read_dst.get(read.eid)
            if dst is not None:
                registers[(read.thread, dst)] = value_of(write)
        sc_ms = (env.to_kernel(sc) & ms).closure()
        bound = env.bind("rf", env.to_kernel(rf)).bind("sc", sc_ms)
        cause = eval_expr(cause_expr, bound)
        observable_co = Relation(
            (a, b)
            for a, b in co
            if (a, b) in ms
            or (a, b) in init_edges
            or ((a, b) in cause and a.is_write and b.is_write and a.loc == b.loc)
        )
        outcomes.add(
            Outcome(
                registers=tuple(sorted(registers.items(), key=register_sort_key)),
                memory=co_maximal_memory(writes, observable_co, value_of),
            )
        )
    return frozenset(outcomes)
