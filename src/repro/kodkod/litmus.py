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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from .finder import Instance, instances, solve
from .translate import Translator


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


def encode_litmus(test: LitmusTest, include_condition: bool = True):
    """Build the bounded relational problem for ``test``.

    Returns ``(goal, bounds, configure)`` ready for the model finder: the
    well-formedness facts and the six PTX axioms, conjoined with the
    compiled litmus condition when ``include_condition`` is set.  Public
    so the certificate layer can translate the same problem and hand the
    resulting CNF/bounds to the independent checker.
    """
    sp = static_pass(test.program)
    elab, init_events, events = sp.elab, sp.init_events, sp.events
    # the constant relations/sets: the PTX signature over the program's
    # vocabulary, as every other engine reads it
    env = signature_env(PTX.signature, sp)

    universe = Universe(tuple(events))
    bounds = Bounds(universe)
    for name in ("po", "po_loc", "sloc", "rmw", "dep", "syncbarrier", "morally_strong"):
        bounds.bound_exactly(name, env.lookup(name), arity=2)
    for name in ptx_spec.BASE_SETS:
        bounds.bound_exactly(name, env.lookup(name), arity=1)

    reads = [e for e in events if e.is_read]
    writes = [e for e in events if e.is_write]
    rf_upper = [
        (w, r) for r in reads for w in writes if w.loc == r.loc and w is not r
    ]
    bounds.bound("rf", 2, upper=rf_upper)

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

    # ---- well-formedness ----
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

    axioms = ast.conj(*ptx_spec.AXIOMS.values())

    parts = [well_formed, axioms]
    if include_condition:
        compiler = _ConditionCompiler(test, elab, events)
        parts.append(compiler.compile(test.condition))
        for name, relation in compiler.consts.items():
            bounds.bound_exactly(name, relation, arity=2)
    goal = ast.conj(*parts)

    def configure(translator: Translator) -> None:
        for read in reads:
            candidates = [
                (w, read) for w in writes if w.loc == read.loc and w is not read
            ]
            translator.exactly_one_of("rf", candidates)

    return goal, bounds, configure


def symbolic_outcome_allowed(
    test: LitmusTest,
    stats: Optional[List[SolverStats]] = None,
) -> bool:
    """Decide the test condition with one bounded SAT query.

    Returns True when some axiom-consistent execution satisfies the
    condition (i.e. the outcome is *allowed*).  ``stats``, if given,
    receives the SAT call's :class:`SolverStats` snapshot.
    """
    goal, bounds, configure = encode_litmus(test)
    return solve(goal, bounds, configure=configure, stats=stats) is not None


def symbolic_consistent_instances(
    test: LitmusTest,
    limit: Optional[int] = None,
    incremental: bool = True,
    stats: Optional[List[SolverStats]] = None,
    proof=None,
    blocking_out: Optional[List[List[int]]] = None,
):
    """Enumerate the axiom-consistent witness instances of ``test``.

    Yields one :class:`~repro.kodkod.finder.Instance` per distinct
    ``rf``/``co``/``sc`` binding admitted by the six PTX axioms — the
    paper's §5.2 "enumerate all bounded instances" methodology, driven by
    the incremental solver so learned clauses persist across the whole
    enumeration (``incremental=False`` restores the per-instance rebuild
    baseline for comparison).
    """
    goal, bounds, configure = encode_litmus(test, include_condition=False)
    return instances(
        goal,
        bounds,
        configure=configure,
        limit=limit,
        incremental=incremental,
        stats=stats,
        proof=proof,
        blocking_out=blocking_out,
    )


def symbolic_outcomes(
    test: LitmusTest,
    limit: Optional[int] = None,
    stats: Optional[List[SolverStats]] = None,
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
