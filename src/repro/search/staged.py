"""One staged enumeration of candidate executions: rf, then sc, then co.

The paper checks a model (§5) by choosing the reads-from witness ``rf``
(which fixes every value, via :mod:`.values`), then the runtime Fence-SC
order ``sc``, then the coherence order, and filtering each candidate
through the axioms.  This module is that loop, once, for every axiomatic
model the repository runs, each described as a :class:`StagedModel`.
Stages 1–3 are the shared prefix, :func:`rf_sc_prefixes`; stages 4–5 are
:func:`staged_candidates`, which the zoo (:mod:`repro.zoo.engine`)
and its PTX front (:mod:`.ptx_search`) iterate.  The rf-check engine
(:mod:`.rf_check`) consumes the same prefix with its own co stage.

1. pick ``rf``, dropping assignments the model's declared doom prune
   (:class:`~repro.zoo.model.RfDoom`) proves inconsistent for every
   completion;
2. pick ``sc`` — orientations of the morally strong ``fence.sc`` pairs,
   if the witness spec asks for them (rf-independent: enumerated once);
3. check the co-independent constraints once per (rf, sc) prefix and
   derive the co edges the witness spec forces;
4. per valuation, pick the coherence witness — orientations of the
   morally strong write pairs seeded with the forced edges
   (``partial-ms``), or a per-location total order (``total``);
5. check the co-dependent constraints only.

Most of what the loop needs before the rf stage depends on the program
alone.  The events, the skeleton, the rf choices and bit positions, the
coherence seeds and total orders, and every vocabulary entry a model's
static environment binds come from the program's one static pass
(:func:`repro.ptx.static.static_pass`), which every engine reading the
program shares.  :class:`Staging` adds what is the model's own: its
static environment and compiled instance, its sc orders and its rf
prune.

The default ``compiled`` kernel runs the constraints as per-test
specialized functions over dense bitsets (:mod:`repro.lang.compile`),
called directly from the loop: binding ``co`` keeps every co-independent
value, so a co candidate costs only the co-dependent evaluations.
``kernel="set"`` interprets them over frozensets as the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, Mapping,
    Optional, Sequence, Tuple,
)

from ..core.deadline import check_deadline
from ..core.execution import Execution
from ..core.scopes import ThreadId
from ..lang import CompiledEnv, compiled_model, var_deps
from ..ptx.events import Event, Sem
from ..ptx.model import ConsistencyReport
from ..ptx.program import Elaboration, Program
from ..ptx.static import static_pass
from ..registry import DEFAULT_KERNEL
from ..relation import BitRel, Relation
from .posets import oriented_orders, oriented_orders_incremental
from .records import EnumStats, Outcome, register_sort_key
from .values import valuations

if TYPE_CHECKING:
    from ..lang import Expr, Formula
    from ..ptx.static import StaticPass
    from ..zoo.model import RfDoom, WitnessSpec


def co_maximal_memory(
    writes: Sequence[Event],
    co: Relation,
    value_of,
) -> Tuple[Tuple[str, FrozenSet[int]], ...]:
    """Final memory contents: per location, the values of co-maximal writes.

    Under PTX's partial coherence order several writes can sit unordered
    at the top; the location's final value is then any of them (§8.8.6).
    ``value_of`` maps a write event to its stored value.  Shared by the
    enumerative engine and the symbolic instance decoder so both report
    memory through the identical observability rule.
    """
    # one pass over co's edges: a write with a same-location successor is
    # dominated (groups partition `writes` by location, so this probes
    # exactly the per-group memberships the definition asks for)
    if isinstance(co, BitRel):
        # row scan under same-location masks: no pair materialization
        atoms = co.u.atoms
        loc_masks: Dict[Optional[str], int] = {}
        for i, atom in enumerate(atoms):
            loc_masks[atom.loc] = loc_masks.get(atom.loc, 0) | (1 << i)
        dominated = {
            atoms[i]
            for i, row in enumerate(co.rows)
            if row & loc_masks[atoms[i].loc]
        }
    else:
        dominated = {a for a, b in co if a.loc == b.loc}
    memory: Dict[str, set] = {}
    for event in writes:
        if event not in dominated:
            memory.setdefault(event.loc, set()).add(value_of(event))
    return tuple(
        sorted((loc, frozenset(vals)) for loc, vals in memory.items())
    )


def register_assignment(
    elab: Elaboration, valuation: Mapping[int, int]
) -> Tuple[Tuple[Tuple[ThreadId, str], int], ...]:
    """Final register values of one execution, in :class:`Outcome` order.

    Registers are written only by reads (``read_dst``); the valuation
    fixes each read's value, so the register file is rf-determined and
    independent of the ``sc``/``co`` completion.  Shared by the
    enumerative engine and the rf-check engine so both report registers
    through identical code.
    """
    registers: Dict[Tuple[ThreadId, str], int] = {}
    for thread_events in elab.by_thread:
        for event in thread_events:
            dst = elab.read_dst.get(event.eid)
            if dst is not None:
                registers[(event.thread, dst)] = valuation[event.eid]
    return tuple(sorted(registers.items(), key=register_sort_key))


@dataclass(frozen=True)
class Candidate:
    """A consistent (or, on request, inconsistent) candidate execution."""

    execution: Execution
    valuation: Mapping[int, int]
    report: ConsistencyReport
    elaboration: Elaboration
    #: the execution's write events, precomputed by engines that yield
    #: many candidates over one static event set (None: derive on demand)
    writes: Optional[Tuple[Event, ...]] = None

    def outcome(self) -> Outcome:
        """Compute the observable outcome of this execution."""
        writes = self.writes
        if writes is None:
            writes = [e for e in self.execution.events if e.is_write]
        memory = co_maximal_memory(
            writes,
            self.execution.relation("co"),
            lambda event: self.valuation[event.eid],
        )
        return Outcome(
            registers=register_assignment(self.elaboration, self.valuation),
            memory=memory,
        )


def _as_relation(value) -> Relation:
    """A plain :class:`Relation` from either kernel's value."""
    return value if isinstance(value, Relation) else value.to_relation()


@dataclass(frozen=True)
class StagedModel:
    """A model as the staged enumeration runs it.

    ``constraints`` are the ``(label, formula)`` pairs a consistent
    candidate satisfies, in report order; ``witnesses`` declares the
    quantified relations, and ``forced`` is the expression its
    ``co_forced_from`` names, resolved in the model's own vocabulary.
    ``env_factory(static_pass, bitset)`` builds the static environment
    over the program's :class:`~repro.ptx.static.StaticPass`, which
    the compiled kernel builds once per ``compile_key`` plus program
    signature, compiling ``extra_formulas`` alongside for the engines
    sharing the instance.  ``rf_builders`` are the ``(name, fn(rf))``
    relations recomputed per reads-from choice; ``rf_doom`` is the
    rf-stage prune.
    """

    constraints: Tuple[Tuple[str, "Formula"], ...]
    witnesses: "WitnessSpec"
    env_factory: Callable[["StaticPass", bool], object]
    compile_key: Tuple[str, ...]
    forced: Optional["Expr"] = None
    extra_formulas: Tuple[Tuple[str, "Formula"], ...] = ()
    rf_builders: Tuple[Tuple[str, Callable[[Relation], Relation]], ...] = ()
    rf_doom: Optional["RfDoom"] = None

    @cached_property
    def co_dependent(self) -> FrozenSet[str]:
        """Labels of the constraints that read the coherence witness."""
        co_name = self.witnesses.co_name
        return frozenset(
            label for label, formula in self.constraints
            if co_name in var_deps(formula)
        )


def _rebase(value: BitRel, space) -> BitRel:
    """``value`` over ``space``, a universe of the same events in the
    same order (its rows carry over unchanged)."""
    return value if value.u is space else BitRel._make(space, value.rows)


class Staging:
    """One model's view of a program before the rf loop: the program's
    static pass (:func:`~repro.ptx.static.static_pass`, shared by every
    engine reading the program), the model's static environment, the sc
    orders, the coherence witness space and the rf prune."""

    def __init__(
        self, program: Program, model: StagedModel, kernel: str,
        stats: EnumStats,
    ) -> None:
        if kernel not in ("compiled", "set"):
            raise ValueError(f"unknown relation kernel {kernel!r}")
        ws = model.witnesses
        self.model, self.stats = model, stats
        sp = static_pass(program)
        self.elab, self.init_events, self.static = (
            sp.elab, sp.init_events, sp.execution
        )
        events, po = self.events, self.po = sp.events, sp.po
        self.base_values = sp.base_values
        reads = self.reads = sp.reads
        self.all_writes = sp.all_writes
        writes_by_loc = self.writes_by_loc = sp.writes_by_loc
        self.rf_choices, self.val_eids = sp.rf_choices, sp.val_eids

        # the pass's bitsets index its own universe; a compiled instance
        # built for an equal program indexes that program's (same order)
        space = None
        if kernel == "compiled":
            co_names = frozenset((ws.co_name,))
            self.env = env = CompiledEnv(compiled_model(
                key=model.compile_key + (sp.signature,),
                formulas=model.constraints + model.extra_formulas,
                exprs=(model.forced,) if model.forced is not None else (),
                dynamic=("rf",)
                + tuple(name for name, _ in model.rf_builders)
                + (("sc",) if ws.sc_fences else ())
                + (ws.co_name,),
                mutate=co_names,
                warm_names=co_names,
                env_factory=lambda: model.env_factory(sp, True),
            ))
            self.orders = oriented_orders_incremental
            space = env.model.env.space
        else:
            self.env = env = model.env_factory(sp, False)
            env.stats = stats
            self.orders = oriented_orders
        empty_order = env.make_relation(())
        ms = None
        if ws.sc_fences or ws.co_style == "partial-ms":
            ms = env.lookup("morally_strong")

        # sc orders are rf-independent (the required pairs are the static
        # morally strong fence pairs and nothing is forced): enumerate
        # them once and replay them for every rf assignment
        self.sc_orders = [(None, Relation.empty(2))]
        if ws.sc_fences:
            fences = [e for e in events if e.is_fence and e.sem is Sem.SC]
            required = [
                frozenset((a, b))
                for a in fences
                for b in fences
                if a.eid < b.eid and (a, b) in ms
            ]
            self.sc_orders = [
                (order, _as_relation(order))
                for order in self.orders(required, empty_order)
            ]

        self.init_forced = empty_order
        self.ms_write_pairs: List[Tuple[Event, Event]] = []
        self.co_choices: Optional[Sequence] = None
        if ws.co_style == "partial-ms":
            if space is None:
                self.init_forced, self.ww_sloc = sp.init_co, sp.ww_sloc
            else:
                self.init_forced = _rebase(sp.init_co_bits, space)
                self.ww_sloc = _rebase(sp.ww_sloc_bits, space)
            # init edges seed every ``forced`` the co enumerator sees, so
            # pairs they already orient can never come up undecided
            init_closed = self.init_forced.closure()
            self.ms_write_pairs = [
                (a, b)
                for writes in writes_by_loc.values()
                for i, a in enumerate(writes)
                for b in writes[i + 1:]
                if (a, b) in ms
                and (a, b) not in init_closed and (b, a) not in init_closed
            ]
        elif space is None:
            # total style: the witness space is rf- and sc-independent,
            # so every total-co model reads the pass's one copy
            self.co_choices = sp.total_co
        else:
            self.co_choices = [
                _rebase(order, space) for order in sp.total_co_bits
            ]

        # A read of a po-later write to its own location closes an
        # rf ; po_loc 2-cycle; which such (read, write) pairs doom the
        # assignment is rf-independent, so it is resolved once.
        self.doomed: FrozenSet[Tuple[Event, Event]] = frozenset()
        doom = model.rf_doom
        if doom is not None:
            restrict = doom.restrict and env.lookup(doom.restrict)
            self.doomed = frozenset(
                (read, write)
                for read in reads
                for write in writes_by_loc[read.loc]
                if (read, write) in po
                and (restrict is None or (read, write) in restrict)
            )

        # under a bitset kernel each (write, read) rf pair resolves to its
        # (row, bit) once, so rebuilding rf per assignment is a few shifts
        self.rf_bits = self.space = None
        if space is not None:
            self.space, self.rf_bits = space, sp.rf_bits


def _co_checks(model: StagedModel, skip_axioms: Tuple[str, ...]) -> list:
    """The per-candidate checks, in report order, minus skipped ones."""
    return [
        (label, formula)
        for label, formula in model.constraints
        if label in model.co_dependent and label not in skip_axioms
    ]


def rf_sc_prefixes(
    st: Staging,
    skip_axioms: Tuple[str, ...] = (),
    include_inconsistent: bool = False,
) -> Iterator[Tuple[Tuple[Event, ...], object, list]]:
    """The shared rf and (rf, sc) stages, engine-agnostic.

    Yields ``(rf_assignment, rf_value, sc_variants)`` per reads-from
    choice (a write per read of ``st.reads``) that survives the doom
    prune and keeps an sc variant.  A variant is ``(env, forced, report,
    ok, sc_rel, co_orders)``: the env with ``rf`` and ``sc`` bound and the
    co-dependent constraints warmed; the forced co edges (``None`` under
    the ``total`` style); the constraint report, all true but for failed
    co-independent ones; whether none failed; the sc order as a
    :class:`Relation`; and the co witness space if already decided
    (``None``: orient ``forced``).  Failing variants are dropped unless
    ``include_inconsistent``, which also disables the doom prune.  The
    rf-stage counters and pre-check failures go to ``st.stats``.
    """
    model, stats, static_env = st.model, st.stats, st.env
    ws = model.witnesses
    co_names = frozenset((ws.co_name,))
    #: the per-(rf, sc) checks: skipped ones hold without evaluation
    pre_eval = [
        (label, None if label in skip_axioms else formula)
        for label, formula in model.constraints
        if label not in model.co_dependent
    ]
    co_eval = _co_checks(model, skip_axioms)
    #: skipped constraints count as holding
    all_true = dict.fromkeys((label for label, _ in model.constraints), True)
    # The forced co edges are exactly the content of the releasing
    # constraint: under its ablation the orientations it forbids must be
    # enumerated, or skipping it would be outcome-invisible.
    forced_expr = (
        None if ws.forced_released_by in skip_axioms else model.forced
    )
    # the compiled kernel calls each generated checker directly (the
    # CompiledEnv wrapper would re-resolve it per prefix)
    pre_fast = warm_fast = None
    if isinstance(static_env, CompiledEnv):
        cmodel = static_env.model
        pre_fast = [
            (label, None if f is None else cmodel.formulas[id(f)])
            for label, f in pre_eval
        ]
        warm_fast = [cmodel.warms[(id(f), co_names)] for _, f in co_eval]
    doom = model.rf_doom
    # sound only while the doomed constraint is enforced and inconsistent
    # candidates are not requested
    prune_rf = (
        doom is not None
        and doom.constraint not in skip_axioms
        and not include_inconsistent
    )
    reads, doomed = st.reads, st.doomed
    rf_bits, u = st.rf_bits, st.space

    for rf_assignment in itertools.product(*st.rf_choices):
        check_deadline()
        stats.rf_assignments += 1
        if prune_rf and any(
            pair in doomed for pair in zip(reads, rf_assignment)
        ):
            stats.rf_pruned += 1
            # the pre-check is exactly a doom proof for that constraint
            stats.record_axiom_failure(doom.constraint)
            continue
        if rf_bits is not None:
            rows = [0] * u.n
            for write, lookup in zip(rf_assignment, rf_bits):
                row, bit = lookup[write]
                rows[row] |= bit
            rf_value = BitRel._make(u, tuple(rows))
        else:
            rf_value = static_env.make_relation(
                (write, read) for read, write in zip(reads, rf_assignment)
            )
        rf_env = static_env.bind("rf", rf_value)
        if model.rf_builders:
            rf_rel = Relation(
                (write, read) for read, write in zip(reads, rf_assignment)
            )
            for name, build in model.rf_builders:
                rf_env = rf_env.bind(name, rf_env.to_kernel(build(rf_rel)))

        # Everything per-sc is valuation-independent: computed once per
        # rf choice and replayed for every valuation and co candidate.
        sc_variants = []
        for sc_order, sc_rel in st.sc_orders:
            env = rf_env if sc_order is None else rf_env.bind("sc", sc_order)
            if pre_fast is not None:
                frame = env.frame
                pre_results = {
                    label: fn is None or fn(frame.slots, frame.bindings)
                    for label, fn in pre_fast
                }
            else:
                pre_results = {
                    label: formula is None or env.formula(formula)
                    for label, formula in pre_eval
                }
            pre_ok = all(pre_results.values())
            for label, ok in pre_results.items():
                if not ok:
                    stats.record_axiom_failure(label)
            if not pre_ok and not include_inconsistent:
                stats.pre_co_pruned += 1
                continue
            co_orders = st.co_choices
            forced = None
            if co_orders is None:
                forced = st.init_forced
                if forced_expr is not None:
                    forced = forced | (env.expr(forced_expr) & st.ww_sloc)
                # with no write pairs to orient, the co enumeration always
                # yields exactly the closure of ``forced`` (when acyclic):
                # resolve it here instead of per valuation
                if not st.ms_write_pairs:
                    closed = forced.closure()
                    co_orders = [closed] if closed.is_irreflexive() else []
            # pre-evaluate the co-independent parts of the co-dependent
            # constraints: bind(co) retains them across candidates
            if warm_fast is not None:
                for fn in warm_fast:
                    fn(frame.slots, frame.bindings)
            else:
                for _, formula in co_eval:
                    env.warm(formula, co_names)
            sc_variants.append((
                env, forced, {**all_true, **pre_results}, pre_ok, sc_rel,
                co_orders,
            ))
        if sc_variants:
            yield rf_assignment, rf_value, sc_variants


def staged_candidates(
    program: Program,
    model: StagedModel,
    skip_axioms: Tuple[str, ...] = (),
    speculation_values: Sequence[int] = (),
    include_inconsistent: bool = False,
    kernel: str = DEFAULT_KERNEL,
    stats: Optional[EnumStats] = None,
    outcomes_only: bool = False,
) -> Iterator:
    """Enumerate ``model``'s candidate executions of ``program``.

    Yields a :class:`Candidate` per consistent execution, or just its
    :class:`Outcome` under ``outcomes_only``.  ``skip_axioms`` disables
    constraints by label (the fronts validate the labels);
    ``speculation_values`` enables out-of-thin-air valuations;
    ``include_inconsistent`` yields every candidate with its
    per-constraint report, disables the prunes and ignores
    ``outcomes_only``.  ``stats`` receives the enumeration counters.
    """
    stats = stats if stats is not None else EnumStats()
    st = Staging(program, model, kernel, stats)
    elab, reads, all_writes = st.elab, st.reads, st.all_writes
    orders = st.orders
    ws = model.witnesses
    co_eval = _co_checks(model, skip_axioms)
    # Residual dispatch for the compiled kernel: a co rebind is a slot
    # reset and each constraint a direct call into its generated checker
    # (the CompiledEnv wrapper would re-resolve both per candidate).  The
    # diagnostic path keeps the wrapper.
    co_fns = None
    if kernel == "compiled" and not include_inconsistent:
        cmodel = st.env.model
        co_bidx = cmodel.binding_index[ws.co_name]
        co_reset = cmodel.reset_slots[ws.co_name]
        co_fns = [(label, cmodel.formulas[id(f)]) for label, f in co_eval]
    ms_pairs = [frozenset(pair) for pair in st.ms_write_pairs]

    for rf_assignment, _, sc_variants in rf_sc_prefixes(
        st, skip_axioms, include_inconsistent
    ):
        rf_source = {
            read.eid: write.eid for read, write in zip(reads, rf_assignment)
        }
        # the plain-Relation view is only needed for yielded executions
        rf_rel: Optional[Relation] = None
        for valuation in valuations(
            elab, rf_source, st.base_values, speculation_values,
            eids=st.val_eids,
        ):
            #: shared by every consistent (sc, co) completion
            registers = None
            for env, forced, pre_report, pre_ok, sc_rel, co_orders in (
                sc_variants
            ):
                if co_orders is None:
                    co_orders = orders(ms_pairs, forced)
                if co_fns is not None:
                    slots, bindings = env.frame.slots, env.frame.bindings
                partial: Optional[Execution] = None
                for co_order in co_orders:
                    check_deadline()
                    stats.candidates_checked += 1
                    consistent = pre_ok
                    # the diagnostic path evaluates every constraint and
                    # reports each; the hot path stops at the first failure
                    report = dict(pre_report) if include_inconsistent else None
                    if co_fns is not None:
                        bindings[co_bidx] = co_order.rows
                        for i in co_reset:
                            slots[i] = None
                        for label, fn in co_fns:
                            if not fn(slots, bindings):
                                consistent = False
                                stats.record_axiom_failure(label)
                                break
                    else:
                        co_env = env.bind(ws.co_name, co_order)
                        for label, formula in co_eval:
                            if not co_env.formula(formula):
                                consistent = False
                                stats.record_axiom_failure(label)
                                if report is None:
                                    break
                                report[label] = False
                    if report is None:
                        if not consistent:
                            continue
                        if outcomes_only:
                            if registers is None:
                                registers = register_assignment(
                                    elab, valuation
                                )
                            yield Outcome(
                                registers=registers,
                                memory=co_maximal_memory(
                                    all_writes,
                                    co_order,
                                    lambda e: valuation[e.eid],
                                ),
                            )
                            continue
                        # a consistent candidate's pre-report is all true
                        report = dict(pre_report)
                    if partial is None:
                        if rf_rel is None:
                            rf_rel = Relation(
                                (write, read)
                                for read, write in zip(reads, rf_assignment)
                            )
                        partial = st.static.with_relations(
                            rf=rf_rel, sc=sc_rel
                        )
                    execution = partial.with_relations(
                        co=_as_relation(co_order)
                    )
                    yield Candidate(
                        execution=execution,
                        valuation=dict(valuation),
                        report=ConsistencyReport(
                            axioms=report, execution=execution
                        ),
                        elaboration=elab,
                        writes=all_writes,
                    )
