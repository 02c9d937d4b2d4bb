"""Exhaustive enumeration of consistent PTX executions of a program.

This is the library's herd-style litmus engine: given a straight-line PTX
program it enumerates every candidate execution — all reads-from choices,
all runtime Fence-SC orders, all runtime (partial) coherence orders — and
filters them through the six Figure 7 axioms.  The surviving candidates
determine the program's allowed outcomes.

Enumeration order matters for efficiency and mirrors the dependency
structure of the model:

1. pick ``rf`` (which also fixes all values, via :mod:`.values`),
   discarding assignments whose per-location coherence conflict (a
   morally strong read-from-po-later-write) already dooms
   SC-per-Location for every co;
2. pick ``sc`` — orientations of morally strong ``fence.sc`` pairs;
3. compute ``cause`` and check the co-*independent* axioms once, derive
   the edges that Axiom 1 forces into ``co``;
4. pick ``co`` — orientations of the remaining morally strong write pairs,
   seeded with init-write edges and the cause-forced edges;
5. check the co-*dependent* axioms only.

The default ``kernel="compiled"`` runs the axioms as per-test
specialized functions over the dense bitset kernel
(:mod:`repro.lang.compile`, :mod:`repro.relation.bitrel`): binding ``co``
keeps every co-independent value, so each co candidate costs only the
genuinely co-dependent evaluations.  ``kernel="set"`` interprets the
spec over frozenset relations — the reference the kernel-agreement tests
and the kernel benchmark compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.deadline import check_deadline
from ..core.execution import Execution, program_order
from ..core.scopes import ThreadId
from ..lang import (
    CompiledEnv,
    Irreflexive,
    compiled_model,
    program_signature,
    rel,
    var_deps,
)
from ..ptx import spec
from ..ptx.events import Event, Sem, init_write
from ..ptx.model import ConsistencyReport, build_env
from ..ptx.program import Elaboration, Program, elaborate
from ..registry import DEFAULT_KERNEL
from ..relation import BitRel, Relation
from .posets import oriented_orders, oriented_orders_incremental
from .records import EnumStats, Outcome, register_sort_key
from .values import valuations


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


#: axioms that mention ``co`` and therefore need re-evaluation per co
#: candidate; the rest are decided once per (rf, sc) prefix.
_CO_DEPENDENT: FrozenSet[str] = frozenset(
    name for name, axiom in spec.AXIOMS.items() if "co" in var_deps(axiom)
)


def _as_relation(value) -> Relation:
    """A plain :class:`Relation` from either kernel's value."""
    return value if isinstance(value, Relation) else value.to_relation()


_CO_NAMES: FrozenSet[str] = frozenset(("co",))

#: ``irreflexive(rf ; cause)`` — the rf-check engine's per-(rf, sc)
#: admissibility formula.  Defined here (sharing the spec's ``cause``
#: node) so ptx_search and rf_check compile against one instance per
#: (model, test-signature).
RF_CAUSALITY = Irreflexive(rel("rf") @ spec.DERIVED["cause"])


def compiled_ptx_env(program: Program, static: Execution) -> CompiledEnv:
    """A :class:`CompiledEnv` over the PTX axioms for one program.

    Instances are cached by ``("ptx", program signature)`` and shared
    with the rf-check engine, which evaluates the same axioms (plus
    :data:`RF_CAUSALITY`) over the same staging.
    """
    model = compiled_model(
        key=("ptx", program_signature(program)),
        formulas=tuple(spec.AXIOMS.items())
        + (("__rf_causality__", RF_CAUSALITY),),
        exprs=(spec.DERIVED["cause"],),
        dynamic=("rf", "sc", "co"),
        mutate=_CO_NAMES,
        warm_names=_CO_NAMES,
        env_factory=lambda: build_env(static, bitset=True),
    )
    return CompiledEnv(model)


def static_ptx_env(program: Program, static: Execution, kernel: str, stats):
    """The static environment and orientation enumerator for ``kernel``.

    ``compiled`` shares the cached :func:`compiled_ptx_env` instance;
    ``set`` interprets the spec over frozensets and reports its memo
    behaviour to ``stats``.
    """
    if kernel == "compiled":
        return compiled_ptx_env(program, static), oriented_orders_incremental
    if kernel != "set":
        raise ValueError(f"unknown relation kernel {kernel!r}")
    env = build_env(static)
    env.stats = stats
    return env, oriented_orders


def candidate_executions(
    program: Program,
    skip_axioms: Tuple[str, ...] = (),
    speculation_values: Sequence[int] = (),
    include_inconsistent: bool = False,
    kernel: str = DEFAULT_KERNEL,
    stats: Optional[EnumStats] = None,
    outcomes_only: bool = False,
) -> Iterator[Candidate]:
    """Enumerate candidate executions of ``program``.

    By default only axiom-consistent executions are yielded.
    ``skip_axioms`` disables individual axioms (ablation);
    ``speculation_values`` enables out-of-thin-air valuations (Figure 8);
    ``include_inconsistent`` yields every candidate with its per-axiom
    report attached (useful for diagnostics and tests) and disables the
    early pruning stages; ``kernel`` picks the relation representation
    (outcomes and reports are identical for both); ``stats`` receives
    enumeration counters when provided.

    ``outcomes_only`` yields each consistent candidate's
    :class:`Outcome` instead of a :class:`Candidate`, skipping the
    per-candidate :class:`Execution`/report materialization —
    :func:`allowed_outcomes` discards those anyway.  Enumeration order,
    pruning, and ``stats`` counters are unchanged.  Ignored under
    ``include_inconsistent``.

    Raises ``ValueError`` (on first iteration) for a ``skip_axioms``
    name outside ``spec.AXIOMS``: a misspelt name would otherwise
    silently run the un-ablated experiment.
    """
    unknown = sorted(set(skip_axioms) - set(spec.AXIOMS))
    if unknown:
        raise ValueError(
            f"unknown axiom(s) {unknown} in skip_axioms; "
            f"valid axioms: {', '.join(spec.AXIOMS)}"
        )
    elab = elaborate(program)
    init_events = tuple(
        init_write(eid=len(elab.events) + index, loc=loc)
        for index, loc in enumerate(program.locations)
    )
    events: Tuple[Event, ...] = elab.events + init_events
    po = program_order(elab.by_thread)
    base_values = {event.eid: 0 for event in init_events}

    reads = [e for e in elab.events if e.is_read]
    all_writes = tuple(e for e in events if e.is_write)
    writes_by_loc: Dict[str, List[Event]] = {}
    for event in all_writes:
        writes_by_loc.setdefault(event.loc, []).append(event)

    sc_fences = [e for e in events if e.is_fence and e.sem is Sem.SC]

    static = Execution(
        events=events,
        relations={
            "po": po,
            "rf": Relation.empty(2),
            "co": Relation.empty(2),
            "sc": Relation.empty(2),
            "rmw": elab.rmw,
            "dep": elab.dep,
            "syncbarrier": elab.syncbarrier,
        },
    )
    stats = stats if stats is not None else EnumStats()
    static_env, orders = static_ptx_env(program, static, kernel, stats)
    ms = static_env.lookup("morally_strong")
    po_loc = static_env.lookup("po_loc")

    sc_required = [
        frozenset((a, b))
        for a in sc_fences
        for b in sc_fences
        if a.eid < b.eid and (a, b) in ms
    ]

    ms_write_pairs = [
        frozenset((a, b))
        for loc, writes in writes_by_loc.items()
        for i, a in enumerate(writes)
        for b in writes[i + 1 :]
        if (a, b) in ms
    ]
    init_forced = static_env.make_relation(
        (init, other)
        for init in init_events
        for other in writes_by_loc[init.loc]
        if other is not init
    )
    # init edges seed every ``forced`` the co enumerator sees, so pairs
    # they already orient can never come up undecided: drop them once
    # here instead of per enumeration (often emptying the list entirely)
    init_closed = init_forced.closure()
    ms_write_pairs = [
        pair for pair in ms_write_pairs
        if not any(
            (a, b) in init_closed for a, b in itertools.permutations(pair, 2)
        )
    ]
    empty_order = static_env.make_relation(())
    # Same-location write-pair mask (diagonal included): under a bitset
    # kernel, restricting ``cause`` to co-seed pairs is one AND against
    # this mask instead of a per-(rf, sc) pair-filtering loop.
    ww_sloc: Optional[BitRel] = None
    if isinstance(empty_order, BitRel):
        u = empty_order.u
        rows = [0] * u.n
        for group in writes_by_loc.values():
            group_mask = 0
            for event in group:
                group_mask |= 1 << u.index[event]
            for event in group:
                rows[u.index[event]] = group_mask
        ww_sloc = BitRel._make(u, tuple(rows))
    cause_expr = spec.DERIVED["cause"]
    co_dependent_axioms = [
        spec.AXIOMS[name]
        for name in _CO_DEPENDENT
        if name not in skip_axioms
    ]
    #: the per-candidate checks, in spec.AXIOMS order, minus skipped ones
    co_eval = [
        (name, axiom)
        for name, axiom in spec.AXIOMS.items()
        if name in _CO_DEPENDENT and name not in skip_axioms
    ]
    #: a consistent candidate's report: every axiom holds (skipped count
    #: as holding), so the dict is shared and copied per candidate
    all_true = dict.fromkeys(spec.AXIOMS, True)
    # Residual dispatch for the innermost loop: under the compiled
    # kernel the co rebind is a slot reset and each axiom a direct call
    # into its generated checker — the CompiledEnv wrapper would only
    # re-resolve both per candidate.
    co_fast = None
    pre_fast = None
    warm_fast = None
    if kernel == "compiled":
        cmodel = static_env.model
        co_fast = (
            cmodel.binding_index["co"],
            cmodel.reset_slots["co"],
            [(name, cmodel.formulas[id(axiom)]) for name, axiom in co_eval],
        )
        # the same direct dispatch for the per-(rf, sc) stage: skipped
        # axioms keep their evaluation-free True, mirroring the
        # interpreted loop below
        pre_fast = [
            (
                name,
                None if name in skip_axioms
                else cmodel.formulas[id(axiom)],
            )
            for name, axiom in spec.AXIOMS.items()
            if name not in _CO_DEPENDENT
        ]
        warm_fast = [
            cmodel.warms[(id(axiom), _CO_NAMES)]
            for axiom in co_dependent_axioms
        ]
    # A read taking its value from a po-later overlapping write forms a
    # morally strong (ms ∩ rf) / po_loc 2-cycle: SC-per-Location then
    # fails for every sc/co completion, so the whole rf assignment can be
    # discarded up front.  Only sound when that axiom is enforced and
    # inconsistent candidates are not requested.
    prune_rf = (
        "SC-per-Location" not in skip_axioms and not include_inconsistent
    )
    # the doom test is rf-independent per (read, write) pair: resolve the
    # two kernel-relation probes once instead of per rf assignment
    doomed = frozenset(
        (read, write)
        for read in reads
        for write in writes_by_loc[read.loc]
        if (read, write) in po_loc and (read, write) in ms
    )
    val_eids = sorted(
        {read.eid for read in reads}
        | set(elab.write_recipe) | set(base_values)
    )

    # The sc enumeration is rf-independent (required pairs come from the
    # static morally-strong fence pairs; nothing is forced), so the order
    # list is materialized once and replayed for every rf assignment.
    sc_orders = [
        (order, _as_relation(order))
        for order in orders(sc_required, empty_order)
    ]

    rf_choices = [writes_by_loc[read.loc] for read in reads]
    # under a bitset kernel the rf relation is rebuilt for every
    # assignment; resolving each (write, read) pair to its (row, bit)
    # contribution once turns that into a handful of shifts
    rf_bits = None
    if ww_sloc is not None:
        u = ww_sloc.u
        rf_bits = [
            {
                write: (u.index[write], 1 << u.index[read])
                for write in writes_by_loc[read.loc]
            }
            for read in reads
        ]
    for rf_assignment in itertools.product(*rf_choices):
        check_deadline()
        stats.rf_assignments += 1
        if prune_rf and any(
            pair in doomed for pair in zip(reads, rf_assignment)
        ):
            stats.rf_pruned += 1
            # the pre-check is exactly an SC-per-Location doom proof
            stats.record_axiom_failure("SC-per-Location")
            continue
        rf_source = {
            read.eid: write.eid for read, write in zip(reads, rf_assignment)
        }
        rf_pairs = tuple(
            (write, read) for read, write in zip(reads, rf_assignment)
        )
        # the plain-Relation view is only needed for yielded executions;
        # most rf assignments die before producing one
        rf_rel: Optional[Relation] = None
        # rebind only the witness relations: the derived sets,
        # sloc/po_loc and moral strength are rf/sc/co-independent,
        # so the statically built environment can be reused.
        if rf_bits is not None:
            rows = [0] * u.n
            for write, lookup in zip(rf_assignment, rf_bits):
                row, bit = lookup[write]
                rows[row] |= bit
            rf_value = BitRel._make(u, tuple(rows))
        else:
            rf_value = static_env.make_relation(rf_pairs)
        rf_env = static_env.bind("rf", rf_value)

        # Everything per-sc is valuation-independent: compute it once per
        # rf choice and replay it inside the valuation loop.
        sc_variants = []
        for sc_order, sc_rel in sc_orders:
            env = rf_env.bind("sc", sc_order)
            pre_results: Dict[str, bool] = {}
            pre_ok = True
            if pre_fast is not None:
                frame = env.frame
                slots = frame.slots
                bindings = frame.bindings
                for name, fn in pre_fast:
                    ok = fn is None or fn(slots, bindings)
                    pre_results[name] = ok
                    pre_ok = pre_ok and ok
                    if not ok:
                        stats.record_axiom_failure(name)
            else:
                for name, axiom in spec.AXIOMS.items():
                    if name in _CO_DEPENDENT:
                        continue
                    ok = name in skip_axioms or env.formula(axiom)
                    pre_results[name] = ok
                    pre_ok = pre_ok and ok
                    if not ok:
                        stats.record_axiom_failure(name)
            if not pre_ok and not include_inconsistent:
                stats.pre_co_pruned += 1
                continue
            cause = env.expr(cause_expr)
            if "Coherence" in skip_axioms:
                # Seeding cause-implied co edges is exactly the content of
                # the Coherence axiom; under ablation the violating co
                # orientations must actually be enumerated or skipping the
                # axiom would be outcome-invisible.
                forced = init_forced
            elif ww_sloc is not None:
                forced = init_forced | (cause & ww_sloc)
            else:
                cause_forced = [
                    (a, b)
                    for a, b in cause
                    if a.is_write and b.is_write and a.loc == b.loc
                ]
                forced = init_forced | env.make_relation(cause_forced)
            # pre-evaluate the co-independent parts of the co-dependent
            # axioms (e.g. the causality left-hand sides): bind("co")
            # retains them, so each co candidate pays only for what
            # genuinely changed.
            if warm_fast is not None:
                for fn in warm_fast:
                    fn(frame.slots, frame.bindings)
            else:
                for axiom in co_dependent_axioms:
                    env.warm(axiom, _CO_NAMES)
            # with no write pairs to orient, the co enumeration always
            # yields exactly the closure of ``forced`` (when acyclic):
            # resolve it here instead of re-deriving it per valuation
            co_orders: Optional[List] = None
            if not ms_write_pairs:
                closed = forced.closure()
                co_orders = [closed] if closed.is_irreflexive() else []
            sc_variants.append((
                sc_order, env, forced, pre_results,
                all(pre_results.values()), sc_rel, co_orders,
            ))

        if not sc_variants:
            continue
        for valuation in valuations(
            elab, rf_source, base_values, speculation_values, eids=val_eids
        ):
            #: outcome ingredients shared by every consistent (sc, co)
            #: completion of this valuation
            registers = None
            for (sc_order, env, forced, pre_results, pre_ok, sc_rel,
                 co_orders) in sc_variants:
                if co_orders is None:
                    co_orders = orders(ms_write_pairs, forced)
                partial: Optional[Execution] = None
                if not include_inconsistent:
                    # Hot path: every surviving variant has pre_ok (the
                    # sc loop pruned the rest), a consistent candidate's
                    # report is all-True, and a rejected one is dropped
                    # at its first failing axiom.
                    if co_fast is not None:
                        co_bidx, co_reset, co_fns = co_fast
                        frame = env.frame
                        slots = frame.slots
                        bindings = frame.bindings
                    for co_order in co_orders:
                        check_deadline()
                        stats.candidates_checked += 1
                        consistent = True
                        if co_fast is not None:
                            bindings[co_bidx] = co_order.rows
                            for i in co_reset:
                                slots[i] = None
                            for name, fn in co_fns:
                                if not fn(slots, bindings):
                                    consistent = False
                                    stats.record_axiom_failure(name)
                                    break
                        else:
                            co_env = env.bind("co", co_order)
                            for name, axiom in co_eval:
                                if not co_env.formula(axiom):
                                    consistent = False
                                    stats.record_axiom_failure(name)
                                    break
                        if consistent:
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
                            if partial is None:
                                if rf_rel is None:
                                    rf_rel = Relation(rf_pairs)
                                partial = static.with_relations(
                                    rf=rf_rel, sc=sc_rel
                                )
                            execution = partial.with_relations(
                                co=_as_relation(co_order)
                            )
                            yield Candidate(
                                execution=execution,
                                valuation=dict(valuation),
                                report=ConsistencyReport(
                                    axioms=dict(all_true),
                                    execution=execution,
                                ),
                                elaboration=elab,
                                writes=all_writes,
                            )
                    continue
                # diagnostic path: evaluate every axiom and attach the
                # full per-axiom report, consistent or not
                for co_order in co_orders:
                    check_deadline()
                    co_env = env.bind("co", co_order)
                    stats.candidates_checked += 1
                    co_results: Dict[str, bool] = {}
                    consistent = pre_ok
                    for name, axiom in spec.AXIOMS.items():
                        if name not in _CO_DEPENDENT:
                            continue
                        ok = name in skip_axioms or co_env.formula(axiom)
                        co_results[name] = ok
                        if not ok:
                            consistent = False
                            stats.record_axiom_failure(name)
                    results = {
                        name: co_results.get(name, pre_results.get(name))
                        for name in spec.AXIOMS
                    }
                    if partial is None:
                        if rf_rel is None:
                            rf_rel = Relation(rf_pairs)
                        partial = static.with_relations(
                            rf=rf_rel, sc=sc_rel
                        )
                    execution = partial.with_relations(
                        co=_as_relation(co_order)
                    )
                    report = ConsistencyReport(
                        axioms=results, execution=execution
                    )
                    yield Candidate(
                        execution=execution,
                        valuation=dict(valuation),
                        report=report,
                        elaboration=elab,
                        writes=all_writes,
                    )


def allowed_outcomes(
    program: Program,
    skip_axioms: Tuple[str, ...] = (),
    speculation_values: Sequence[int] = (),
    kernel: str = DEFAULT_KERNEL,
    stats: Optional[EnumStats] = None,
) -> FrozenSet[Outcome]:
    """All outcomes of axiom-consistent executions of ``program``."""
    return frozenset(
        candidate_executions(
            program,
            skip_axioms=skip_axioms,
            speculation_values=speculation_values,
            kernel=kernel,
            stats=stats,
            outcomes_only=True,
        )
    )
