"""The generic zoo engine: enumerate executions for any declared model.

One staged enumeration (mirroring :mod:`repro.search.ptx_search`)
serves every :class:`~repro.zoo.model.ZooModel`:

1. build the static environment — event sets from the signature's
   predicates, base relations from its builders;
2. pick ``rf`` per read, recomputing the rf-dependent builders
   (e.g. TSO's ``rfe``);
3. pick the runtime ``sc`` fence order when the witness spec asks for
   one, and check the co-independent cat constraints once per prefix;
4. pick the coherence witness — per-location total orders (CPU-style
   ``co``/``mo``) or orientations of the morally strong write pairs
   (PTX partial style), seeded with forced edges;
5. check the remaining (co-dependent) constraints and report the
   surviving outcomes.

The cat parser inlines ``let`` definitions at parse time, so every
constraint references only base names — the environment needs exactly
the signature's bindings plus the witnesses.  The default compiled
kernel specializes the constraints per (model, test signature); the
``set`` kernel interprets them over frozensets as the reference.

Because different models disagree about which writes coherence orders
(PTX leaves morally weak write pairs unordered, so racy locations
report value *sets*), cross-model comparisons go through
:func:`concrete_observations`, which flattens each outcome into the
set of concrete final states it stands for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cat.models import load_model
from ..core.deadline import check_deadline
from ..core.execution import program_order, same_location
from ..core.scopes import mutually_inclusive
from ..lang import (
    CompiledEnv,
    compiled_model,
    program_signature,
    relation_env,
    var_deps,
)
from ..ptx.events import Event, Sem, init_write
from ..ptx.model import moral_strength
from ..ptx.program import Elaboration, Program, elaborate
from ..registry import DEFAULT_KERNEL
from ..relation import Relation
from ..search.posets import (
    oriented_orders,
    oriented_orders_incremental,
    total_orders_with_first,
)
from ..search.ptx_search import (
    EnumStats,
    Outcome,
    co_maximal_memory,
    register_assignment,
)
from ..search.values import valuations
from .model import ZooModel
from .models import resolve_zoo


# ----------------------------------------------------------------------
# event predicates (the signature's set vocabulary)
# ----------------------------------------------------------------------

PREDICATES: Dict[str, Callable[[Event], bool]] = {
    "read": lambda e: e.is_read,
    "write": lambda e: e.is_write,
    "fence": lambda e: e.is_fence,
    "release_write": lambda e: e.is_write and e.sem.releases,
    "acquire_read": lambda e: e.is_read and e.sem.acquires,
    "strong_write": lambda e: e.is_write and e.is_strong,
    "strong_read": lambda e: e.is_read and e.is_strong,
    "release_fence": lambda e: e.is_fence and e.sem.releases,
    "acquire_fence": lambda e: e.is_fence and e.sem.acquires,
    "sc_fence": lambda e: e.is_fence and e.sem is Sem.SC,
    # RC11-family classes over PTX events: strong = atomic
    "release_like": lambda e: not e.is_read and e.sem.releases,
    "acquire_like": lambda e: not e.is_write and e.sem.acquires,
    "sc_memory": lambda e: e.is_memory and e.sem is Sem.SC,
}


# ----------------------------------------------------------------------
# base-relation builders (the signature's relation vocabulary)
# ----------------------------------------------------------------------

class _BuildContext:
    """Shared per-program inputs handed to every relation builder."""

    def __init__(
        self,
        events: Tuple[Event, ...],
        init_events: Tuple[Event, ...],
        elab: Elaboration,
        po: Relation,
    ) -> None:
        self.events = events
        self.init_events = init_events
        self.elab = elab
        self.po = po
        self._sloc: Optional[Relation] = None
        self._ms: Optional[Relation] = None

    @property
    def sloc(self) -> Relation:
        if self._sloc is None:
            self._sloc = same_location(self.events)
        return self._sloc

    @property
    def ms(self) -> Relation:
        if self._ms is None:
            self._ms = moral_strength(self.events, self.po)
        return self._ms

    def init_edges(self) -> Relation:
        """Init writes ordered before every program event."""
        return Relation(
            (init, event)
            for init in self.init_events
            for event in self.elab.events
        )


def _build_incl(ctx: _BuildContext) -> Relation:
    """Scope inclusion over PTX events: distinct scoped (strong) pairs
    whose scopes mutually include each other's threads (§4.1)."""
    pairs = []
    for a in ctx.events:
        for b in ctx.events:
            if a is b or a.scope is None or b.scope is None:
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


def _build_internal(ctx: _BuildContext) -> Relation:
    """Same-thread (internal) event pairs, both directions."""
    return Relation(
        (a, b)
        for a in ctx.events
        for b in ctx.events
        if a is not b and a.thread == b.thread
    )


def _tso_fencing(ctx: _BuildContext):
    atomic_halves = {e for pair in ctx.elab.rmw for e in pair}
    return lambda e: e.is_fence or e in atomic_halves


def _build_ppo_tso(ctx: _BuildContext) -> Relation:
    """TSO preserved program order: po minus write-to-read pairs."""
    return Relation(
        (a, b)
        for a, b in ctx.po
        if a.is_memory and b.is_memory
        and not (a.is_write and b.is_read)
    )


def _build_fence_tso(ctx: _BuildContext) -> Relation:
    """TSO fence order: memory pairs with a fencing endpoint (any fence
    or atomic half, §2.2) or an intervening fence."""
    is_fencing = _tso_fencing(ctx)
    pairs = []
    for a, b in ctx.po:
        if not (a.is_memory and b.is_memory):
            continue
        if is_fencing(a) or is_fencing(b) or any(
            e.is_fence and (a, e) in ctx.po and (e, b) in ctx.po
            for e in ctx.events
        ):
            pairs.append((a, b))
    return Relation(pairs)


def _build_rfe(ctx: _BuildContext, rf: Relation) -> Relation:
    """Cross-thread (external) reads-from."""
    return Relation((w, r) for w, r in rf if w.thread != r.thread)


@dataclass(frozen=True)
class Builder:
    """One base-relation builder: ``fn(ctx)`` — or ``fn(ctx, rf)`` for
    builders that must be recomputed per reads-from choice."""

    fn: Callable
    witness_deps: FrozenSet[str] = frozenset()


BUILDERS: Dict[str, Builder] = {
    "po": Builder(lambda ctx: ctx.po),
    "sloc": Builder(lambda ctx: ctx.sloc),
    "po_loc": Builder(lambda ctx: ctx.po & ctx.sloc),
    "rmw": Builder(lambda ctx: ctx.elab.rmw),
    "dep": Builder(lambda ctx: ctx.elab.dep),
    "syncbarrier": Builder(lambda ctx: ctx.elab.syncbarrier),
    "morally_strong": Builder(lambda ctx: ctx.ms),
    # sequenced-before flavours: po extended with init-first edges, with
    # (sb_sync) or without (sb_init) the CTA execution-barrier edges
    "sb_sync": Builder(
        lambda ctx: ctx.po | ctx.init_edges() | ctx.elab.syncbarrier
    ),
    "sb_init": Builder(lambda ctx: ctx.po | ctx.init_edges()),
    "incl": Builder(_build_incl),
    "internal": Builder(_build_internal),
    "ppo_tso": Builder(_build_ppo_tso),
    "fence_tso": Builder(_build_fence_tso),
    "rfe": Builder(_build_rfe, witness_deps=frozenset({"rf"})),
}


def _as_relation(value) -> Relation:
    return value if isinstance(value, Relation) else value.to_relation()


# ----------------------------------------------------------------------
# the generic enumeration
# ----------------------------------------------------------------------

def zoo_candidates(
    model: Union[str, ZooModel],
    program: Program,
    skip_axioms: Tuple[str, ...] = (),
    speculation_values: Sequence[int] = (),
    kernel: str = DEFAULT_KERNEL,
    stats: Optional[EnumStats] = None,
) -> Iterator[Outcome]:
    """Yield the outcome of every ``model``-consistent execution.

    ``skip_axioms`` names cat constraint labels to disable (ablation);
    ``speculation_values`` enables out-of-thin-air valuations;
    ``kernel`` picks the relation representation (identical outcomes);
    ``stats`` receives enumeration counters when provided.
    """
    if isinstance(model, str):
        model = resolve_zoo(model)
    catm = load_model(model.cat)
    labels = {name for name, _ in catm.constraints}
    unknown = set(skip_axioms) - labels
    if unknown:
        raise ValueError(
            f"unknown constraint(s) {sorted(unknown)} for model "
            f"{model.name!r}; have {sorted(labels)}"
        )
    missing = set(catm.free_names) - model.bound_names()
    if missing:
        raise ValueError(
            f"cat model {model.cat!r} reads unbound name(s) "
            f"{sorted(missing)}; declare them in the event signature of "
            f"{model.name!r}"
        )

    elab = elaborate(program)
    init_events = tuple(
        init_write(eid=len(elab.events) + index, loc=loc)
        for index, loc in enumerate(program.locations)
    )
    events: Tuple[Event, ...] = elab.events + init_events
    po = program_order(elab.by_thread)
    ctx = _BuildContext(events, init_events, elab, po)
    base_values = {event.eid: 0 for event in init_events}

    reads = [e for e in elab.events if e.is_read]
    writes_by_loc: Dict[str, List[Event]] = {}
    for event in events:
        if event.is_write:
            writes_by_loc.setdefault(event.loc, []).append(event)
    init_by_loc = {event.loc: event for event in init_events}
    all_writes = [e for e in events if e.is_write]

    ws = model.witnesses
    bindings: Dict[str, Relation] = {}
    for set_name, predicate in model.signature.sets:
        pred = PREDICATES[predicate]
        bindings[set_name] = Relation.set_of(e for e in events if pred(e))
    rf_builders: List[Tuple[str, Builder]] = []
    for rel_name, builder_name in model.signature.relations:
        builder = BUILDERS[builder_name]
        if builder.witness_deps:
            rf_builders.append((rel_name, builder))
            bindings[rel_name] = Relation.empty(2)
        else:
            bindings[rel_name] = builder.fn(ctx)
    bindings["rf"] = Relation.empty(2)
    bindings[ws.co_name] = Relation.empty(2)
    if ws.sc_fences:
        bindings["sc"] = Relation.empty(2)

    stats = stats if stats is not None else EnumStats()
    co_names = frozenset((ws.co_name,))
    forced_expr = None
    if ws.co_style == "partial-ms" and ws.co_forced_from is not None:
        forced_expr = catm.definition(ws.co_forced_from)
    if kernel == "compiled":
        dynamic = (
            ("rf",)
            + tuple(name for name, _ in rf_builders)
            + (("sc",) if ws.sc_fences else ())
            + (ws.co_name,)
        )
        cmodel = compiled_model(
            key=("zoo", model.name, program_signature(program)),
            formulas=catm.constraints,
            exprs=(forced_expr,) if forced_expr is not None else (),
            dynamic=dynamic,
            mutate=co_names,
            warm_names=co_names,
            env_factory=lambda: relation_env(
                events, bindings, sets=model.signature.set_names, bitset=True
            ),
        )
        env0 = CompiledEnv(cmodel)
        orders = oriented_orders_incremental
    elif kernel == "set":
        env0 = relation_env(events, bindings)
        env0.stats = stats
        orders = oriented_orders
    else:
        raise ValueError(f"unknown relation kernel {kernel!r}")

    active = [
        (name, formula)
        for name, formula in catm.constraints
        if name not in skip_axioms
    ]
    co_dependent = [
        (name, f) for name, f in active if ws.co_name in var_deps(f)
    ]
    co_independent = [
        (name, f) for name, f in active if ws.co_name not in var_deps(f)
    ]

    empty_order = env0.make_relation(())
    sc_required: List[FrozenSet[Event]] = []
    if ws.sc_fences:
        sc_fences = [e for e in events if e.is_fence and e.sem is Sem.SC]
        sc_required = [
            frozenset((a, b))
            for a in sc_fences
            for b in sc_fences
            if a.eid < b.eid and (a, b) in ctx.ms
        ]

    ms_write_pairs: List[FrozenSet[Event]] = []
    init_forced = empty_order
    co_kernel_choices: List[object] = []
    if ws.co_style == "partial-ms":
        ms_write_pairs = [
            frozenset((a, b))
            for writes in writes_by_loc.values()
            for i, a in enumerate(writes)
            for b in writes[i + 1 :]
            if (a, b) in ctx.ms
        ]
        init_forced = env0.make_relation(
            (init, other)
            for init in init_events
            for other in writes_by_loc[init.loc]
            if other is not init
        )
    else:
        # total style: the witness space is rf/sc-independent, so the
        # per-location permutations can be enumerated (and kernelized)
        # exactly once for the whole search
        per_loc = []
        for loc, writes in sorted(writes_by_loc.items()):
            init = init_by_loc[loc]
            others = [w for w in writes if w is not init]
            per_loc.append(list(total_orders_with_first(init, others)))
        for combo in itertools.product(*per_loc):
            merged = Relation.empty(2)
            for order in combo:
                merged = merged | order
            co_kernel_choices.append(env0.to_kernel(merged))

    rf_choices = [writes_by_loc[read.loc] for read in reads]
    for rf_assignment in itertools.product(*rf_choices):
        check_deadline()
        stats.rf_assignments += 1
        rf_source = {
            read.eid: write.eid for read, write in zip(reads, rf_assignment)
        }
        rf_rel = Relation(
            (write, read) for read, write in zip(reads, rf_assignment)
        )
        env_rf = env0.bind("rf", env0.to_kernel(rf_rel))
        for rel_name, builder in rf_builders:
            env_rf = env_rf.bind(
                rel_name, env_rf.to_kernel(builder.fn(ctx, rf_rel))
            )

        if ws.sc_fences:
            sc_orders = orders(sc_required, empty_order)
            variants = [
                (env_rf.bind("sc", order),) for order in sc_orders
            ]
        else:
            variants = [(env_rf,)]
        checked = []
        for (env_sc,) in variants:
            if not all(env_sc.formula(f) for _, f in co_independent):
                stats.pre_co_pruned += 1
                continue
            forced = init_forced
            if forced_expr is not None:
                cause = env_sc.expr(forced_expr)
                forced = forced | env_sc.make_relation(
                    (a, b)
                    for a, b in cause
                    if a.is_write and b.is_write and a.loc == b.loc
                )
            for _, f in co_dependent:
                env_sc.warm(f, co_names)
            checked.append((env_sc, forced))
        if not checked:
            continue

        for valuation in valuations(
            elab, rf_source, base_values, speculation_values
        ):
            for env_sc, forced in checked:
                if ws.co_style == "partial-ms":
                    co_orders = orders(ms_write_pairs, forced)
                else:
                    co_orders = iter(co_kernel_choices)
                for co_order in co_orders:
                    check_deadline()
                    stats.candidates_checked += 1
                    env_co = env_sc.bind(ws.co_name, co_order)
                    if all(env_co.formula(f) for _, f in co_dependent):
                        co_rel = _as_relation(co_order)
                        yield Outcome(
                            registers=register_assignment(elab, valuation),
                            memory=co_maximal_memory(
                                all_writes,
                                co_rel,
                                lambda e: valuation[e.eid],
                            ),
                        )


def zoo_outcomes(
    model: Union[str, ZooModel],
    program: Program,
    skip_axioms: Tuple[str, ...] = (),
    speculation_values: Sequence[int] = (),
    kernel: str = DEFAULT_KERNEL,
    stats: Optional[EnumStats] = None,
) -> FrozenSet[Outcome]:
    """All outcomes of ``model``-consistent executions of ``program``."""
    return frozenset(
        zoo_candidates(
            model,
            program,
            skip_axioms=skip_axioms,
            speculation_values=speculation_values,
            kernel=kernel,
            stats=stats,
        )
    )


# ----------------------------------------------------------------------
# cross-model observation equality
# ----------------------------------------------------------------------

def concrete_observations(
    outcomes: FrozenSet[Outcome],
) -> FrozenSet[Tuple[tuple, tuple]]:
    """Flatten outcomes into the concrete final states they stand for.

    Models disagree about which writes coherence *orders*: PTX's partial
    co leaves morally weak write pairs unordered, so a racy location
    reports a value **set** (§8.8.6), where a total-co model (TSO, SC,
    RC11's ``mo``) always reports a singleton.  The raw outcome objects
    are therefore incomparable across witness styles even when the
    observable behaviours coincide.  Concretizing — registers as-is,
    final memory expanded to every per-location value choice — yields
    the set of concrete final states, which *is* comparable: containment
    claims and the conformance matrix both operate on this form.
    """
    observations = set()
    for outcome in outcomes:
        locations = [loc for loc, _ in outcome.memory]
        value_choices = [sorted(values) for _, values in outcome.memory]
        for combo in itertools.product(*value_choices):
            observations.add(
                (outcome.registers, tuple(zip(locations, combo)))
            )
    return frozenset(observations)
