"""The generic zoo engine: any declared model on the staged loop.

Every :class:`~repro.zoo.model.ZooModel` runs on the staged rf → sc → co
enumeration the native PTX engine uses
(:func:`repro.search.staged.staged_candidates`).  This module translates
a declaration into a :class:`~repro.search.staged.StagedModel`: the
spec's axioms become the constraint list (``co_forced_from`` resolves to
the derived relation it names), the static environment binds the
signature's event sets (:data:`PREDICATES`) and base relations
(:data:`BUILDERS`; the rf-dependent ones, e.g. TSO's ``rfe``, are
rebuilt per reads-from choice), and the declared
:class:`~repro.zoo.model.RfDoom` is the loop's rf-stage prune.  Spec
ASTs are inlined (each derived relation is a Python value), so
constraints reference only the signature's names and the witnesses.

Because different models disagree about which writes coherence orders
(PTX leaves morally weak write pairs unordered, so racy locations
report value *sets*), cross-model comparisons go through
:func:`concrete_observations`, which flattens each outcome into the
set of concrete final states it stands for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cat.models import load_model
from ..core.execution import same_location
from ..core.scopes import mutually_inclusive
from ..lang import relation_env
from ..ptx.events import Event, Sem
from ..ptx.model import moral_strength
from ..ptx.program import Program
from ..registry import DEFAULT_KERNEL
from ..relation import Relation
from ..search.records import EnumStats, Outcome
from ..search.staged import Staging, StagedModel, staged_candidates
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

def _init_edges(st: Staging) -> Relation:
    """Init writes ordered before every program event."""
    return Relation(
        (init, event) for init in st.init_events for event in st.elab.events
    )


def _build_incl(st: Staging) -> Relation:
    """Scope inclusion over PTX events: distinct scoped (strong) pairs
    whose scopes mutually include each other's threads (§4.1)."""
    pairs = []
    for a in st.events:
        for b in st.events:
            if a is b or a.scope is None or b.scope is None:
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


def _build_internal(st: Staging) -> Relation:
    """Same-thread (internal) event pairs, both directions."""
    return Relation(
        (a, b)
        for a in st.events
        for b in st.events
        if a is not b and a.thread == b.thread
    )


def _tso_fencing(st: Staging):
    atomic_halves = {e for pair in st.elab.rmw for e in pair}
    return lambda e: e.is_fence or e in atomic_halves


def _build_ppo_tso(st: Staging) -> Relation:
    """TSO preserved program order: po minus write-to-read pairs."""
    return Relation(
        (a, b)
        for a, b in st.po
        if a.is_memory and b.is_memory
        and not (a.is_write and b.is_read)
    )


def _build_fence_tso(st: Staging) -> Relation:
    """TSO fence order: memory pairs with a fencing endpoint (any fence
    or atomic half, §2.2) or an intervening fence."""
    is_fencing = _tso_fencing(st)
    pairs = []
    for a, b in st.po:
        if not (a.is_memory and b.is_memory):
            continue
        if is_fencing(a) or is_fencing(b) or any(
            e.is_fence and (a, e) in st.po and (e, b) in st.po
            for e in st.events
        ):
            pairs.append((a, b))
    return Relation(pairs)


def _build_rfe(rf: Relation) -> Relation:
    """Cross-thread (external) reads-from."""
    return Relation((w, r) for w, r in rf if w.thread != r.thread)


@dataclass(frozen=True)
class Builder:
    """One base-relation builder: ``fn(staging)`` over the program's
    :class:`~repro.search.staged.Staging` — or ``fn(rf)`` for builders
    that must be recomputed per reads-from choice."""

    fn: Callable
    witness_deps: FrozenSet[str] = frozenset()


BUILDERS: Dict[str, Builder] = {
    "po": Builder(lambda st: st.po),
    "sloc": Builder(lambda st: same_location(st.events)),
    "po_loc": Builder(lambda st: st.po & same_location(st.events)),
    "rmw": Builder(lambda st: st.elab.rmw),
    "dep": Builder(lambda st: st.elab.dep),
    "syncbarrier": Builder(lambda st: st.elab.syncbarrier),
    "morally_strong": Builder(lambda st: moral_strength(st.events, st.po)),
    # sequenced-before flavours: po extended with init-first edges, with
    # (sb_sync) or without (sb_init) the CTA execution-barrier edges
    "sb_sync": Builder(
        lambda st: st.po | _init_edges(st) | st.elab.syncbarrier
    ),
    "sb_init": Builder(lambda st: st.po | _init_edges(st)),
    "incl": Builder(_build_incl),
    "internal": Builder(_build_internal),
    "ppo_tso": Builder(_build_ppo_tso),
    "fence_tso": Builder(_build_fence_tso),
    "rfe": Builder(_build_rfe, witness_deps=frozenset({"rf"})),
}


# ----------------------------------------------------------------------
# the zoo front of the staged enumeration
# ----------------------------------------------------------------------

def _static_env(model: ZooModel, staging: Staging, bitset: bool):
    """The signature's static bindings over one program."""
    events = staging.events
    bindings: Dict[str, Relation] = {}
    for set_name, predicate in model.signature.sets:
        pred = PREDICATES[predicate]
        bindings[set_name] = Relation.set_of(e for e in events if pred(e))
    # the witnesses and rf-dependent relations are bound by the loop
    for rel_name, builder_name in model.signature.relations:
        builder = BUILDERS[builder_name]
        if not builder.witness_deps:
            bindings[rel_name] = builder.fn(staging)
    return relation_env(
        events, bindings, sets=model.signature.set_names, bitset=bitset
    )


@functools.lru_cache(maxsize=64)
def _staged_model(model: ZooModel) -> StagedModel:
    """``model`` as the staged enumeration runs it (built once)."""
    catm = load_model(model.cat)
    ws = model.witnesses
    return StagedModel(
        constraints=tuple(catm.constraints),
        witnesses=ws,
        env_factory=functools.partial(_static_env, model),
        compile_key=("zoo", model.name),
        forced=(
            catm.definition(ws.co_forced_from)
            if ws.co_forced_from is not None else None
        ),
        rf_builders=tuple(
            (rel_name, BUILDERS[builder_name].fn)
            for rel_name, builder_name in model.signature.relations
            if BUILDERS[builder_name].witness_deps
        ),
        rf_doom=model.rf_doom,
    )


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
    yield from staged_candidates(
        program,
        _staged_model(model),
        skip_axioms=skip_axioms,
        speculation_values=speculation_values,
        kernel=kernel,
        stats=stats,
        outcomes_only=True,
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
