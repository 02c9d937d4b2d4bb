"""The generic zoo engine: any declared model on the staged loop.

Every :class:`~repro.zoo.model.ZooModel` runs on the staged rf → sc → co
enumeration (:func:`repro.search.staged.staged_candidates`).  This
module translates a declaration into a
:class:`~repro.search.staged.StagedModel`: the
spec's axioms become the constraint list (``co_forced_from`` resolves to
the derived relation it names), the static environment binds the
signature's event sets and base relations from the program's one
vocabulary (:mod:`repro.ptx.static`; the rf-dependent relations, e.g.
TSO's ``rfe``, are rebuilt per reads-from choice), and the declared
:class:`~repro.zoo.model.RfDoom` is the loop's rf-stage prune.  Spec
ASTs are inlined (each derived relation is a Python value), so
constraints reference only the signature's names and the witnesses.

PTX is one of these declarations: :func:`staged_model` of
:data:`~repro.zoo.models.PTX` is the model the PTX front
(:mod:`repro.search.ptx_search`) and the rf-check engine run, and it
compiles :data:`RF_CAUSALITY` alongside the axioms so both share one
compiled instance per program signature.

Because different models disagree about which writes coherence orders
(PTX leaves morally weak write pairs unordered, so racy locations
report value *sets*), cross-model comparisons go through
:func:`concrete_observations`, which flattens each outcome into the
set of concrete final states it stands for.
"""

from __future__ import annotations

import functools
import itertools
from typing import (
    FrozenSet,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cat.models import load_model
from ..lang import Irreflexive, rel
from ..ptx.program import Program
# the vocabulary tables stay importable from here
from ..ptx.static import BUILDERS, PREDICATES, signature_env  # noqa: F401
from ..registry import DEFAULT_KERNEL
from ..search.records import EnumStats, Outcome
from ..search.staged import StagedModel, staged_candidates
from .model import ZooModel
from .models import PTX, resolve_zoo

#: ``irreflexive(rf ; cause)`` — the rf-check engine's per-(rf, sc)
#: admissibility constraint, compiled with PTX's axioms (sharing the
#: spec's ``cause`` node) and checked by rf-check alone
RF_CAUSALITY = Irreflexive(
    rel("rf") @ load_model(PTX.cat).definition("cause")
)


@functools.lru_cache(maxsize=64)
def staged_model(model: ZooModel) -> StagedModel:
    """``model`` as the staged enumeration runs it (built once)."""
    catm = load_model(model.cat)
    ws = model.witnesses
    return StagedModel(
        constraints=tuple(catm.constraints),
        witnesses=ws,
        env_factory=functools.partial(signature_env, model.signature),
        compile_key=("zoo", model.name),
        forced=(
            catm.definition(ws.co_forced_from)
            if ws.co_forced_from is not None else None
        ),
        extra_formulas=(
            (("__rf_causality__", RF_CAUSALITY),) if model is PTX else ()
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
    labels = [name for name, _ in catm.constraints]
    unknown = sorted(set(skip_axioms) - set(labels))
    if unknown:
        raise ValueError(
            f"unknown axiom(s) {unknown} in skip_axioms of model "
            f"{model.name!r}; valid axioms: {', '.join(labels)}"
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
        staged_model(model),
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
