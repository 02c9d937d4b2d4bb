"""One registry for memory models and decision engines.

Every layer that used to hard-code ``if/elif`` chains over model or
engine names — the runner's dispatch, the CLI's ``choices=`` lists, the
fuzz oracle's engine battery, the serving layer's request validation —
consults this module instead.  ``MODELS`` and ``ENGINES`` are *data*:
adding a model or engine means adding one spec here, and every consumer
(dispatch, validation, help text, capability gating) picks it up.

Unknown names raise :class:`UnknownNameError` with one uniform message
listing the valid choices, wherever the name enters the system (config
construction, CLI, HTTP request, compare search).

Capability flags drive uniform gating:

* ``ptx_only`` — the engine's encoding exists only for the PTX model;
  requesting it with another model is one error, raised in one place;
* ``supports_outcomes`` — the engine reports the full outcome set (the
  strong differential comparison); ``symbolic`` answers only the
  condition;
* ``certifiable`` — the engine natively produces checkable proof
  artifacts (DRAT traces / witnesses).  ``certify=True`` runs route
  eligible tests through the certifiable engine regardless of the
  configured one.

Import discipline: the spec ``run`` callables import their engines
lazily, so importing the registry (and therefore
:mod:`repro.litmus.config`) stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple


class UnknownNameError(KeyError, ValueError):
    """An unrecognized model or engine name.

    Subclasses both ``KeyError`` and ``ValueError`` so call sites that
    historically raised either keep their contracts; the message is the
    single uniform rendering either way.
    """

    def __init__(self, kind: str, name: str, valid) -> None:
        self.kind = kind
        self.name = name
        self.valid = tuple(sorted(valid))
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"unknown {self.kind} {self.name!r}; "
            f"valid {self.kind}s: {', '.join(self.valid)}"
        )


# ----------------------------------------------------------------------
# relation kernels
# ----------------------------------------------------------------------

#: Relation kernels the enumerative searches understand.  Verdicts and
#: outcome sets are kernel-independent by construction (the agreement
#: tests pin this); the choice only moves the time/space trade-off.
#: Models whose ``ModelSpec.enumerative`` is False (operational machines,
#: the legacy PTX variant) have no kernel surface and silently ignore the
#: configured kernel.
KERNELS: Dict[str, str] = {
    "set": "hashed tuple-set relations (reference semantics)",
    "compiled": "per-test specialized axiom checkers (repro.lang.compile)",
}

#: The kernel every configuration, CLI flag and engine signature
#: defaults to; ``set`` is its reference oracle.
DEFAULT_KERNEL = "compiled"


def kernel_names() -> Tuple[str, ...]:
    """Every relation kernel name, in registration order."""
    return tuple(KERNELS)


def resolve_kernel(name: str) -> str:
    """Validate a kernel name, or the one uniform unknown-name error."""
    if name not in KERNELS:
        raise UnknownNameError("kernel", name, KERNELS)
    return name


# ----------------------------------------------------------------------
# model outcome functions (lazy imports: keep the registry import-light)
# ----------------------------------------------------------------------

def _ptx_outcomes(program, **opts):
    from .search.ptx_search import allowed_outcomes

    return allowed_outcomes(program, **opts)


def _ptx_legacy_outcomes(program, **opts):
    from .ptx.legacy import legacy_allowed_outcomes

    return legacy_allowed_outcomes(program, **opts)


def _sc_op_outcomes(program, **opts):
    from .operational import sc_operational_outcomes

    return sc_operational_outcomes(program)


def _tso_op_outcomes(program, **opts):
    from .operational import tso_operational_outcomes

    return tso_operational_outcomes(program)


def _zoo_run(name: str) -> Callable:
    """The generic zoo enumeration, curried on the declared model."""

    def run(program, **opts):
        from .zoo.engine import zoo_outcomes

        return zoo_outcomes(name, program, **opts)

    return run


@dataclass(frozen=True)
class ModelSpec:
    """One memory model: its outcome function plus its option surface."""

    name: str
    #: ``(program, **opts) -> FrozenSet[Outcome]``
    run: Callable = field(repr=False)
    #: search options the model's engine understands
    opts: FrozenSet[str] = frozenset()
    #: PTX-only options tolerated and dropped (a test tagged with e.g.
    #: ``skip_axioms`` must still be runnable under tso/sc)
    ignored_opts: FrozenSet[str] = frozenset()
    #: ``run`` is a candidate enumeration: it accepts ``kernel=`` (any
    #: of :data:`KERNELS`) and a ``stats=EnumStats()`` observability
    #: sink; False means the configured kernel is ignored
    enumerative: bool = False
    #: the model has a symbolic (SAT) encoding — certify-eligible
    symbolic: bool = False
    #: the :mod:`repro.zoo` declaration backing this spec, if any
    zoo: Optional[str] = None
    description: str = ""


#: zoo models with a dedicated engine: the declaration still defines the
#: option surface and claims, but dispatch goes to the optimized native
#: search (prunes, saturation) rather than the generic enumeration
_NATIVE_RUNS: Dict[str, Callable] = {"ptx": _ptx_outcomes}


def _zoo_specs() -> Tuple[ModelSpec, ...]:
    """One ``ModelSpec`` per zoo declaration — the registry entries are
    pure data derived from :mod:`repro.zoo.models`."""
    from .zoo.models import ZOO_MODELS

    specs = []
    for model in ZOO_MODELS:
        run = _NATIVE_RUNS.get(model.name) or _zoo_run(model.name)
        specs.append(
            ModelSpec(
                model.name,
                run,
                opts=model.opts,
                ignored_opts=model.ignored_opts,
                enumerative=True,
                symbolic=model.name == "ptx",
                zoo=model.name,
                description=model.description,
            )
        )
    return tuple(specs)


MODELS: Dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        *_zoo_specs(),
        ModelSpec(
            "ptx-legacy",
            _ptx_legacy_outcomes,
            opts=frozenset({"skip_axioms", "speculation_values"}),
            description="pre-Volta variant: membar without an sc order",
        ),
        # the machines have no search knobs at all: options that merely
        # annotate a test must not make it unrunnable operationally
        ModelSpec(
            "sc-op",
            _sc_op_outcomes,
            ignored_opts=frozenset({"skip_axioms", "speculation_values"}),
            description="operational SC machine (interleaving oracle)",
        ),
        ModelSpec(
            "tso-op",
            _tso_op_outcomes,
            ignored_opts=frozenset({"skip_axioms", "speculation_values"}),
            description="operational TSO machine (store-buffer oracle)",
        ),
    )
}


def model_names() -> Tuple[str, ...]:
    """Every registered model name, sorted (CLI ``choices=`` source)."""
    return tuple(sorted(MODELS))


def resolve_model(name: str) -> ModelSpec:
    """The spec for ``name``, or the one uniform unknown-name error."""
    try:
        return MODELS[name]
    except KeyError:
        raise UnknownNameError("model", name, MODELS) from None


def partition_opts(
    model: str, opts: Dict[str, object]
) -> Tuple[Dict[str, object], Tuple[str, ...]]:
    """Split options into (understood, silently-droppable) for ``model``.

    Unknown options raise — without this, a PTX-only option would reach
    the model's search function and surface as a bare ``TypeError`` deep
    inside the enumerator.
    """
    spec = resolve_model(model)
    kept: Dict[str, object] = {}
    dropped = []
    for name, value in opts.items():
        if name in spec.opts:
            kept[name] = value
        elif name in spec.ignored_opts:
            dropped.append(name)
        else:
            raise ValueError(
                f"search option {name!r} is not supported by model {model!r} "
                f"(supported: {sorted(spec.opts)})"
            )
    return kept, tuple(sorted(dropped))


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

def _check_ptx_only(spec: "EngineSpec", model: str) -> None:
    if spec.ptx_only and model != "ptx":
        raise ValueError(
            f"the {spec.name!r} engine supports only the 'ptx' model, "
            f"not {model!r}"
        )


def _kernel_opts(config, opts):
    """Inject the configured relation kernel for models that take one."""
    if resolve_model(config.model).enumerative:
        return dict(opts, kernel=config.kernel)
    return opts


def _run_enumerative(test, config, opts):
    """Explicit candidate-execution enumeration, any model."""
    from .search.records import EnumStats

    spec = resolve_model(config.model)
    opts = _kernel_opts(config, opts)
    enum_stats = None
    if spec.enumerative:
        enum_stats = EnumStats()
        opts = dict(opts, stats=enum_stats)
    outcomes = spec.run(test.program, **opts)
    return test.condition_observed(outcomes), outcomes, None, enum_stats


def _run_symbolic(test, config, opts):
    """One bounded SAT query (§5.2); verdict only, no outcome set.

    Falls back to the enumerative engine when the test carries search
    options (the single-query encoding has no search knobs) or when the
    condition is value-dependent and cannot be phrased relationally.
    """
    from .kodkod.litmus import UnsupportedCondition, symbolic_outcome_allowed

    if not opts:
        stats: list = []
        try:
            observed = symbolic_outcome_allowed(test, stats=stats)
        except UnsupportedCondition:
            pass
        else:
            merged = stats[0]
            for snapshot in stats[1:]:
                merged = merged + snapshot
            return observed, frozenset(), merged, None
    outcomes = resolve_model(config.model).run(
        test.program, **_kernel_opts(config, opts)
    )
    return test.condition_observed(outcomes), outcomes, None, None


def _run_symbolic_enum(test, config, opts):
    """SAT-instance enumeration producing the *full outcome set*.

    Unlike ``symbolic`` (one query, verdict only) this decodes every
    axiom-consistent relational instance into an outcome, so the result
    carries the same outcome set the enumerative engine reports — the
    comparison the differential fuzzer's oracle is built on.  Falls back
    to the enumerative engine when the test carries search options or
    when write values are data-dependent and instances cannot be decoded
    (``solver_stats`` is then ``None``, letting callers detect the
    fallback).
    """
    from .kodkod.litmus import UnsupportedProgram, symbolic_outcomes
    from .sat.records import SolverStats

    if not opts:
        stats: list = []
        try:
            outcomes = symbolic_outcomes(test, stats=stats)
        except UnsupportedProgram:
            pass
        else:
            merged = stats[0] if stats else SolverStats()
            for snapshot in stats[1:]:
                merged = merged + snapshot
            return test.condition_observed(outcomes), outcomes, merged, None
    outcomes = resolve_model(config.model).run(
        test.program, **_kernel_opts(config, opts)
    )
    return test.condition_observed(outcomes), outcomes, None, None


def _run_rf_check(test, config, opts):
    """Reads-from enumeration decided by coherence saturation."""
    from .search.records import EnumStats
    from .search.rf_check import rf_check_outcomes

    enum_stats = EnumStats()
    outcomes = rf_check_outcomes(
        test.program, stats=enum_stats, **_kernel_opts(config, opts)
    )
    return test.condition_observed(outcomes), outcomes, None, enum_stats


@dataclass(frozen=True)
class EngineSpec:
    """One decision engine: dispatch callable plus capability flags."""

    name: str
    #: ``(test, config, opts) ->
    #:     (observed, outcomes, solver_stats, enum_stats)``
    run: Callable = field(repr=False)
    #: the encoding exists only for the PTX model
    ptx_only: bool = False
    #: natively produces checkable proof artifacts (DRAT/witness)
    certifiable: bool = False
    #: reports the full outcome set (not just the condition verdict)
    supports_outcomes: bool = True
    description: str = ""

    def check_model(self, model: str) -> None:
        """Raise if this engine cannot decide tests under ``model``."""
        _check_ptx_only(self, model)

    def decide(self, test, config, opts):
        """Run with the uniform capability gate applied."""
        self.check_model(config.model)
        return self.run(test, config, opts)


ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "enumerative",
            _run_enumerative,
            description="explicit candidate-execution enumeration",
        ),
        EngineSpec(
            "symbolic",
            _run_symbolic,
            ptx_only=True,
            certifiable=True,
            supports_outcomes=False,
            description="one bounded SAT query; verdict only",
        ),
        EngineSpec(
            "symbolic-enum",
            _run_symbolic_enum,
            ptx_only=True,
            description="SAT instance enumeration; full outcome set",
        ),
        EngineSpec(
            "rf-check",
            _run_rf_check,
            ptx_only=True,
            description="rf enumeration decided by coherence saturation",
        ),
    )
}


def engine_names() -> Tuple[str, ...]:
    """Every registered engine name, in registration order."""
    return tuple(ENGINES)


def resolve_engine(name: str) -> EngineSpec:
    """The spec for ``name``, or the one uniform unknown-name error."""
    try:
        return ENGINES[name]
    except KeyError:
        raise UnknownNameError("engine", name, ENGINES) from None


def engines_for_model(model: str) -> Tuple[str, ...]:
    """The engines able to decide tests under ``model``."""
    resolve_model(model)
    return tuple(
        name for name, spec in ENGINES.items()
        if not spec.ptx_only or model == "ptx"
    )
