"""Exhaustive enumeration of consistent PTX executions of a program.

This is the library's herd-style litmus engine: given a straight-line PTX
program it enumerates every candidate execution — all reads-from choices,
all runtime Fence-SC orders, all runtime (partial) coherence orders — and
filters them through the six Figure 7 axioms.  The surviving candidates
determine the program's allowed outcomes.

The enumeration is the shared staged loop of :mod:`.staged`; this module
is its PTX front.  :data:`PTX_STAGED` hands the loop the axioms of
:mod:`repro.ptx.spec`, the environment of :func:`repro.ptx.model.build_env`
and the witness spec and rf prune of the one PTX declaration
(:data:`repro.zoo.models.PTX`, which the zoo's cat-driven ``ptx`` reads
too).  Compiled instances are keyed by ``("ptx", program signature)``
and shared with the rf-check engine (:mod:`.rf_check`), whose model is
this one with :data:`RF_CAUSALITY` moved into the constraints.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional, Sequence, Tuple

from ..lang import Irreflexive, rel
from ..ptx import spec
from ..ptx.model import build_env
from ..ptx.program import Program
from ..registry import DEFAULT_KERNEL
from ..zoo.models import PTX
# EnumStats and register_sort_key stay importable from here
from .records import EnumStats, Outcome, register_sort_key  # noqa: F401
from .staged import Candidate, StagedModel, staged_candidates

#: ``irreflexive(rf ; cause)`` — the rf-check engine's per-(rf, sc)
#: admissibility constraint.  Compiled here as an extra formula (sharing
#: the spec's ``cause`` node) so ptx_search and rf_check compile against
#: one instance per (model, test-signature).
RF_CAUSALITY = Irreflexive(rel("rf") @ spec.DERIVED["cause"])

#: the PTX model as the staged enumeration runs it
PTX_STAGED = StagedModel(
    constraints=tuple(spec.AXIOMS.items()),
    witnesses=PTX.witnesses,
    env_factory=lambda staging, bitset: build_env(
        staging.static, bitset=bitset
    ),
    compile_key=("ptx",),
    forced=spec.DERIVED[PTX.witnesses.co_forced_from],
    extra_formulas=(("__rf_causality__", RF_CAUSALITY),),
    rf_doom=PTX.rf_doom,
)


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
    yield from staged_candidates(
        program,
        PTX_STAGED,
        skip_axioms=skip_axioms,
        speculation_values=speculation_values,
        include_inconsistent=include_inconsistent,
        kernel=kernel,
        stats=stats,
        outcomes_only=outcomes_only,
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
