"""Running litmus tests against the implemented memory models.

The decision core (:func:`decide`) takes one test plus one
:class:`~repro.litmus.config.RunConfig` and returns a
:class:`LitmusResult`; :func:`run_litmus`/:func:`run_suite` are the
friendly entry points, and :class:`~repro.litmus.session.Session` fans
the same core out across worker processes with caching.  Model and
engine dispatch is data-driven: both resolve through
:mod:`repro.registry`, so adding a model or engine never touches this
module.

The search-option surface is :class:`RunConfig` only — the historical
``run_litmus(test, skip_axioms=...)`` keyword shim is gone; pass
``RunConfig(search_opts={...})`` (see :mod:`repro.api` for the supported
public surface).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..cert.records import Certificate, skipped_certificate
from ..core.deadline import TimeoutExceeded, deadline
from ..registry import (
    MODELS,
    partition_opts,
    resolve_engine,
    resolve_model,
)
from ..sat.records import SolverStats
from ..search.records import EnumStats, Outcome
from .config import RunConfig
from .test import Expect, LitmusTest

logger = logging.getLogger("repro.litmus")


def _warn_dropped(
    model: str,
    dropped: Tuple[str, ...],
    warned: Optional[Set[Tuple[str, Tuple[str, ...]]]] = None,
) -> None:
    """Log PTX-only options a total-co model is about to ignore.

    ``warned`` deduplicates: a suite run logs each (model, option-set)
    pair once rather than once per test.
    """
    if not dropped:
        return
    key = (model, dropped)
    if warned is not None:
        if key in warned:
            return
        warned.add(key)
    logger.warning(
        "model %r does not understand option(s) %s; they apply to the PTX "
        "model only and are ignored here",
        model, ", ".join(repr(name) for name in dropped),
    )


def _filter_opts(
    model: str,
    opts: Dict[str, object],
    warned: Optional[Set] = None,
) -> Dict[str, object]:
    """Keep the options ``model`` understands; reject unknown ones loudly;
    log (rather than silently swallow) the tolerated-but-ignored ones."""
    kept, dropped = partition_opts(model, opts)
    _warn_dropped(model, dropped, warned)
    return kept


@dataclass(frozen=True)
class LitmusResult:
    """The verdict of running one litmus test under one model."""

    test: LitmusTest
    model: str
    observed: bool
    outcomes: FrozenSet[Outcome]
    #: wall-clock seconds spent deciding the test
    elapsed: Optional[float] = None
    #: SAT backend counters (populated by the symbolic engine only)
    solver_stats: Optional[SolverStats] = None
    #: enumeration counters (populated by the enumerative PTX engine only):
    #: rf assignments visited, candidates pruned before the co loop,
    #: candidates fully checked, and evaluator memo hits/misses
    enum_stats: Optional[EnumStats] = None
    #: ``"ok"`` normally; ``"timeout"``/``"error"`` when the decision
    #: procedure was cut short (the verdict is then TIMEOUT/ERROR)
    status: str = "ok"
    #: human-readable failure detail for non-ok statuses
    detail: Optional[str] = None
    #: independently checked evidence for the verdict (``certify`` runs
    #: only); a failed certificate downgrades the verdict to ERROR
    certificate: Optional[Certificate] = None

    @property
    def verdict(self) -> Expect:
        """The model's verdict on the test condition."""
        if self.status == "timeout":
            return Expect.TIMEOUT
        if self.status == "error":
            return Expect.ERROR
        return Expect.ALLOWED if self.observed else Expect.FORBIDDEN

    @property
    def matches_expectation(self) -> Optional[bool]:
        """Whether the verdict matches the documented one (None = undocumented,
        or the run did not complete)."""
        if self.status != "ok":
            return None
        expected = self.test.expected(self.model)
        if expected is None:
            return None
        return expected is self.verdict

    def to_dict(self, include_test: bool = True) -> Dict:
        """Serialize (see :mod:`repro.litmus.serialize`)."""
        from .serialize import result_to_dict

        return result_to_dict(self, include_test=include_test)

    @classmethod
    def from_dict(cls, payload: Dict, test: Optional[LitmusTest] = None):
        """Rebuild from :meth:`to_dict` output."""
        from .serialize import result_from_dict

        return result_from_dict(payload, test=test)

    def __repr__(self) -> str:
        status = {True: "OK", False: "MISMATCH", None: "?"}[self.matches_expectation]
        return (
            f"<{self.test.name} under {self.model}: {self.verdict.value} "
            f"[{status}]>"
        )


def _run_certified(
    test: LitmusTest, config: RunConfig, opts: Dict[str, object]
) -> Tuple[
    bool, FrozenSet[Outcome], Optional[SolverStats], Certificate
]:
    """Decide the condition through the proof-logging path when possible.

    Tests decidable by one bounded SAT query get a checked DRAT/witness
    certificate; everything else runs on its normal engine and carries a
    ``skipped`` certificate naming the reason — the caller can tell "not
    checkable" apart from "not checked".
    """
    from ..cert.verdict import certify_symbolic
    from ..kodkod.litmus import UnsupportedCondition

    spec = resolve_model(config.model)
    # the uniform engine capability gate still applies under certify
    resolve_engine(config.engine).check_model(config.model)
    if not spec.symbolic:
        outcomes = spec.run(test.program, **opts)
        return (
            test.condition_observed(outcomes),
            outcomes,
            None,
            skipped_certificate(
                f"model {config.model!r} has no symbolic encoding"
            ),
        )
    if opts:
        outcomes = spec.run(test.program, **opts)
        return (
            test.condition_observed(outcomes),
            outcomes,
            None,
            skipped_certificate(
                "search options require the enumerative engine"
            ),
        )
    try:
        observed, certificate, stats = certify_symbolic(test)
    except UnsupportedCondition as exc:
        outcomes = spec.run(test.program)
        return (
            test.condition_observed(outcomes),
            outcomes,
            None,
            skipped_certificate(f"condition not relationally encodable: {exc}"),
        )
    return observed, frozenset(), stats, certificate


def decide(
    test: LitmusTest,
    config: RunConfig,
    warned: Optional[Set] = None,
) -> LitmusResult:
    """The decision core: run one test under one config.

    Applies the config's per-test ``timeout`` (a test that exceeds it
    yields a ``TIMEOUT`` verdict, not an exception).  Errors from the
    decision procedure itself propagate — :class:`Session` wraps this
    with failure isolation for sweeps.
    """
    merged = dict(test.search_opts)
    merged.update(config.opts)
    merged = _filter_opts(config.model, merged, warned=warned)
    return decide_filtered(test, config, merged)


def decide_filtered(
    test: LitmusTest, config: RunConfig, opts: Dict[str, object]
) -> LitmusResult:
    """Like :func:`decide`, but over pre-merged, pre-filtered options.

    Worker processes call this directly: the parent already merged the
    test-level and config-level options and validated them against the
    model, so re-filtering (and re-warning) in every worker is skipped.
    """
    solver_stats: Optional[SolverStats] = None
    enum_stats: Optional[EnumStats] = None
    status = "ok"
    detail: Optional[str] = None
    observed = False
    outcomes: FrozenSet[Outcome] = frozenset()
    certificate: Optional[Certificate] = None
    started = time.perf_counter()
    preemptive = True
    try:
        with deadline(config.timeout) as preemptive:
            if config.certify:
                observed, outcomes, solver_stats, certificate = (
                    _run_certified(test, config, opts)
                )
            else:
                engine = resolve_engine(config.engine)
                observed, outcomes, solver_stats, enum_stats = engine.decide(
                    test, config, opts
                )
    except TimeoutExceeded:
        status = "timeout"
        detail = f"exceeded {config.timeout}s"
        if not preemptive:
            # the deadline could not arm SIGALRM here (worker thread /
            # no such signal): the bound held through cooperative engine
            # polls only, which the result records
            detail += " (cooperative guard)"
        outcomes = frozenset()
        solver_stats = None
        enum_stats = None
        certificate = None
    if certificate is not None and certificate.failed:
        # never let an uncertified verdict pass silently: a trace or
        # witness the independent checker rejects voids the verdict
        status = "error"
        detail = f"certificate check failed: {certificate.detail}"
    elapsed = time.perf_counter() - started
    return LitmusResult(
        test=test,
        model=config.model,
        observed=observed,
        outcomes=outcomes,
        elapsed=elapsed,
        solver_stats=solver_stats,
        enum_stats=enum_stats,
        status=status,
        detail=detail,
        certificate=certificate,
    )


def _coerce_config(
    config: Optional[RunConfig],
    model: Optional[str],
    engine: Optional[str],
    timeout: Optional[float],
) -> RunConfig:
    """Build the effective config from the keyword conveniences."""
    if config is None:
        return RunConfig(
            model=model or "ptx",
            engine=engine or "enumerative",
            timeout=timeout,
        )
    if not isinstance(config, RunConfig):
        raise TypeError(
            f"config must be a RunConfig, not {type(config).__name__}; "
            "search options go in RunConfig(search_opts={...})"
        )
    changes: Dict[str, object] = {}
    if model is not None:
        changes["model"] = model
    if engine is not None:
        changes["engine"] = engine
    if timeout is not None:
        changes["timeout"] = timeout
    return config.evolve(**changes) if changes else config


def run_litmus(
    test: LitmusTest,
    config: Optional[RunConfig] = None,
    model: Optional[str] = None,
    engine: Optional[str] = None,
    timeout: Optional[float] = None,
) -> LitmusResult:
    """Run one litmus test.

    Preferred form: ``run_litmus(test, config=RunConfig(...))``.  The
    ``model``/``engine``/``timeout`` keywords are conveniences layered
    over the config; search options are configured via
    ``RunConfig(search_opts={...})`` only.

    ``engine`` selects how the PTX model decides the condition:
    ``"enumerative"`` (default) explores candidate executions explicitly;
    ``"symbolic"`` issues one bounded SAT query (§5.2) and surfaces the
    solver's :class:`SolverStats` on the result; ``"symbolic-enum"``
    enumerates every consistent SAT instance and reports the full
    outcome set (what differential cross-checks compare); ``"rf-check"``
    enumerates reads-from choices only and decides each by coherence
    saturation (:mod:`repro.search.rf_check`), falling back to the
    enumerative engine outside its fragment.  See
    :data:`repro.registry.ENGINES` for the full capability table.
    """
    cfg = _coerce_config(config, model, engine, timeout)
    return decide(test, cfg)


def run_suite(
    tests: Sequence[LitmusTest],
    config: Optional[RunConfig] = None,
    model: Optional[str] = None,
    engine: Optional[str] = None,
    timeout: Optional[float] = None,
    jobs: Optional[int] = None,
) -> Tuple[LitmusResult, ...]:
    """Run a sequence of tests, returning their results in order.

    With ``jobs`` (or a config carrying ``jobs > 1``) the tests fan out
    across worker processes; results come back in input order regardless
    of completion order.  For cache control and stats, drive a
    :class:`~repro.litmus.session.Session` directly.
    """
    cfg = _coerce_config(config, model, engine, timeout)
    if jobs is not None:
        cfg = cfg.evolve(jobs=jobs)
    from .session import Session

    with Session(cfg) as session:
        return session.run_suite(tests)


def summarize(results: Sequence[LitmusResult], show_stats: bool = False) -> str:
    """A printable table of results (name, verdict, expectation check).

    ``show_stats`` appends a wall-time column (and SAT conflict counts when
    the symbolic engine produced them).
    """
    width = max([len("test")] + [len(r.test.name) for r in results])
    model_width = max([len("model")] + [len(r.model) for r in results])
    header = (
        f"{'test'.ljust(width)}  {'model'.ljust(model_width)}  "
        f"verdict    expected   status"
    )
    if show_stats:
        header += "    time       conflicts"
    lines = [header]
    for result in results:
        expected = result.test.expected(result.model)
        status = {True: "ok", False: "MISMATCH", None: "-"}[result.matches_expectation]
        if result.status != "ok":
            status = result.status.upper()
        line = (
            f"{result.test.name.ljust(width)}  {result.model.ljust(model_width)}  "
            f"{result.verdict.value:<9}  "
            f"{(expected.value if expected else '-'):<9}  "
        )
        if show_stats:
            elapsed = (
                f"{result.elapsed * 1000:8.1f}ms"
                if result.elapsed is not None
                else f"{'-':>10}"
            )
            conflicts = (
                f"{result.solver_stats.conflicts:9d}"
                if result.solver_stats is not None
                else f"{'-':>9}"
            )
            line += f"{status:<8}  {elapsed}  {conflicts}"
        else:
            line += status
        lines.append(line)
    return "\n".join(lines)
