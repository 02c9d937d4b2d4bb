"""The cross-engine oracle: run one test many ways, compare everything.

A :class:`Check` names two engine configurations and how to compare
their results — ``verdict`` (allowed/forbidden agreement), ``outcomes``
(full outcome-*set* equality; the strong comparison that catches engines
agreeing on a verdict for different reasons), or ``subset`` (metamorphic
containment, e.g. every SC outcome must be a TSO outcome).

The oracle batches every (test, engine) pair through one
:class:`~repro.litmus.session.Session`, so fuzzing inherits the worker
pool, per-test timeouts, and failure isolation for free.  A task that
times out or errors makes its checks *undecided*, never a discrepancy:
the fuzzer hunts for engines that disagree, not for engines that are
slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..litmus.config import RunConfig, freeze_opts
from ..litmus.runner import LitmusResult, decide
from ..litmus.session import Session
from ..litmus.test import LitmusTest
from ..operational import supports_program
from ..registry import resolve_engine, resolve_model


@dataclass(frozen=True)
class EngineRun:
    """One way of deciding a litmus test: model + engine + options."""

    label: str
    model: str = "ptx"
    engine: str = "enumerative"
    search_opts: Tuple[Tuple[str, object], ...] = ()
    certify: bool = False

    def __post_init__(self):
        # one uniform unknown-name error, at construction rather
        # than deep inside a batched oracle run
        resolve_model(self.model)
        resolve_engine(self.engine)

    def config(self, base: Optional[RunConfig] = None) -> RunConfig:
        """This run as a run config (timeout inherited from ``base``)."""
        base = base if base is not None else RunConfig()
        return base.evolve(
            model=self.model,
            engine=self.engine,
            search_opts=self.search_opts,
            certify=self.certify,
        )


@dataclass(frozen=True)
class Check:
    """Compare two engine runs on one test.

    ``compare``:

    * ``"outcomes"`` — the full outcome sets must be equal;
    * ``"verdict"`` — the allowed/forbidden answers must agree;
    * ``"subset"`` — every left outcome must be a right outcome;
    * ``"contained"`` — every left *concrete observation* must be a
      right one (outcomes concretized through
      :func:`repro.zoo.engine.concrete_observations` first, so models
      with partial and total coherence witnesses compare soundly).

    ``requires_operational`` gates the check on the baseline machines
    being able to execute the program (no CTA barriers).
    """

    kind: str
    left: EngineRun
    right: EngineRun
    compare: str = "outcomes"
    requires_operational: bool = False

    def applies(self, test: LitmusTest) -> bool:
        if self.requires_operational:
            return supports_program(test.program)
        return True


@dataclass(frozen=True)
class Discrepancy:
    """Two engines disagreed on one test."""

    kind: str
    test: LitmusTest
    left_label: str
    right_label: str
    detail: str


@dataclass(frozen=True)
class CaseVerdict:
    """The oracle's full judgement of one test."""

    test: LitmusTest
    discrepancies: Tuple[Discrepancy, ...] = ()
    #: check kinds that could not be decided (engine timeout/error)
    undecided: Tuple[str, ...] = ()
    #: check kinds that ran and agreed
    agreed: Tuple[str, ...] = ()
    #: ``(check kind, detail)`` for checks undecided by an engine *crash*
    #: (status ``error``, not ``timeout``) — the shrinker treats these as
    #: blockers to report, never as "discrepancy gone"
    errors: Tuple[Tuple[str, str], ...] = ()
    #: the reference (ptx/enumerative) run, when the battery produced
    #: one — the coverage extractor reads verdict and enumeration
    #: counters from here without re-running anything
    primary: Optional[LitmusResult] = None

    @property
    def clean(self) -> bool:
        return not self.discrepancies


def containment_checks() -> Tuple[Check, ...]:
    """One cross-model check per declared zoo containment claim.

    Every ``A ⊑ B`` claim in the zoo (:func:`repro.zoo.models.
    containment_claims`) derives a ``contained`` check named
    ``A-within-B``: each model registered with a claim is fuzzed against
    its weaker neighbour for free, generalizing the original
    hand-written SC⊆TSO check to the whole declared order.
    """
    from ..zoo.models import containment_claims

    return tuple(
        Check(
            kind=f"{claim.stronger}-within-{claim.weaker}",
            left=EngineRun(
                f"{claim.stronger}/enumerative", model=claim.stronger
            ),
            right=EngineRun(
                f"{claim.weaker}/enumerative", model=claim.weaker
            ),
            compare="contained",
        )
        for claim in containment_claims()
    )


def default_checks(perturb: Optional[str] = None) -> Tuple[Check, ...]:
    """The standard differential battery: the hand-written engine
    comparisons plus the zoo-derived containment checks.

    ``perturb`` names a PTX axiom to skip on the *enumerative* side
    (``skip_axioms``), deliberately breaking one engine — the negative
    control proving the harness actually detects disagreement.
    """
    opts: Tuple[Tuple[str, object], ...] = ()
    label = "ptx/enumerative"
    if perturb is not None:
        from ..ptx import spec

        if perturb not in spec.AXIOMS:
            # an unknown name would silently skip nothing and the
            # negative control would pass vacuously
            raise ValueError(
                f"unknown axiom {perturb!r}; have {sorted(spec.AXIOMS)}"
            )
        opts = freeze_opts({"skip_axioms": (perturb,)})
        label = f"ptx/enumerative[skip {perturb}]"
    enum = EngineRun(label, search_opts=opts)
    symbolic = EngineRun("ptx/symbolic", engine="symbolic")
    symbolic_enum = EngineRun("ptx/symbolic-enum", engine="symbolic-enum")
    rf_check = EngineRun("ptx/rf-check", engine="rf-check")
    sc = EngineRun("sc/enumerative", model="sc")
    sc_op = EngineRun("sc/operational", model="sc-op")
    tso = EngineRun("tso/enumerative", model="tso")
    tso_op = EngineRun("tso/operational", model="tso-op")
    return (
        Check("ptx-verdict", enum, symbolic, compare="verdict"),
        Check("ptx-outcomes", enum, symbolic_enum, compare="outcomes"),
        # the saturation engine must reproduce the enumerative outcome
        # set byte for byte; under a perturbed enumerative side this
        # doubles as a negative control (the clean rf-check engine
        # should disagree with the broken reference)
        Check("ptx-rf-outcomes", enum, rf_check, compare="outcomes"),
        Check(
            "sc-operational", sc, sc_op,
            compare="outcomes", requires_operational=True,
        ),
        Check(
            "tso-operational", tso, tso_op,
            compare="outcomes", requires_operational=True,
        ),
        # the declared zoo containments (sc-within-tso and friends):
        # purely axiomatic, so they run on barrier programs too
        *containment_checks(),
    )


def _describe_outcomes(
    left: frozenset, right: frozenset
) -> str:
    only_left = sorted(map(repr, left - right))
    only_right = sorted(map(repr, right - left))
    parts = []
    if only_left:
        parts.append(f"left-only: {', '.join(only_left)}")
    if only_right:
        parts.append(f"right-only: {', '.join(only_right)}")
    return "; ".join(parts) or "outcome sets differ"


def compare_results(
    check: Check, left: LitmusResult, right: LitmusResult
) -> Optional[str]:
    """The discrepancy detail for one check, or None on agreement."""
    if check.compare == "verdict":
        if left.observed != right.observed:
            return (
                f"{check.left.label} says "
                f"{'allowed' if left.observed else 'forbidden'}, "
                f"{check.right.label} says "
                f"{'allowed' if right.observed else 'forbidden'}"
            )
        return None
    if check.compare == "subset":
        extra = left.outcomes - right.outcomes
        if extra:
            return (
                f"{check.left.label} outcomes not contained in "
                f"{check.right.label}: {sorted(map(repr, extra))}"
            )
        return None
    if check.compare == "contained":
        from ..zoo.engine import concrete_observations

        extra = (
            concrete_observations(left.outcomes)
            - concrete_observations(right.outcomes)
        )
        if extra:
            return (
                f"{check.left.label} observations not contained in "
                f"{check.right.label}: {sorted(map(repr, extra))}"
            )
        return None
    if check.compare == "outcomes":
        if left.outcomes != right.outcomes:
            return _describe_outcomes(left.outcomes, right.outcomes)
        # engines with equal outcome sets must also read the condition
        # identically; a mismatch here is a condition-evaluation bug
        if left.observed != right.observed:
            return (
                "equal outcome sets but different verdicts "
                f"({check.left.label}: {left.observed}, "
                f"{check.right.label}: {right.observed})"
            )
        return None
    raise ValueError(f"unknown comparison {check.compare!r}")


class Oracle:
    """Evaluates a batch of tests against a battery of checks."""

    def __init__(
        self,
        checks: Optional[Sequence[Check]] = None,
        base_config: Optional[RunConfig] = None,
    ):
        self.checks = tuple(checks if checks is not None else default_checks())
        self.base_config = base_config

    def _runs_for(self, test: LitmusTest) -> List[EngineRun]:
        """Unique engine runs needed by the checks that apply to ``test``."""
        runs: List[EngineRun] = []
        for check in self.checks:
            if not check.applies(test):
                continue
            for run in (check.left, check.right):
                if run not in runs:
                    runs.append(run)
        return runs

    def evaluate(
        self, tests: Sequence[LitmusTest], session: Session
    ) -> List[CaseVerdict]:
        """Judge every test; engine runs are batched through ``session``."""
        base = self.base_config or session.config
        plan: List[Tuple[int, EngineRun]] = []
        for index, test in enumerate(tests):
            for run in self._runs_for(test):
                plan.append((index, run))
        tasks = [(tests[index], run.config(base)) for index, run in plan]
        results = session.run_tasks(tasks)
        by_case: Dict[int, Dict[EngineRun, LitmusResult]] = {}
        for (index, run), result in zip(plan, results):
            by_case.setdefault(index, {})[run] = result
        return [
            self._judge(test, by_case.get(index, {}))
            for index, test in enumerate(tests)
        ]

    def evaluate_one(self, test: LitmusTest) -> CaseVerdict:
        """Judge one test in-process (no session; the shrinker's path)."""
        base = self.base_config or RunConfig()
        produced: Dict[EngineRun, LitmusResult] = {}
        for run in self._runs_for(test):
            config = run.config(base)
            try:
                produced[run] = decide(test, config)
            except Exception as exc:  # noqa: BLE001 — undecided, not fatal
                produced[run] = LitmusResult(
                    test=test,
                    model=config.model,
                    observed=False,
                    outcomes=frozenset(),
                    status="error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
        return self._judge(test, produced)

    def _judge(
        self, test: LitmusTest, produced: Dict[EngineRun, LitmusResult]
    ) -> CaseVerdict:
        discrepancies: List[Discrepancy] = []
        undecided: List[str] = []
        agreed: List[str] = []
        errors: List[Tuple[str, str]] = []
        for check in self.checks:
            if not check.applies(test):
                continue
            left = produced.get(check.left)
            right = produced.get(check.right)
            if left is None or right is None:
                undecided.append(check.kind)
                continue
            if left.status != "ok" or right.status != "ok":
                undecided.append(check.kind)
                # a *crash* is recorded separately from a timeout: the
                # shrinker must not mistake "the engine blew up" for
                # "the discrepancy no longer reproduces"
                for side, result in (("left", left), ("right", right)):
                    if result.status == "error":
                        errors.append(
                            (check.kind, f"{side}: {result.detail}")
                        )
                continue
            detail = compare_results(check, left, right)
            if detail is None:
                agreed.append(check.kind)
            else:
                discrepancies.append(
                    Discrepancy(
                        kind=check.kind,
                        test=test,
                        left_label=check.left.label,
                        right_label=check.right.label,
                        detail=detail,
                    )
                )
        primary = None
        for run, result in produced.items():
            if run.model != "ptx" or run.engine != "enumerative":
                continue
            if result.status == "ok":
                primary = result
                break
        return CaseVerdict(
            test=test,
            discrepancies=tuple(discrepancies),
            undecided=tuple(undecided),
            agreed=tuple(agreed),
            errors=tuple(errors),
            primary=primary,
        )


def check_test(
    test: LitmusTest,
    checks: Optional[Sequence[Check]] = None,
    base_config: Optional[RunConfig] = None,
) -> CaseVerdict:
    """One-shot oracle evaluation of a single test (in-process)."""
    return Oracle(checks, base_config).evaluate_one(test)
