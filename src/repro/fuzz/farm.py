"""The coverage-guided fuzzing farm behind ``ptxmm farm``.

Where ``ptxmm fuzz`` explores blindly, the farm closes the loop: every
round it regenerates its :class:`~repro.fuzz.gen.GenBias` from the live
:class:`~repro.fuzz.coverage.CoverageMap`, so generation is steered
toward annotation combinations, cycle edges, layouts, and axiom-failure
branches that no case has exhibited yet.  Rounds are the determinism
unit — bias only changes at round boundaries, so every case is a pure
function of ``(seed, index, coverage-at-round-start)`` and any round is
replayable from its checkpoint.

The farm checkpoints after every round (atomic write-then-rename): the
coverage map, the artifact dedup set, the corpus candidates, and the
next stream index.  Resuming continues the identical case stream, so an
interrupted-then-resumed farm converges to the same coverage map and
dedup set as an uninterrupted run with the same seed — the property
nightly CI relies on to accumulate coverage across sessions.

A count budget is the *total stream length*: ``run_farm`` with
``budget=1000`` processes indices 0..999 however many sessions that
takes.  A wall-clock budget bounds the current invocation only.

Cases that exhibit a new feature become corpus *candidates*;
:func:`write_corpus` distills them (greedy set cover over the coverage
frontier) into a committed regression corpus directory with a
deterministic ``MANIFEST.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..litmus.config import RunConfig
from ..litmus.serialize import canonical_json, test_to_dict, test_to_litmus
from ..litmus.session import Session
from ..litmus.test import LitmusTest
from ..registry import DEFAULT_KERNEL
from .coverage import (
    CoverageMap,
    bias_from_coverage,
    case_features,
    distill,
    result_features,
)
from .gen import FuzzCase, GenBias, generate_case
from .harness import (
    FoundDiscrepancy,
    FuzzBudget,
    FuzzStats,
    canonical_test_hash,
    write_artifact,
    _shrink_predicate,
)
from .oracle import CaseVerdict, Check, EngineSpec, Oracle, default_checks
from .shrink import shrink

#: serialization shape of the farm checkpoint
FARM_SCHEMA = 1


@dataclass(frozen=True)
class FarmConfig:
    """Everything that shapes a farm run (and must match on resume)."""

    seed: int
    budget: FuzzBudget
    jobs: int = 1
    timeout: Optional[float] = 20.0
    #: cases per round — the steering granularity: bias refreshes only
    #: at round boundaries so rounds replay deterministically
    round_size: int = 64
    #: steer generation from the live coverage map (False = blind farm)
    steer: bool = True
    #: weight multiplier for choices whose feature is uncovered
    boost: float = 8.0
    perturb: Optional[str] = None
    artifact_dir: Optional[str] = None
    max_found: int = 10
    shrink_attempts: int = 2000
    #: pre-seed coverage and candidates from the documented suite (at
    #: negative stream indices), so RMW/dependency/barrier shapes the
    #: generator cannot emit still reach the corpus
    seed_corpus: bool = True
    checkpoint: Optional[str] = None
    #: relation kernel for every engine run (verdict-neutral, so it is
    #: deliberately absent from the resume fingerprint)
    kernel: str = DEFAULT_KERNEL

    def fingerprint(self) -> Dict[str, object]:
        """The resume-compatibility echo stored in checkpoints."""
        return {
            "seed": self.seed,
            "steer": self.steer,
            "boost": self.boost,
            "round_size": self.round_size,
            "perturb": self.perturb,
            "seed_corpus": self.seed_corpus,
        }


@dataclass
class FarmReport:
    """Everything one farm invocation produced (or resumed into)."""

    config: FarmConfig
    stats: FuzzStats
    coverage: CoverageMap
    found: List[FoundDiscrepancy] = field(default_factory=list)
    #: test name -> candidate record (feature list + serialized test)
    candidates: Dict[str, Dict] = field(default_factory=dict)
    #: (check kind, canonical hash) pairs of deduped shrunk repros
    dedup: Dict[Tuple[str, str], Optional[str]] = field(default_factory=dict)
    rounds: int = 0
    next_index: int = 0
    found_total: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.found_total == 0

    def distilled(self) -> List[str]:
        """Candidate names of the greedy minimal frontier-preserving set."""
        return distill({
            name: record["features"]
            for name, record in self.candidates.items()
        })


def _stats_to_dict(stats: FuzzStats) -> Dict:
    return {
        "generated": stats.generated,
        "checks_run": stats.checks_run,
        "undecided": stats.undecided,
        "discrepancies": stats.discrepancies,
        "deduped": stats.deduped,
        "by_check": dict(sorted(stats.by_check.items())),
    }


def _stats_from_dict(data: Dict) -> FuzzStats:
    stats = FuzzStats()
    stats.generated = int(data.get("generated", 0))
    stats.checks_run = int(data.get("checks_run", 0))
    stats.undecided = int(data.get("undecided", 0))
    stats.discrepancies = int(data.get("discrepancies", 0))
    stats.deduped = int(data.get("deduped", 0))
    stats.by_check = {
        str(k): int(v) for k, v in dict(data.get("by_check", {})).items()
    }
    return stats


def save_checkpoint(path: str, report: FarmReport) -> None:
    """Atomically persist the farm state (write temp, then rename)."""
    payload = {
        "schema": FARM_SCHEMA,
        "config": report.config.fingerprint(),
        "next_index": report.next_index,
        "rounds": report.rounds,
        "found_total": report.found_total,
        "coverage": report.coverage.to_dict(),
        "dedup": sorted(
            [kind, digest, location]
            for (kind, digest), location in report.dedup.items()
        ),
        "candidates": {
            name: {
                "index": record["index"],
                "cycle": record.get("cycle"),
                "features": sorted(record["features"]),
                "test": record["test"],
            }
            for name, record in sorted(report.candidates.items())
        },
        "stats": _stats_to_dict(report.stats),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(target.name + ".tmp")
    temp.write_text(canonical_json(payload) + "\n")
    os.replace(temp, target)


def load_checkpoint(path: str, config: FarmConfig) -> FarmReport:
    """Rebuild farm state from a checkpoint, validating compatibility."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != FARM_SCHEMA:
        raise ValueError(
            f"unsupported farm checkpoint schema {payload.get('schema')!r} "
            f"(this build reads v{FARM_SCHEMA})"
        )
    echo = payload.get("config", {})
    expected = config.fingerprint()
    if echo != expected:
        drift = sorted(
            key for key in set(echo) | set(expected)
            if echo.get(key) != expected.get(key)
        )
        raise ValueError(
            f"checkpoint {path} was produced by an incompatible farm "
            f"configuration (differs on: {', '.join(drift)}); resume with "
            "matching options or start a fresh checkpoint"
        )
    report = FarmReport(
        config=config,
        stats=_stats_from_dict(payload.get("stats", {})),
        coverage=CoverageMap.from_dict(payload["coverage"]),
        rounds=int(payload.get("rounds", 0)),
        next_index=int(payload.get("next_index", 0)),
        found_total=int(payload.get("found_total", 0)),
    )
    for kind, digest, location in payload.get("dedup", []):
        report.dedup[(str(kind), str(digest))] = location
    for name, record in payload.get("candidates", {}).items():
        report.candidates[str(name)] = {
            "index": int(record["index"]),
            "cycle": record.get("cycle"),
            "features": frozenset(record["features"]),
            "test": record["test"],
        }
    return report


def _case_verdict_features(
    case_or_test, cycle: Optional[str], verdict: Optional[CaseVerdict]
) -> frozenset:
    """All features one evaluated case exhibits (static + dynamic)."""
    test = case_or_test.test if isinstance(case_or_test, FuzzCase) else case_or_test
    features = set(case_features(test, cycle))
    if verdict is not None:
        if verdict.primary is not None:
            features |= result_features(verdict.primary)
        for discrepancy in verdict.discrepancies:
            features.add(f"discrepancy:{discrepancy.kind}")
    return frozenset(features)


def run_farm(
    config: FarmConfig,
    checks: Optional[Sequence[Check]] = None,
    progress: Optional[Callable[[FarmReport], None]] = None,
) -> FarmReport:
    """Run (or resume) the coverage-guided farm; see the module docstring.

    ``checks=None`` runs the full differential battery of
    :func:`~repro.fuzz.oracle.default_checks`; an explicit empty
    sequence runs coverage-only rounds — just the reference
    ptx/enumerative engine, no cross-checking — which is what the
    steering benchmark uses to time the coverage loop itself.
    ``progress`` is called after each round's checkpoint; an exception
    it raises aborts the run *after* the round was durably saved, which
    the resume tests use to simulate kills.
    """
    battery = tuple(checks) if checks is not None else default_checks(config.perturb)
    oracle = Oracle(
        battery,
        base_config=RunConfig(timeout=config.timeout, kernel=config.kernel),
    )
    primary_spec = EngineSpec("ptx/enumerative")

    if config.checkpoint is not None and Path(config.checkpoint).exists():
        report = load_checkpoint(config.checkpoint, config)
    else:
        report = FarmReport(
            config=config, stats=FuzzStats(), coverage=CoverageMap()
        )

    started = time.perf_counter()
    directory = (
        Path(config.artifact_dir) if config.artifact_dir is not None else None
    )
    session_config = RunConfig(
        jobs=config.jobs, timeout=config.timeout, kernel=config.kernel
    )

    def evaluate(
        session: Session, tests: List[LitmusTest]
    ) -> List[CaseVerdict]:
        if battery:
            return oracle.evaluate(tests, session)
        # coverage-only mode: one reference run per case, no comparisons
        tasks = [
            (test, primary_spec.config(oracle.base_config)) for test in tests
        ]
        results = session.run_tasks(tasks)
        return [
            CaseVerdict(
                test=test,
                primary=result if result.status == "ok" else None,
            )
            for test, result in zip(tests, results)
        ]

    def observe_case(case_or_test, cycle, index, verdict) -> None:
        features = _case_verdict_features(case_or_test, cycle, verdict)
        new = report.coverage.observe(features, index)
        if new:
            test = (
                case_or_test.test
                if isinstance(case_or_test, FuzzCase)
                else case_or_test
            )
            report.candidates[test.name] = {
                "index": index,
                "cycle": cycle,
                "features": features,
                "test": test_to_dict(test),
            }

    def handle_discrepancies(case: FuzzCase, verdict: CaseVerdict) -> None:
        for discrepancy in verdict.discrepancies:
            if report.found_total >= config.max_found:
                return
            shrunk = shrink(
                case.test,
                _shrink_predicate(oracle, discrepancy.kind),
                max_attempts=config.shrink_attempts,
            )
            dedup_key = (
                discrepancy.kind, canonical_test_hash(shrunk.test)
            )
            if dedup_key in report.dedup:
                report.stats.deduped += 1
                continue
            location = None
            if directory is not None:
                location = str(
                    write_artifact(directory, case, discrepancy, shrunk)
                )
            report.dedup[dedup_key] = location
            report.found.append(
                FoundDiscrepancy(
                    case=case,
                    discrepancy=discrepancy,
                    shrunk=shrunk,
                    artifact_dir=location,
                )
            )
            report.found_total += 1

    with Session(session_config) as session:
        if config.seed_corpus and report.rounds == 0:
            # the documented suite exercises RMWs, dependencies, and
            # barriers — shapes outside the generator's vocabulary;
            # negative indices keep them out of the fuzz stream's
            # first-hit accounting
            from ..litmus.suite import SUITE

            suite_tests = list(SUITE)
            verdicts = evaluate(session, suite_tests)
            for position, (test, verdict) in enumerate(
                zip(suite_tests, verdicts)
            ):
                observe_case(test, None, -(position + 1), verdict)

        while True:
            if config.budget.count is not None:
                remaining = config.budget.count - report.next_index
                if remaining <= 0:
                    break
                batch = min(config.round_size, remaining)
            else:
                if time.perf_counter() - started >= config.budget.seconds:
                    break
                batch = config.round_size
            if report.found_total >= config.max_found:
                break

            bias: Optional[GenBias] = None
            if config.steer and len(report.coverage):
                bias = bias_from_coverage(report.coverage, config.boost)
            cases = [
                generate_case(config.seed, i, bias)
                for i in range(report.next_index, report.next_index + batch)
            ]
            verdicts = evaluate(session, [case.test for case in cases])
            for case, verdict in zip(cases, verdicts):
                report.stats.record(verdict)
                observe_case(case, case.cycle, case.index, verdict)
                handle_discrepancies(case, verdict)
            report.next_index += batch
            report.rounds += 1
            if config.checkpoint is not None:
                save_checkpoint(config.checkpoint, report)
            if progress is not None:
                progress(report)

    report.elapsed = time.perf_counter() - started
    return report


def write_corpus(
    report: FarmReport,
    directory: str,
    extra_tests: Sequence[LitmusTest] = (),
) -> List[str]:
    """Distill the farm's candidates into a regression corpus directory.

    Emits one ``<name>.litmus`` per selected test plus a deterministic
    ``MANIFEST.json`` recording, per test, its canonical-form hash and
    the features it contributes, and the digest of the preserved
    frontier.  ``extra_tests`` (e.g. hand-pinned axiom probes) are
    always included, after the distilled selection.

    The recorded hash is of the *parsed-back* file: litmus text cannot
    carry ``search_opts`` (kept in the manifest instead and re-applied
    by the loader) and the parser re-infers grid shape padding, so
    hashing the round-tripped form is what lets the loader verify the
    committed files byte-for-byte without false staleness.
    """
    from ..litmus.parser import parse_litmus
    from ..litmus.serialize import _search_opts_to_obj, test_from_dict

    selected = report.distilled()
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, Dict] = {}
    frontier: set = set()

    def emit(test: LitmusTest, features, origin: str) -> None:
        safe = test.name.replace("/", "_")
        text = test_to_litmus(test)
        (target / f"{safe}.litmus").write_text(text)
        manifest[test.name] = {
            "file": f"{safe}.litmus",
            "hash": canonical_test_hash(parse_litmus(text)),
            "origin": origin,
            "features": sorted(features),
        }
        if test.search_opts:
            manifest[test.name]["search_opts"] = _search_opts_to_obj(
                dict(test.search_opts)
            )
        frontier.update(features)

    for name in selected:
        record = report.candidates[name]
        emit(
            test_from_dict(record["test"]), record["features"],
            f"distilled (seed {report.config.seed}, index {record['index']})",
        )
    for test in extra_tests:
        emit(test, case_features(test), "pinned probe")

    payload = {
        "schema": FARM_SCHEMA,
        "seed": report.config.seed,
        "frontier_size": len(frontier),
        "coverage_digest": report.coverage.digest(),
        "tests": dict(sorted(manifest.items())),
    }
    (target / "MANIFEST.json").write_text(canonical_json(payload) + "\n")
    # a probe can share a name with a distilled candidate (the suite
    # seeds); the later emit wins the manifest entry, so dedup here too
    return list(
        dict.fromkeys(selected + [t.name for t in extra_tests])
    )
