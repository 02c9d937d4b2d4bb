"""The pieces every fuzz run shares: budgets, counters, artifacts, recheck.

The one fuzz loop is :func:`repro.fuzz.farm.run_farm`; ``ptxmm fuzz``
runs it blind (no steering, no suite seeding, no checkpoint) and
``ptxmm farm`` runs it steered.  This module holds what that loop and
its callers share: the :class:`FuzzBudget` (a case count or a
wall-clock limit), the :class:`FuzzStats` counters and their JSON form,
the shrink predicate, artifact emission, and :func:`recheck_artifact`.

Reproducibility contract: with a count budget, a blind run is a pure
function of ``(seed, budget, checks)`` — the generated tests, the
per-check counters, and any discrepancies found are identical across
runs, job counts, and machines.  Wall-clock budgets necessarily vary in
how *far* they get, but the case stream itself is still the same, so
any case a timed run found can be replayed by index.

On a discrepancy the loop shrinks the failing test (re-checking
candidates in-process against the same check battery) and, given an
artifact directory, :func:`write_artifact` writes
``repro-<kind>-<hash>/`` containing the shrunk ``repro.litmus``
(parseable, with the seed in a comment header), the unshrunk
``original.litmus``, and a machine-readable ``report.json``.  The hash
is the canonical-form hash of the shrunk test, so two cases that
minimize to the same repro share one artifact — index-based names
collided when ``--max-found`` raced the jobs pool, and hid the fact
that a hundred "findings" were one bug.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..litmus.config import RunConfig
from ..litmus.parser import parse_litmus
from ..litmus.serialize import canonical_json, test_to_dict, test_to_litmus
from ..litmus.test import LitmusTest
from ..registry import DEFAULT_KERNEL
from .gen import FuzzCase
from .oracle import CaseVerdict, Check, Discrepancy, Oracle, default_checks
from .shrink import EngineCrash, ShrinkResult, shrink

_BUDGET_RE = re.compile(r"^(\d+)\s*(s|m|h)?$")


@dataclass(frozen=True)
class FuzzBudget:
    """How long to fuzz: a case count or a wall-clock limit."""

    count: Optional[int] = None
    seconds: Optional[float] = None

    def __post_init__(self):
        if (self.count is None) == (self.seconds is None):
            raise ValueError("budget needs exactly one of count/seconds")
        if self.count is not None and self.count <= 0:
            raise ValueError("budget count must be positive")
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError("budget seconds must be positive")

    @classmethod
    def parse(cls, text: str) -> "FuzzBudget":
        """``"200"`` = 200 cases; ``"60s"``/``"5m"``/``"1h"`` = wall clock."""
        match = _BUDGET_RE.match(text.strip())
        if not match:
            raise ValueError(
                f"bad budget {text!r}: use a count ('200') or a duration "
                "('60s', '5m', '1h')"
            )
        amount, unit = int(match.group(1)), match.group(2)
        if unit is None:
            return cls(count=amount)
        return cls(seconds=amount * {"s": 1, "m": 60, "h": 3600}[unit])

    def __str__(self) -> str:
        if self.count is not None:
            return str(self.count)
        return f"{int(self.seconds)}s"


@dataclass
class FuzzStats:
    """Deterministic counters for one fuzz run (time kept separate)."""

    generated: int = 0
    #: (test, check) pairs that ran to a comparison
    checks_run: int = 0
    #: (test, check) pairs skipped for engine timeout/error
    undecided: int = 0
    discrepancies: int = 0
    #: discrepancies whose shrunk repro duplicated an earlier finding
    #: (same check kind, same canonical-form hash)
    deduped: int = 0
    #: per-check-kind agree counts
    by_check: Dict[str, int] = field(default_factory=dict)

    def record(self, verdict: CaseVerdict) -> None:
        self.generated += 1
        self.checks_run += len(verdict.agreed) + len(verdict.discrepancies)
        self.undecided += len(verdict.undecided)
        self.discrepancies += len(verdict.discrepancies)
        for kind in verdict.agreed:
            self.by_check[kind] = self.by_check.get(kind, 0) + 1

    def as_dict(self) -> Dict:
        """The JSON form stored in farm checkpoints."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FuzzStats":
        """Inverse of :meth:`as_dict`; absent counters read as zero."""
        by_check = {
            str(k): int(v) for k, v in dict(data.get("by_check", {})).items()
        }
        counters = {
            f.name: int(data.get(f.name, 0))
            for f in fields(cls) if f.name != "by_check"
        }
        return cls(by_check=by_check, **counters)

    def format(self) -> str:
        per_check = " ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_check.items())
        )
        return (
            f"generated={self.generated} checks={self.checks_run} "
            f"undecided={self.undecided} discrepancies={self.discrepancies}"
            + (f" deduped={self.deduped}" if self.deduped else "")
            + (f" [{per_check}]" if per_check else "")
        )


@dataclass(frozen=True)
class FoundDiscrepancy:
    """One discrepancy plus its minimized repro and artifact location."""

    case: FuzzCase
    discrepancy: Discrepancy
    shrunk: ShrinkResult
    artifact_dir: Optional[str] = None


def canonical_test_hash(test: LitmusTest) -> str:
    """Canonical-form hash of a test: program + condition, nothing else.

    Naming metadata (name, description, figure) and documented verdicts
    are stripped before hashing, so two generated tests that reduce to
    the same program and condition — regardless of which fuzz index
    produced them — hash identically.  This is the dedup key for
    shrunk artifacts and the farm's corpus candidates.
    """
    payload = test_to_dict(test)
    for key in ("name", "description", "figure", "expect", "expect_other"):
        payload.pop(key, None)
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:12]


def _repro_header(case: FuzzCase, discrepancy: Discrepancy) -> str:
    return (
        f"// ptxmm fuzz repro — seed {case.seed}, case {case.index}\n"
        f"// check: {discrepancy.kind} "
        f"({discrepancy.left_label} vs {discrepancy.right_label})\n"
        f"// detail: {discrepancy.detail}\n"
    )


def write_artifact(
    directory: Path,
    case: FuzzCase,
    discrepancy: Discrepancy,
    shrunk: ShrinkResult,
) -> Path:
    """Dump one discrepancy: shrunk repro, original test, JSON report.

    The directory name keys on the *shrunk* test's canonical-form hash:
    cases that minimize to the same repro land in the same directory
    (last writer wins — the contents describe the same bug).
    """
    target = (
        directory
        / f"repro-{discrepancy.kind}-{canonical_test_hash(shrunk.test)}"
    )
    target.mkdir(parents=True, exist_ok=True)
    header = _repro_header(case, discrepancy)
    (target / "repro.litmus").write_text(
        header + test_to_litmus(shrunk.test)
    )
    (target / "original.litmus").write_text(
        header + test_to_litmus(case.test)
    )
    (target / "report.json").write_text(
        json.dumps(
            {
                "seed": case.seed,
                "index": case.index,
                "cycle": case.cycle,
                "kind": discrepancy.kind,
                "left": discrepancy.left_label,
                "right": discrepancy.right_label,
                "detail": discrepancy.detail,
                "shrink_steps": shrunk.steps,
                "shrink_attempts": shrunk.attempts,
                "shrink_crashes": shrunk.crashes,
                "shrink_crash_details": list(shrunk.crash_details),
                "original_test": test_to_dict(case.test),
                "shrunk_test": test_to_dict(shrunk.test),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return target


def _shrink_predicate(
    oracle: Oracle, kind: str
) -> Callable[[LitmusTest], bool]:
    """Does a candidate still exhibit a discrepancy of the same kind?

    An engine *crash* on the checked kind raises
    :class:`~repro.fuzz.shrink.EngineCrash` instead of returning False:
    "the engine blew up on this candidate" must not shrink-step as if
    the discrepancy had disappeared.
    """

    def still_fails(candidate: LitmusTest) -> bool:
        verdict = oracle.evaluate_one(candidate)
        if any(d.kind == kind for d in verdict.discrepancies):
            return True
        for error_kind, detail in verdict.errors:
            if error_kind == kind:
                raise EngineCrash(detail)
        return False

    return still_fails


def recheck_artifact(
    path: str,
    perturb: Optional[str] = None,
    checks: Optional[Sequence[Check]] = None,
    timeout: Optional[float] = 20.0,
    shrink_attempts: int = 2000,
    kernel: str = DEFAULT_KERNEL,
) -> Tuple[CaseVerdict, Optional[ShrinkResult]]:
    """Replay a CI artifact: parse the litmus file, re-run the oracle,
    and re-shrink if the discrepancy still reproduces.

    Accepts either of the emitted files (``repro.litmus`` or
    ``original.litmus``) — or any parseable litmus file.  Returns the
    oracle's verdict on the parsed test and, when it still finds a
    discrepancy, a fresh shrink of it (None otherwise).
    """
    test = parse_litmus(Path(path).read_text())
    oracle = Oracle(
        checks if checks is not None else default_checks(perturb),
        base_config=RunConfig(timeout=timeout, kernel=kernel),
    )
    verdict = oracle.evaluate_one(test)
    if verdict.clean:
        return verdict, None
    kind = verdict.discrepancies[0].kind
    shrunk = shrink(
        test, _shrink_predicate(oracle, kind), max_attempts=shrink_attempts
    )
    return verdict, shrunk
