"""farm: the fuzzing farm's differential battery.

One ``run_farm`` on a wall-clock budget (one worker, rounds of
:data:`ROUND` cases, each round one window).  Every case runs through
the eleven engine specs of the default battery; the SAT and model-zoo
engines dominate and ptx enumeration is a small share, so a change that
speeds one engine and slows another shows here.  An op's latency is
the summed engine time of one case, read from the ``elapsed`` field of
the results the farm's ``Session`` returns.

The farm runs the blind case stream (``steer=False``; with steering
off, the round size changes no case).  The steered stream is a bug
hunt: at seed 20261016 it reaches, at case 344, an outcome set on
which the enumerative and symbolic-enum engines disagree, and a
benchmark that times the battery must not depend on whether a run
finds a bug.  Coverage is still collected.

The cold op is a fresh process's first round, suite seeding included.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext
from statistics import median
from typing import Dict, List, Tuple

from common import (
    MIXED_WORK_SHARE,
    WorkloadResult,
    fastest,
    fuzz_texts,
    percentile,
    setup_probes,
)

NAME = "farm"
ROUND = 16
SETUP_PROBES = 3
PROBE_CASES = 48


def _config(seed: int, budget):
    from repro.api import FarmConfig

    return FarmConfig(seed=seed, budget=budget, jobs=1, steer=False,
                      round_size=ROUND)


def setup_probe(seed: int) -> Tuple[float, int]:
    """Time a fresh process's first round, suite seeding included."""
    from repro.api import run_farm
    from repro.fuzz.harness import FuzzBudget
    from repro.litmus.suite import SUITE

    started = time.perf_counter()
    run_farm(_config(seed, FuzzBudget(count=ROUND)))
    return time.perf_counter() - started, ROUND + len(SUITE)


def probe_texts(seed: int) -> List[str]:
    return fuzz_texts(seed, 0, PROBE_CASES)


def run(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    from repro.api import run_farm
    from repro.fuzz.harness import FuzzBudget
    from repro.litmus.session import Session

    result = WorkloadResult()
    setup, cold = [], []
    if tracer is None:
        setup, cold = setup_probes(NAME, seed, SETUP_PROBES)

    # one entry per Session.run_tasks call (the suite seeding, then one
    # per round): when it returned and each case's summed engine time
    calls: List[Tuple[float, List[float]]] = []
    run_tasks = Session.run_tasks

    def observed_run_tasks(self, tasks):
        results = run_tasks(self, tasks)
        per_case: Dict[str, float] = defaultdict(float)
        for (test, _), outcome in zip(tasks, results):
            per_case[test.name] += outcome.elapsed or 0.0
        calls.append((time.perf_counter(), list(per_case.values())))
        return results

    round_ends: List[float] = []
    Session.run_tasks = observed_run_tasks
    try:
        with tracer.span("op.farm") if tracer else nullcontext():
            report = run_farm(
                _config(seed, FuzzBudget(seconds=seconds)),
                progress=lambda _report: round_ends.append(time.perf_counter()),
            )
    finally:
        Session.run_tasks = run_tasks

    stats = report.stats
    result.attempted = stats.generated
    result.failed = stats.discrepancies + stats.undecided
    result.check(stats.discrepancies == 0,
                 f"{stats.discrepancies} engine discrepancies")
    result.check(stats.undecided == 0, f"{stats.undecided} undecided checks")
    result.check(len(round_ends) >= 4, "the farm ran fewer than four rounds")
    if tracer is not None or not result.correct:
        return result
    # window i: round i, from the end of the previous round (or of the
    # suite seeding) to the progress callback that closes it
    starts = [calls[0][0]] + round_ends[:-1]
    windows = [
        (end - start, case_times)
        for start, end, (_, case_times) in zip(starts, round_ends, calls[1:])
    ]
    kept = fastest(windows, key=lambda window: window[0], share=MIXED_WORK_SHARE)
    ops = [1000 * t for _, case_times in kept for t in case_times]
    cold_kept = fastest(cold, key=float, minimum=1)
    result.put("setup_s", median(setup), "s", len(setup))
    result.put("ops_per_s", len(ops) / sum(w for w, _ in kept), "1/s", len(ops))
    result.put("p50_ms", median(ops), "ms", len(ops))
    result.put("cold_ms", 1000 * median(cold_kept), "ms", len(cold_kept))
    result.notes.append(
        f"{NAME} {len(kept)} of {len(windows)} rounds kept; p90 "
        f"{percentile(ops, 90):.2f} ms; {stats.generated} cases; {stats.format()}"
    )
    return result
