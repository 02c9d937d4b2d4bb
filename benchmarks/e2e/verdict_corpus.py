"""verdict-corpus: the decision procedure alone, in one process.

182 litmus texts — the 41-test suite, CORPUS4 (48), the regression
corpus (29) and 64 seeded fuzz cases — each parsed and decided at the
default ``RunConfig``.  A window is one pass over all of them, in a
seeded-shuffled order.  Nearly all time is in the enumerator, so a
change to ``search.ptx_search`` or the relation kernels shows here,
while start-up and serving are absent.

The cold op is a fresh process's first pass: work moved into lazy
set-up (a compile cache, say) shows there.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from statistics import median
from typing import List, Tuple

from common import (
    WorkloadResult,
    fastest,
    fuzz_texts,
    percentile,
    regression_texts,
    setup_probes,
    suite_texts,
)

NAME = "verdict-corpus"
FUZZ_CASES = 64
SETUP_PROBES = 5


def texts(seed: int) -> List[str]:
    from repro.litmus.corpus import corpus4
    from repro.litmus.serialize import test_to_litmus

    return (
        suite_texts()
        + [test_to_litmus(generated.test) for _, _, generated in corpus4()]
        + regression_texts()
        + fuzz_texts(seed, 0, FUZZ_CASES)
    )


probe_texts = texts


def _decide_all(inputs: List[str], tracer=None):
    from repro.litmus import RunConfig, parser, runner

    config = RunConfig()
    verdicts = []
    for text in inputs:
        with tracer.span("op.verdict") if tracer else nullcontext():
            verdicts.append(runner.run_litmus(parser.parse_litmus(text), config))
    return verdicts


def setup_probe(seed: int) -> Tuple[float, int]:
    """Build the inputs, then time the cold first pass."""
    inputs = texts(seed)
    started = time.perf_counter()
    _decide_all(inputs)
    return time.perf_counter() - started, len(inputs)


def run(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    from repro.litmus import RunConfig, parser, runner
    from repro.litmus.suite import SUITE

    result = WorkloadResult()
    setup, cold = [], []
    if tracer is None:
        setup, cold = setup_probes(NAME, seed, SETUP_PROBES)
    inputs = texts(seed)
    first = _decide_all(inputs, tracer)
    config = RunConfig()

    rng = random.Random(seed)
    order = list(range(len(inputs)))
    passes: List[List[float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rng.shuffle(order)
        latencies = []
        for index in order:
            started = time.perf_counter()
            with tracer.span("op.verdict") if tracer else nullcontext():
                verdict = runner.run_litmus(parser.parse_litmus(inputs[index]), config)
            latencies.append(time.perf_counter() - started)
            result.attempted += 1
            if verdict.status != "ok" or verdict.outcomes != first[index].outcomes:
                result.failed += 1
        passes.append(latencies)

    # the gates: outcome sets against the frozenset reference kernel,
    # and the documented verdicts of the suite
    reference = RunConfig(kernel="set")
    for text, verdict in zip(inputs, first):
        expected = runner.run_litmus(parser.parse_litmus(text), reference)
        result.check(
            verdict.status == "ok" and verdict.outcomes == expected.outcomes,
            f"{verdict.test.name}: outcomes differ from the set kernel",
        )
    for test, verdict in zip(SUITE, first):
        result.check(
            verdict.matches_expectation is not False,
            f"{test.name}: verdict {verdict.verdict.value} contradicts the suite",
        )
    if tracer is not None:
        return result
    kept = fastest(passes, key=sum)
    ops = [1000 * latency for latencies in kept for latency in latencies]
    cold_kept = fastest(cold, key=float, minimum=1)
    result.put("setup_s", median(setup), "s", len(setup))
    result.put("ops_per_s", 1000 * len(ops) / sum(ops), "1/s", len(ops))
    result.put("p50_ms", median(ops), "ms", len(ops))
    result.put("cold_ms", 1000 * median(cold_kept), "ms", len(cold_kept))
    result.notes.append(
        f"{NAME} {len(kept)} of {len(passes)} passes kept "
        f"({len(inputs)} tests each); p90 {percentile(ops, 90):.3f} ms; "
        "cold pass per test "
        + ", ".join(f"{1000 * c:.3f}" for c in cold) + " ms"
    )
    return result
