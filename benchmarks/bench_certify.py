"""Certification overhead: the --certify suite vs the plain suite.

Guards the certificate subsystem's acceptance criterion: a certified
sweep of the full litmus suite must stay within 3x the wall clock of an
uncertified sweep.  The overhead is the proof-logging solve plus the
independent RUP/witness re-check; both are small next to the relational
translation that dominates each test.

Also asserts the trust properties the overhead pays for: every verdict
carries a certificate record, no certificate fails, and every
symbolically decidable test's certificate is checker-verified.

Both timed sweeps start from a cleared compile cache, the state each
``ptxmm suite`` process starts in: otherwise whatever ran earlier in the
same process (other benchmarks) warms the cache for the plain sweep
only, since the certified path reuses nothing from it, and the ratio
depends on test order.

Timings and per-status certificate counts land in
``benchmark.extra_info`` (see EXPERIMENTS.md, "Certification overhead").
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.lang import clear_compile_cache
from repro.litmus import SUITE, RunConfig, Session


def _sweep(config: RunConfig):
    clear_compile_cache()
    with Session(config) as session:
        results = session.run_suite(SUITE)
        stats = session.stats
    return results, stats


def test_certified_suite_within_3x_of_plain(benchmark):
    plain_start = time.perf_counter()
    plain_results, _ = _sweep(RunConfig())
    plain_elapsed = time.perf_counter() - plain_start

    certified_start = time.perf_counter()
    certified_results, stats = benchmark.pedantic(
        _sweep, args=(RunConfig(certify=True),), rounds=1, iterations=1
    )
    certified_elapsed = time.perf_counter() - certified_start

    # Certification must never change a verdict.
    assert [(r.test.name, r.verdict) for r in certified_results] == \
        [(r.test.name, r.verdict) for r in plain_results]

    # Every verdict carries a certificate record; none failed.
    assert all(r.certificate is not None for r in certified_results)
    assert stats.cert_failed == 0
    assert stats.certified + stats.cert_skipped == len(SUITE)
    assert stats.certified > stats.cert_skipped  # most tests are decidable

    overhead = (
        certified_elapsed / plain_elapsed if plain_elapsed else float("inf")
    )
    benchmark.extra_info["plain_s"] = round(plain_elapsed, 3)
    benchmark.extra_info["certified_s"] = round(certified_elapsed, 3)
    benchmark.extra_info["overhead_x"] = round(overhead, 2)
    benchmark.extra_info["certified"] = stats.certified
    benchmark.extra_info["cert_skipped"] = stats.cert_skipped
    check_time = sum(
        r.certificate.check_time
        for r in certified_results
        if r.certificate is not None
    )
    benchmark.extra_info["checker_s"] = round(check_time, 3)
    assert overhead <= 3.0, (
        f"certified sweep {certified_elapsed:.3f}s exceeds 3x the plain "
        f"sweep {plain_elapsed:.3f}s ({overhead:.2f}x)"
    )
