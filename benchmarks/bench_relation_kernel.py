"""Relation-kernel benchmark: set vs compiled.

Measures the two relation kernels behind the enumerative searches
(README "Two relation kernels"):

* **micro** — each core operator (union, inter, join, transpose,
  transitive closure) on random suite-shaped relations, per universe
  size; reported as a ``Relation``/``BitRel`` time ratio per operator.
  ``BitRel`` is the value type the compiled kernel's generated code
  computes on; the kernel itself has no standalone operator surface —
  it fuses operators into per-axiom functions — so it only appears in
  the end-to-end sections;
* **end-to-end** — ``allowed_outcomes`` on standard-suite litmus tests
  under ``kernel="set"``/``"compiled"`` (identical outcome sets are
  asserted first, so a kernel bug cannot masquerade as a speedup);
* **heavy** — the enumeration-heavy subset (every test with >= 8
  candidate executions), timed with interleaved A/B rounds in a single
  process.  Alternating kernels within each round cancels machine
  drift, which separate-invocation timing does not; the compiled-vs-set
  ratio on this subset is the committed gate.

Emits ``BENCH_relation_kernel.json`` next to this file.  ``--check
BASELINE.json`` compares *speedup ratios* (machine-independent, unlike
absolute times) and exits non-zero when the compiled-vs-set speedup on
the heavy subset falls below the baseline's ``gates.compiled_vs_set_heavy``
floor: a third of the speedup measured when the baseline was committed.
The floor is applied to the subset *aggregate*, not per test, where
ratios would flap on noise.

Usage::

    python benchmarks/bench_relation_kernel.py [--quick] [--out PATH]
                                               [--check BASELINE]

Functions are named ``measure_*`` so pytest does not collect this file
as a test module.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.litmus import SUITE  # noqa: E402
from repro.litmus.runner import partition_opts  # noqa: E402
from repro.relation import BitRel, Relation, Universe  # noqa: E402
from repro.search.ptx_search import allowed_outcomes  # noqa: E402

KERNELS = ("set", "compiled")

#: Geometry-skewed test subset for --quick: the coherence pair exercises
#: the prune path, MP/WRC/ISA2 the co loop, IRIW the worst case.
QUICK_TESTS = (
    "CoRR", "CoRW", "MP+rel_acq.gpu", "WRC+rel_acq",
    "ISA2+rel_acq", "IRIW+rel_acq",
)

#: The enumeration-heavy suite tests (candidates_checked >= 8): the
#: population where per-candidate axiom evaluation dominates setup, so
#: kernel quality is actually visible.  The compiled-vs-set gate is
#: measured on this subset.
HEAVY_TESTS = (
    "IRIW+fence.sc",
    "CAS+handoff",
    "SB+fence.sc.gpu",
    "MP+fence.acq_rel",
    "IRIW+rel_acq",
    "WRC+rel_acq",
    "MP+v2_payload",
    "ISA2+rel_acq",
)

#: The committed gate's floor is the measured heavy-subset speedup
#: divided by this margin.
GATE_MARGIN = 3.0

#: Historical reference, measured once (best-of-5 per test, warm
#: process) against the pre-kernel engine at commit 3ea04ae: the full
#: standard suite went from 0.284s to 0.093s (3.1x overall), and the
#: enumeration-heavy tests cleared 5x — IRIW+fence.sc 55.8ms -> 9.8ms
#: (5.7x).  Kept for context only — the --check gate compares freshly
#: measured ratios, never these numbers.
REFERENCE = {
    "seed_commit": "3ea04ae",
    "suite_seconds_before": 0.284,
    "suite_seconds_after": 0.093,
    "suite_speedup": 3.1,
    "largest_single_test": {
        "name": "IRIW+fence.sc",
        "before_ms": 55.8,
        "after_ms": 9.8,
        "speedup": 5.7,
    },
}


def _random_pairs(rng: random.Random, n: int, density: float):
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if rng.random() < density
    ]


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_micro(quick: bool) -> dict:
    """Per-operator Relation/BitRel timing ratios on random relations."""
    rng = random.Random(20260806)
    sizes = (16, 48) if quick else (16, 48, 96)
    repeat = 3 if quick else 5
    inner = 20 if quick else 50
    out: dict = {}
    for n in sizes:
        atoms = list(range(n))
        u = Universe(atoms)
        p = _random_pairs(rng, n, 0.08)
        q = _random_pairs(rng, n, 0.08)
        rel_p, rel_q = Relation.pairs(p), Relation.pairs(q)
        bit_p, bit_q = BitRel.from_pairs(u, p), BitRel.from_pairs(u, q)
        ops = {
            "union": (lambda: rel_p | rel_q, lambda: bit_p | bit_q),
            "inter": (lambda: rel_p & rel_q, lambda: bit_p & bit_q),
            "join": (lambda: rel_p.join(rel_q), lambda: bit_p.join(bit_q)),
            "transpose": (rel_p.transpose, bit_p.transpose),
            "closure": (rel_p.closure, bit_p.closure),
        }
        per_size = {}
        for name, (set_fn, bit_fn) in ops.items():
            set_s = _time(lambda: [set_fn() for _ in range(inner)], repeat)
            bit_s = _time(lambda: [bit_fn() for _ in range(inner)], repeat)
            per_size[name] = {
                "set_s": set_s,
                "bit_s": bit_s,
                "speedup": set_s / bit_s if bit_s else float("inf"),
            }
        out[str(n)] = per_size
    return out


def _runner(test, kernel: str, opts: dict):
    def run():
        return allowed_outcomes(test.program, kernel=kernel, **opts)
    return run


def _assert_kernels_agree(test, opts: dict) -> None:
    """Warm both kernels (compilation happens here, outside the timed
    region) and refuse to time an unsound one."""
    outcomes = {k: _runner(test, k, opts)() for k in KERNELS}
    if outcomes["compiled"] != outcomes["set"]:
        raise AssertionError(
            f"kernel outcome mismatch on {test.name} (set vs compiled): "
            "the benchmark refuses to time an unsound kernel"
        )


def _interleaved(runners: dict, rounds: int, inner: int) -> dict:
    """Best per-call time per kernel, alternating kernels every round so
    machine drift hits all of them equally."""
    best = {kernel: float("inf") for kernel in runners}
    for _ in range(rounds):
        for kernel, run in runners.items():
            start = time.perf_counter()
            for _ in range(inner):
                run()
            best[kernel] = min(
                best[kernel], (time.perf_counter() - start) / inner
            )
    return best


def _timed(timings: dict) -> dict:
    """One row of the report: both kernels' seconds and their ratio."""
    return {
        "set_s": timings["set"],
        "compiled_s": timings["compiled"],
        "speedup": (
            timings["set"] / timings["compiled"]
            if timings["compiled"] else float("inf")
        ),
    }


def _measure_tests(tests, rounds: int, inner: int) -> dict:
    """Interleaved set/compiled timing per test, plus the aggregate."""
    per_test: dict = {}
    totals = {kernel: 0.0 for kernel in KERNELS}
    for test in tests:
        opts, _ = partition_opts("ptx", dict(test.search_opts))
        _assert_kernels_agree(test, opts)
        timings = _interleaved(
            {k: _runner(test, k, opts) for k in KERNELS}, rounds, inner
        )
        for kernel in KERNELS:
            totals[kernel] += timings[kernel]
        per_test[test.name] = _timed(timings)
    return {"tests": per_test, "total": _timed(totals)}


def measure_end_to_end(quick: bool) -> dict:
    """Full allowed_outcomes timing per kernel, per suite test."""
    tests = [t for t in SUITE if not quick or t.name in QUICK_TESTS]
    return _measure_tests(tests, rounds=2 if quick else 4, inner=1)


def measure_heavy(quick: bool) -> dict:
    """Compiled-vs-set on the enumeration-heavy subset, interleaved.

    This is the gate measurement: more rounds and an inner-repeat count
    large enough that each sample is tens of milliseconds, making the
    min-of-rounds estimate stable to a few percent."""
    by_name = {t.name: t for t in SUITE}
    rounds, inner = (4, 2) if quick else (10, 4)
    return _measure_tests(
        [by_name[name] for name in HEAVY_TESTS], rounds, inner
    )


def measure(quick: bool) -> dict:
    heavy = measure_heavy(quick)
    return {
        "schema": 3,
        "quick": quick,
        "micro": measure_micro(quick),
        "end_to_end": measure_end_to_end(quick),
        "heavy": heavy,
        "gates": {
            "compiled_vs_set_heavy": heavy["total"]["speedup"] / GATE_MARGIN
        },
        "reference": REFERENCE,
    }


def check_regression(current: dict, baseline: dict) -> int:
    """The ratio gate: fail when the compiled-vs-set heavy-subset
    speedup falls below the committed ``gates.compiled_vs_set_heavy``
    floor (absolute times are machine-dependent; ratios survive
    hardware changes)."""
    floor = baseline["gates"]["compiled_vs_set_heavy"]
    base = baseline["heavy"]["total"]["speedup"]
    now = current["heavy"]["total"]["speedup"]
    print(
        f"compiled-vs-set heavy-subset speedup: baseline {base:.2f}x, "
        f"measured {now:.2f}x, floor {floor:.2f}x"
    )
    if now < floor:
        print("FAIL: compiled kernel speedup regressed past the 3x margin")
        return 1
    print("ok: kernel speedup within the regression margin")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small operator sweep and a 6-test suite subset (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).parent / "BENCH_relation_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE",
        help="compare the heavy-subset speedup against a committed "
        "baseline JSON; exit 1 when it falls below the baseline's floor "
        "(a third of its measured compiled-vs-set speedup)",
    )
    args = parser.parse_args(argv)

    # read the baseline before writing anything: --check and --out may
    # name the same file, and the comparison must be against the
    # committed numbers, not the report we are about to emit
    baseline = json.loads(args.check.read_text()) if args.check else None
    report = measure(args.quick)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    total = report["end_to_end"]["total"]
    heavy = report["heavy"]["total"]
    print(
        f"end-to-end: set {total['set_s']:.3f}s, "
        f"compiled {total['compiled_s']:.3f}s ({total['speedup']:.2f}x)"
    )
    print(
        f"heavy subset: set {heavy['set_s'] * 1e3:.1f}ms, "
        f"compiled {heavy['compiled_s'] * 1e3:.1f}ms "
        f"({heavy['speedup']:.2f}x); report -> {args.out}"
    )
    if baseline is not None:
        return check_regression(report, baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
