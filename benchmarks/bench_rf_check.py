"""rf-check engine benchmark: reads-from saturation vs full enumeration.

Measures ``rf_check_outcomes`` against ``allowed_outcomes`` on generated
store-buffering chains of growing width (``"PodWW Wse" * n`` under the
``relaxed.gpu`` variant): *n* threads, *n* locations, two writes per
location.  The enumerative engine's coherence search grows as ``2^n``
(one binary order choice per location, taken as a product), while the
saturation engine decides each location independently — ``2n``
candidates — so the speedup crosses over and then compounds with size.

Outcome sets are asserted equal before any timing is recorded, so an
unsound saturation pass cannot masquerade as a speedup.

Emits ``BENCH_rf_check.json`` next to this file.  ``--check
BASELINE.json`` is the CI perf-smoke gate.  It exits non-zero when, at
any measured size *n*, a work counter is off — the enumerative engine
must check exactly ``2^n`` co candidates, rf-check exactly ``2n``, with
no fallback (exact on any machine) — or when the measured speedup at
the largest common size drops below a third of the committed baseline's
(a ratio, so machine-independent, unlike absolute times).

Usage::

    python benchmarks/bench_rf_check.py [--quick] [--out PATH]
                                        [--check BASELINE]

Functions are named ``measure_*`` so pytest does not collect this file
as a test module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.litmus.compare import VARIANTS  # noqa: E402
from repro.litmus.generator import generate  # noqa: E402
from repro.search.ptx_search import allowed_outcomes  # noqa: E402
from repro.search.records import EnumStats  # noqa: E402
from repro.search.rf_check import rf_check_outcomes  # noqa: E402

#: Chain widths (threads = locations = n).  Enumerative work is ~2^n co
#: candidates per rf choice, so 10 is already ~1000x the size-4 search.
FULL_SIZES = (4, 6, 8, 10)
QUICK_SIZES = (4, 6, 8)

#: Historical reference, measured once (best-of-3, warm process) when
#: the engine landed: size 8 ran 7.6x faster under rf-check and size 10
#: 43x, with candidates_checked 2n vs 2^n exactly as the decomposition
#: argument predicts.  Context only — the --check gate compares freshly
#: measured ratios, never these numbers.
REFERENCE = {
    "cycle": "PodWW Wse chain, relaxed.gpu",
    "speedup_at_8": 7.6,
    "speedup_at_10": 43.0,
}


def _chain_test(n: int):
    spec = " ".join(["PodWW Wse"] * n)
    return generate(spec, **VARIANTS["relaxed.gpu"]).test


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_crossover(quick: bool) -> dict:
    """Per-size timings, speedups, and candidate counters."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    repeat = 1 if quick else 3
    per_size: dict = {}
    for n in sizes:
        test = _chain_test(n)
        program = test.program

        # soundness first: refuse to time engines that disagree
        enum_stats = EnumStats()
        rf_stats = EnumStats()
        enum_outcomes = allowed_outcomes(program, stats=enum_stats)
        rf_outcomes = rf_check_outcomes(program, stats=rf_stats)
        if enum_outcomes != rf_outcomes:
            raise AssertionError(
                f"engine outcome mismatch at size {n}: the benchmark "
                "refuses to time an unsound engine"
            )
        if rf_stats.fallbacks:
            raise AssertionError(
                f"rf-check fell back to enumeration at size {n}: the "
                "crossover numbers would silently measure the wrong engine"
            )

        enum_s = _time(lambda: allowed_outcomes(program), repeat)
        rf_s = _time(lambda: rf_check_outcomes(program), repeat)
        per_size[str(n)] = {
            "threads": n,
            "outcomes": len(enum_outcomes),
            "enum_s": enum_s,
            "rf_check_s": rf_s,
            "speedup": enum_s / rf_s if rf_s else float("inf"),
            "enum_candidates": enum_stats.candidates_checked,
            "rf_check_candidates": rf_stats.candidates_checked,
            "saturation_steps": rf_stats.saturation_steps,
            "fallbacks": rf_stats.fallbacks,
        }
    return per_size


def measure(quick: bool) -> dict:
    sizes = measure_crossover(quick)
    return {
        "schema": 1,
        "quick": quick,
        "sizes": sizes,
        "reference": REFERENCE,
    }


def _gate_size(report: dict) -> str:
    """The largest size present in a report (quick runs stop at 8)."""
    return str(max(int(k) for k in report["sizes"]))


def check_counters(current: dict) -> int:
    """Exact work-counter gate at every measured size ``n``: ``2^n``
    enumerative co candidates, ``2n`` rf-check ones, no fallback."""
    failed = 0
    for size, row in current["sizes"].items():
        n = int(size)
        expected = {
            "enum_candidates": 2 ** n,
            "rf_check_candidates": 2 * n,
            "fallbacks": 0,
        }
        for key, want in expected.items():
            if row[key] != want:
                print(f"FAIL: size {n}: {key} = {row[key]}, expected {want}")
                failed = 1
    if not failed:
        print("ok: candidate counts 2^n / 2n and no fallbacks at every size")
    return failed


def check_regression(current: dict, baseline: dict) -> int:
    """Ratio-based regression gate at the largest *common* size: fail
    when the measured rf-check speedup drops below a third of the
    committed baseline's (absolute times are machine-dependent; ratios
    survive hardware changes)."""
    common = set(current["sizes"]) & set(baseline["sizes"])
    if not common:
        print("FAIL: no common sizes between report and baseline")
        return 1
    size = str(max(int(k) for k in common))
    base = baseline["sizes"][size]["speedup"]
    now = current["sizes"][size]["speedup"]
    floor = base / 3.0
    print(
        f"rf-check speedup at size {size}: baseline {base:.2f}x, "
        f"measured {now:.2f}x, floor {floor:.2f}x"
    )
    if now < floor:
        print("FAIL: rf-check speedup regressed past the 3x margin")
        return 1
    print("ok: rf-check speedup within the regression margin")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="stop at size 8 and time once per engine (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).parent / "BENCH_rf_check.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE",
        help="check the exact candidate counters, and compare speedup "
        "ratios against a committed baseline JSON; exit 1 on a counter "
        "mismatch or a >3x regression at the largest common size",
    )
    args = parser.parse_args(argv)

    # read the baseline before writing anything: --check and --out may
    # name the same file, and the comparison must be against the
    # committed numbers, not the report we are about to emit
    baseline = json.loads(args.check.read_text()) if args.check else None
    report = measure(args.quick)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for size, row in sorted(report["sizes"].items(), key=lambda kv: int(kv[0])):
        print(
            f"size {size}: enum {row['enum_s']:.3f}s "
            f"({row['enum_candidates']} candidates), rf-check "
            f"{row['rf_check_s']:.3f}s ({row['rf_check_candidates']} "
            f"candidates) -> {row['speedup']:.2f}x"
        )
    gate = _gate_size(report)
    print(
        f"crossover: {report['sizes'][gate]['speedup']:.2f}x at size "
        f"{gate}; report -> {args.out}"
    )
    if baseline is not None:
        counters = check_counters(report)
        return check_regression(report, baseline) or counters
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
