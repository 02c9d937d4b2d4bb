#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 benchmarks/e2e/compare.py A*.json -- B*.json \\
        --held-out C*.json --baseline benchmarks/e2e/baseline.json

The files are run records written by ``run.py --out``; ``A`` is the
parent (or the first set), ``B`` the change (or the second set).  For
every (workload, metric) the script prints both sides' median and
quartiles, the share of index-aligned pairs B wins, and a verdict:

* ``improved`` — B wins at least 9 pairs in 10 (ties count for neither)
  and the medians differ by more than A's interquartile range;
* ``unresolved`` — A's own spread is wider than the metric's bound, and
  not every B run beats every A run;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.

Bounds and directions come from ``BENCHMARK.json`` (per-layer metrics
have no bound and are reported without a verdict).  The exit code is 1
when any end-to-end metric regressed or is unresolved, so "two sets of
the same code agree" is ``compare.py set1 -- set2`` exiting 0.
``--baseline FILE`` also writes the medians, quartiles and sample
counts of both sets (and of ``--held-out`` runs) with the commit, core
count and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, load_declaration, quartiles  # noqa: E402

WIN_SHARE = 0.9


def load_runs(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """Run records grouped by workload, in the order given."""
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        grouped[record["workload"]].append(record)
    return grouped


def values(records: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def verdict(before: List[float], after: List[float], better: str,
            bound: Optional[float]) -> dict:
    """The comparison of one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(before)
    b_q1, b_med, b_q3 = quartiles(after)
    pairs = list(zip(before, after))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    # positive = B is worse, as a share of A's median
    change = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    all_better = all(sign * (a - b) > 0 for a in before for b in after)
    row = {
        "a": [a_q1, a_med, a_q3], "b": [b_q1, b_med, b_q3],
        "n": [len(before), len(after)], "wins": wins / len(pairs) if pairs else 0.0,
        "change": change, "spread": spread,
    }
    if bound is None:
        row["verdict"] = "-"
    elif row["wins"] >= WIN_SHARE and change < 0 and abs(b_med - a_med) > a_q3 - a_q1:
        row["verdict"] = "improved"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif change > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(decl, before: Dict[str, List[dict]], after: Dict[str, List[dict]]):
    """Rows of (workload, metric, spec, comparison) for every shared pair."""
    rows = []
    for workload in decl.workloads:
        a_runs, b_runs = before.get(workload, []), after.get(workload, [])
        if not a_runs or not b_runs:
            continue
        traced = bool(a_runs[0]["trace"])
        for metric, spec in decl.metrics(traced).items():
            a, b = values(a_runs, metric), values(b_runs, metric)
            if a and b:
                rows.append((workload, metric, spec,
                             verdict(a, b, spec["better"], spec.get("bound"))))
    return rows


def summary(runs: Dict[str, List[dict]]) -> Dict[str, dict]:
    """Median, quartiles and sample count per (workload, metric)."""
    out: Dict[str, dict] = {}
    for workload, records in sorted(runs.items()):
        metrics = {}
        for metric in records[0]["metrics"]:
            q1, med, q3 = quartiles(values(records, metric))
            metrics[metric] = {
                "median": med, "q1": q1, "q3": q3, "n": len(records),
                "unit": records[0]["metrics"][metric]["unit"],
            }
        out[workload] = {
            "seeds": sorted({r["seed"] for r in records}),
            "seconds": records[0]["seconds"],
            "all_correct": all(r["correct"] for r in records),
            "metrics": metrics,
        }
    return out


def _cell(q1: float, med: float, q3: float) -> str:
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="compare.py")
    parser.add_argument("after", nargs="+", help="run records of set B")
    parser.add_argument("--held-out", nargs="+", default=[],
                        help="run records at the held-out seed (baseline only)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="write both sets' summaries to FILE")
    args = parser.parse_args(argv[split + 1:])
    decl = load_declaration()
    before, after = load_runs(argv[:split]), load_runs(args.after)

    failing = 0
    print(f"{'workload':<15} {'metric':<46} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'change':>7} {'wins':>5} {'bound':>6}  verdict")
    for workload, metric, spec, row in compare(decl, before, after):
        bound = spec.get("bound")
        print(f"{workload:<15} {metric:<46} {_cell(*row['a']):<30} "
              f"{_cell(*row['b']):<30} {row['change']:>+7.1%} {row['wins']:>5.0%} "
              f"{'' if bound is None else f'{bound:.0%}':>6}  {row['verdict']}")
        failing += row["verdict"] in ("regressed", "unresolved")

    if args.baseline:
        payload = {
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "set_a": summary(before),
            "set_b": summary(after),
            "held_out": summary(load_runs(args.held_out)),
        }
        Path(args.baseline).write_text(json.dumps(payload, indent=1) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
