#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the PTX memory-model checker.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload verdict-corpus --seed 7 \\
        --seconds 10 --trace 0 [--out run.json]
    python3 benchmarks/e2e/run.py --seed 7     # every workload in turn

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload with spans on and reports the per-layer metrics, writes the
spans as Chrome trace-event JSON (``--trace-out``, default under
``benchmarks/e2e/out/``) and prints each layer's self time and share.
Every metric is printed as ``workload metric value unit n=<samples>``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness gate fails and 2 when the checkout cannot run the
benchmark (then no result is printed).

The workloads, metrics and bounds are declared in ``BENCHMARK.json``
at the root; the layer map and seeds in ``layers.json`` beside this
file.  A run that would emit an undeclared metric or omit a declared
one fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    SetupError,
    WorkloadResult,
    load_declaration,
    require_sources,
    scratch,
)

WORKLOADS = {
    "cli-oneshot": "cli_oneshot",
    "verdict-corpus": "verdict_corpus",
    "farm": "farm",
    "serve-mixed": "serve_mixed",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: layers.json seeds.default)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="where --trace 1 writes its trace-event JSON")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the run record as JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _run_traced(module, seed: int, seconds: float, trace_path: Path) -> WorkloadResult:
    from layers import per_layer
    from spans import Tracer, format_table, layer_table, write_chrome

    # the traced serving run computes off the main thread, where every
    # deadline is cooperative by design; the daemon silences this too
    from repro.core.deadline import DeadlineNotPreemptive

    warnings.filterwarnings("ignore", category=DeadlineNotPreemptive)
    tracer = Tracer()
    tracer.install()
    try:
        with scratch("probe-") as tmp:
            result = module.run(seed, seconds, tracer)
            workload_spans = list(tracer.spans)
            per_layer(result, tracer, module.probe_texts(seed), seed, tmp)
    finally:
        tracer.uninstall()
    write_chrome(tracer.spans, trace_path)
    result.notes.append(f"trace: {len(tracer.spans)} spans -> {trace_path}")
    result.notes.extend(format_table(layer_table(workload_spans)))
    return result


def _record(name: str, seed: int, seconds: float, traced: bool,
            result: WorkloadResult, declared: dict) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "metrics": {
            metric: {
                "value": result.metrics[metric].value,
                "unit": declared[metric]["unit"],
                "n": result.metrics[metric].n,
            }
            for metric in declared
        },
    }


def run_one(args, decl, seed: int, seconds: float) -> int:
    name = args.workload
    module = importlib.import_module(WORKLOADS[name])
    if args.setup_only:
        print(*module.setup_probe(seed))
        return 0
    traced = args.trace == 1
    started = time.perf_counter()
    if traced:
        trace_path = Path(args.trace_out) if args.trace_out else (
            OUT / f"trace-{name}-{seed}.json")
        result = _run_traced(module, seed, seconds, trace_path)
    else:
        result = module.run(seed, seconds)
    wall = time.perf_counter() - started

    declared = decl.metrics(traced)
    missing = sorted(set(declared) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(declared))
    wrong_unit = sorted(
        metric for metric in set(declared) & set(result.metrics)
        if result.metrics[metric].unit != declared[metric]["unit"]
    )
    if missing or extra or wrong_unit:
        print(f"error: metrics disagree with BENCHMARK.json: missing={missing} "
              f"undeclared={extra} unit mismatch={wrong_unit}", file=sys.stderr)
        return 2

    for note in result.notes:
        print(note)
    for error in result.errors:
        print(f"{name} gate failed: {error}", file=sys.stderr)
    for metric, spec in declared.items():
        measured = result.metrics[metric]
        print(f"{name} {metric} {measured.value:.6g} {spec['unit']} n={measured.n}")
    print(f"{name} wall time {wall:.1f} s", file=sys.stderr)
    record = _record(name, seed, seconds, traced, result, declared)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"] if record["attempted"] else 1,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in record["metrics"].items()
        },
    }))
    return 0 if result.correct else 1


def run_all(args, decl, seed: int, seconds: float) -> int:
    """Every workload in its own process, one after another."""
    summary = {}
    status = 0
    with scratch("all-") as tmp:
        for name in decl.workloads:
            out = tmp / f"{name}.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace),
                       "--out", str(out)]
            code = subprocess.run(command, cwd=str(ROOT)).returncode
            status = max(status, code)
            summary[name] = json.loads(out.read_text()) if out.exists() else None
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": status == 0,
        "workloads": {
            name: record and record["correct"] for name, record in summary.items()
        },
    }))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        decl = load_declaration()
        if sorted(decl.workloads) != sorted(WORKLOADS):
            raise SetupError(
                f"BENCHMARK.json declares workloads {decl.workloads}, "
                f"this harness runs {sorted(WORKLOADS)}")
        require_sources()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else decl.seeds["default"]
    seconds = args.seconds if args.seconds is not None else decl.run_seconds
    if args.workload is None:
        return run_all(args, decl, seed, seconds)
    return run_one(args, decl, seed, seconds)


if __name__ == "__main__":
    sys.exit(main())
