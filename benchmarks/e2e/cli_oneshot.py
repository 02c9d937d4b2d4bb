"""cli-oneshot: what a command-line user waits for.

Each op is one ``python -m repro`` invocation: ``suite --no-cache``,
``suite`` against a pre-warmed cache directory, or ``run`` on
IRIW+fence.sc, in seeded-shuffled rounds of three.  Each invocation is
a window, ranked among those of its command.  ``p50_ms`` is the mean of
the three commands' medians, and the cold op is ``suite --no-cache``.
Interpreter start-up and imports are most of each op, so lazy-import
and cache changes show here and engine changes barely move it.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from statistics import median
from typing import Dict, List

from common import (
    ROOT,
    WorkloadResult,
    fastest,
    percentile,
    run_child,
    scratch,
    suite_texts,
)

NAME = "cli-oneshot"
KINDS = ("suite_cold", "suite_warm", "run")
RUN_FILE = "tests/regression_corpus/IRIW+fence.sc.litmus"
SUITE_OK = "all verdicts match documented expectations"
IMPORT_PROBES = 5


def _argv(kind: str, cache: str) -> List[str]:
    return {
        "suite_cold": ["suite", "--no-cache"],
        "suite_warm": ["suite", "--cache-dir", cache],
        "run": ["run", RUN_FILE],
    }[kind]


def _ok(kind: str, code: int, stdout: str) -> bool:
    if code != 0:
        return False
    return SUITE_OK in stdout if kind != "run" else "verdict    :" in stdout


def import_samples(repeats: int = IMPORT_PROBES) -> List[float]:
    """Wall seconds of ``python -X importtime -c "import repro.cli"``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        done = run_child(["-X", "importtime", "-c", "import repro.cli"])
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(f"import repro.cli failed:\n{done.stderr[-2000:]}")
    return samples


def probe_texts(seed: int) -> List[str]:
    """The tests this workload decides: the suite plus the ``run`` file."""
    return suite_texts() + [(ROOT / RUN_FILE).read_text()]


def _in_process(argv: List[str]):
    from repro import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def run(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    """Untraced: subprocess invocations.  Traced: the same commands
    through ``repro.cli.main`` in this process, so spans see the layers."""
    result = WorkloadResult()
    setup = import_samples() if tracer is None else []
    rounds: List[Dict[str, float]] = []
    rng = random.Random(seed)
    with scratch("cli-") as tmp:
        cache = str(tmp / "cache")
        warm = run_child(["-m", "repro", *_argv("suite_warm", cache)])
        result.check(_ok("suite_warm", warm.returncode, warm.stdout),
                     "pre-warming the cache failed")
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            order = list(KINDS)
            rng.shuffle(order)
            window: Dict[str, float] = {}
            for kind in order:
                argv = _argv(kind, cache)
                started = time.perf_counter()
                if tracer is None:
                    done = run_child(["-m", "repro", *argv])
                    code, stdout = done.returncode, done.stdout
                else:
                    with tracer.span(f"op.{kind}"):
                        code, stdout = _in_process(argv)
                window[kind] = time.perf_counter() - started
                result.attempted += 1
                if not _ok(kind, code, stdout):
                    result.failed += 1
                    result.errors.append(f"{kind}: exit {code}")
            rounds.append(window)
    if tracer is not None:
        return result
    per_kind = {
        kind: fastest([1000 * window[kind] for window in rounds], key=float)
        for kind in KINDS
    }
    every = [t for times in per_kind.values() for t in times]
    result.put("setup_s", median(setup), "s", len(setup))
    result.put("ops_per_s", 1000 * len(every) / sum(every), "1/s", len(every))
    result.put("p50_ms", sum(median(per_kind[k]) for k in KINDS) / len(KINDS),
               "ms", len(every))
    result.put("cold_ms", median(per_kind["suite_cold"]), "ms",
               len(per_kind["suite_cold"]))
    result.notes.append(
        f"{NAME} {len(per_kind['run'])} of {len(rounds)} invocations kept "
        "per command; medians "
        + ", ".join(f"{k} {median(per_kind[k]):.1f} ms" for k in KINDS)
        + f"; p90 {percentile(every, 90):.1f} ms"
    )
    return result
