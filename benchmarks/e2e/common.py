"""Shared plumbing of the end-to-end benchmark: paths, the declaration,
statistics, and subprocess helpers.

Everything here is stdlib-only so that ``run.py`` can check the
declaration, and refuse to run, before it imports the package under
test.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for traces, temporary caches and run records; ignored
#: by git, and always inside the checkout the benchmark runs from
OUT = HERE / "out"

DECLARATION = ROOT / "BENCHMARK.json"
LAYERS = HERE / "layers.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
#: share of a run's windows its metrics are computed from (see fastest):
#: a small share where every window does the same work, a larger one
#: where windows differ in content and the fastest few would also be the
#: cheapest few
SAME_WORK_SHARE = 0.15
MIXED_WORK_SHARE = 0.5


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources, bad
    declaration); the harness exits non-zero without a result."""


def require_sources() -> None:
    """Fail unless the package under test is present in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# the declaration: BENCHMARK.json plus the layer map beside this file
# ----------------------------------------------------------------------

_TOP_KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
}


def _check_names(kind: str, entries: Sequence[dict], keys: set,
                 problems: List[str]) -> None:
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != keys:
            problems.append(f"{kind} entry {entry!r} must have keys {sorted(keys)}")
            continue
        if not NAME_RE.match(str(entry["name"])):
            problems.append(f"{kind} name {entry['name']!r} is malformed")
        if "unit" in keys and not UNIT_RE.match(str(entry["unit"])):
            problems.append(f"{kind} unit {entry['unit']!r} is malformed")
        if "better" in keys and entry["better"] not in ("lower", "higher"):
            problems.append(f"{kind} {entry['name']}: better must be lower/higher")


def validate(decl: dict, layers: dict) -> List[str]:
    """Every problem with the declaration (empty when it is well formed)."""
    problems: List[str] = []
    if set(decl) != _TOP_KEYS:
        problems.append(f"BENCHMARK.json keys must be exactly {sorted(_TOP_KEYS)}")
        return problems
    workloads = decl["workloads"]
    e2e = decl["end_to_end"]
    per_layer = decl["per_layer"]
    if not 2 <= len(workloads) <= 8:
        problems.append("declare 2 to 8 workloads")
    if not 1 <= len(e2e) <= MAX_END_TO_END:
        problems.append(f"declare 1 to {MAX_END_TO_END} end-to-end metrics")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        problems.append(f"declare 1 to {MAX_PER_LAYER} per-layer metrics")
    _check_names("workload", workloads, {"name", "why"}, problems)
    _check_names("end_to_end", e2e, {"name", "unit", "better", "bound"}, problems)
    _check_names("per_layer", per_layer, {"name", "unit", "better"}, problems)
    for entry in e2e:
        bound = entry.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= MAX_BOUND:
            problems.append(f"{entry.get('name')}: bound must be in (0, {MAX_BOUND}]")
    names = [e.get("name") for e in (*workloads, *e2e, *per_layer)]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used twice: {duplicates}")
    if not any(e.get("name") == "setup_s" for e in e2e):
        problems.append("end_to_end must declare setup_s")

    workload_names = {w["name"] for w in workloads}
    e2e_names = {m["name"] for m in e2e}
    layer_names = {m["name"] for m in per_layer}
    seeds = layers.get("seeds", {})
    if not all(isinstance(seeds.get(k), int) for k in ("default", "held_out")):
        problems.append("layers.json seeds need integer 'default' and 'held_out'")
    mapped: List[str] = []
    for layer in layers.get("layers", []):
        mapped.extend(layer.get("metrics", []))
        for ref_kind in ("moves", "bypassed_by"):
            for ref in layer.get(ref_kind, []):
                if ref.get("metric") not in e2e_names:
                    problems.append(
                        f"layer {layer.get('layer')}: {ref_kind} names unknown "
                        f"end-to-end metric {ref.get('metric')!r}"
                    )
                if ref.get("workload") not in workload_names:
                    problems.append(
                        f"layer {layer.get('layer')}: {ref_kind} names unknown "
                        f"workload {ref.get('workload')!r}"
                    )
    unknown = sorted(set(mapped) - layer_names)
    unmapped = sorted(layer_names - set(mapped))
    if unknown:
        problems.append(f"layers.json maps undeclared metrics: {unknown}")
    if unmapped:
        problems.append(f"per-layer metrics with no layer: {unmapped}")
    return problems


@dataclass(frozen=True)
class Declaration:
    raw: dict
    layers: dict

    @property
    def workloads(self) -> List[str]:
        return [w["name"] for w in self.raw["workloads"]]

    def metrics(self, traced: bool) -> Dict[str, dict]:
        """The metrics one run must emit, by name."""
        kind = "per_layer" if traced else "end_to_end"
        return {m["name"]: m for m in self.raw[kind]}

    @property
    def seeds(self) -> Dict[str, int]:
        return self.layers["seeds"]

    @property
    def run_seconds(self) -> int:
        return int(self.raw["run_seconds"])


def load_declaration() -> Declaration:
    """Read and check BENCHMARK.json and layers.json."""
    try:
        decl = json.loads(DECLARATION.read_text())
        layers = json.loads(LAYERS.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read the declaration: {exc}") from None
    problems = validate(decl, layers)
    if problems:
        raise SetupError("malformed declaration:\n  " + "\n  ".join(problems))
    return Declaration(decl, layers)


# ----------------------------------------------------------------------
# results and statistics
# ----------------------------------------------------------------------

@dataclass
class Measurement:
    value: float
    unit: str
    n: int


@dataclass
class WorkloadResult:
    """What one workload run produced: metrics plus its correctness gates."""

    metrics: Dict[str, Measurement] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: human-readable reasons the run is not correct (empty = correct)
    errors: List[str] = field(default_factory=list)
    #: extra lines printed before the result (tables, notes)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = Measurement(float(value), unit, int(n))

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.errors.append(reason)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (exclusive method, as ``quantiles``)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[pct - 1]


# ----------------------------------------------------------------------
# processes and scratch space
# ----------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    return env


def run_child(args: Sequence[str], timeout: float = 120.0
              ) -> subprocess.CompletedProcess:
    """Run a child interpreter from the checkout root and wait for it."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@contextmanager
def scratch(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``out/``, removed afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=str(OUT)))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def suite_texts() -> List[str]:
    """The 41-test standard suite as litmus source text."""
    from repro.litmus import SUITE
    from repro.litmus.serialize import test_to_litmus

    return [test_to_litmus(test) for test in SUITE]


def fuzz_texts(seed: int, start: int, count: int) -> List[str]:
    """``count`` cases of the blind fuzz stream for ``seed`` as text."""
    from repro.fuzz.gen import generate_case
    from repro.litmus.serialize import test_to_litmus

    return [
        test_to_litmus(generate_case(seed, index).test)
        for index in range(start, start + count)
    ]


def regression_texts() -> List[str]:
    """The committed regression corpus, as its files' litmus text."""
    directory = ROOT / "tests" / "regression_corpus"
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    return [
        (directory / entry["file"]).read_text()
        for _, entry in sorted(manifest["tests"].items())
    ]


def setup_probes(workload: str, seed: int, repeats: int
                 ) -> Tuple[List[float], List[float]]:
    """Set-up and cold-op seconds of ``repeats`` fresh processes.

    Each child runs ``run.py --setup-only``: it imports the package,
    builds the workload's inputs, runs the workload's first (cold)
    batch of ops and prints its seconds and op count.  Set-up is the
    child's wall time minus the cold batch; the cold sample is the
    batch's seconds per op.
    """
    setup, cold = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        done = run_child([str(HERE / "run.py"), "--setup-only",
                          "--workload", workload, "--seed", str(seed)])
        wall = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up probe of {workload} failed:\n{done.stderr[-2000:]}")
        seconds, ops = done.stdout.split()[-2:]
        setup.append(wall - float(seconds))
        cold.append(float(seconds) / int(ops))
    return setup, cold


def fastest(windows: Sequence, key, share: float = SAME_WORK_SHARE,
            minimum: int = 3) -> List:
    """The fastest ``share`` of ``windows`` (at least ``minimum``).

    ``key`` ranks a window by how long it took (lower is faster).  The
    cores of the shared virtual machine this was built on alternate
    between full speed and about 1.6x slower for seconds at a time; the
    fastest windows measure the code, the others the neighbours.
    """
    count = max(minimum, round(len(windows) * share))
    return sorted(windows, key=key)[:count]
