"""What a one-shot command pays to start: modules loaded and wall time.

For ``import repro.cli``, ``run`` on IRIW+fence.sc, ``suite --no-cache``
and ``suite`` on a pre-warmed cache, prints the number of ``repro``
modules the command loads and the median wall time of the command as a
fresh subprocess (``python -m repro ...``, interpreter start-up
included).  The tables in EXPERIMENTS.md ("Cold processes") come from::

    python benchmarks/import_cost.py [--src PATH]

``--src`` measures another checkout's ``src/`` directory (say, the
parent commit's) with the same harness.  Children inherit the
environment, so set ``PYTHONDONTWRITEBYTECODE=1`` to measure without
``.pyc`` files.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILE = ROOT / "tests" / "regression_corpus" / "IRIW+fence.sc.litmus"

#: command label -> ``ptxmm`` arguments (None: only ``import repro.cli``);
#: ``{cache}`` is a cache directory warmed before the measurement
COMMANDS = (
    ("import repro.cli", None),
    ("run", ["run", str(RUN_FILE)]),
    ("suite --no-cache", ["suite", "--no-cache"]),
    ("warm suite", ["suite", "--cache-dir", "{cache}"]),
)

#: subprocess runs per command; the median is reported
REPEATS = 8

COUNT = """\
import sys
argv = {argv!r}
if argv is not None:
    from repro.cli import main
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, code
else:
    import repro.cli
print(sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")))
"""


def _child(args, src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        cwd=str(ROOT), timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed:\n{done.stderr[-2000:]}")
    return done


def module_count(argv, src: Path) -> int:
    return int(_child(["-c", COUNT.format(argv=argv)], src).stdout.split()[-1])


def median_ms(argv, src: Path) -> float:
    args = ["-c", "import repro.cli"] if argv is None else ["-m", "repro", *argv]
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _child(args, src)
        samples.append(1000 * (time.perf_counter() - started))
    return statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    src = args.src.resolve()
    print(f"{'command':<18} {'modules':>8} {'median_ms':>10}")
    with tempfile.TemporaryDirectory(prefix="import-cost-") as cache:
        for label, argv in COMMANDS:
            if argv is not None:
                argv = [arg.format(cache=cache) for arg in argv]
            if label == "warm suite":
                _child(["-m", "repro", *argv], src)
            count = module_count(argv, src)
            ms = median_ms(argv, src)
            print(f"{label:<18} {count:>8d} {ms:>10.1f}")


if __name__ == "__main__":
    main()
