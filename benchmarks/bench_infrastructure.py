"""Infrastructure benchmarks: the substrates under the paper pipeline.

Not a paper figure — these time the layers everything else is built on
(CDCL SAT, the Kodkod-style translator, the two litmus backends), so that
regressions in the substrates are visible independently of the headline
Figure 17 numbers.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.kodkod import Bounds, Universe, check, instances
from repro.kodkod.litmus import symbolic_outcome_allowed
from repro.lang import ast
from repro.litmus import BY_NAME, run_litmus
from repro.sat import Cnf, SolverStats, enumerate_models, solve_cnf


def test_sat_pigeonhole(benchmark):
    """UNSAT pigeonhole PHP(7,6) — pure CDCL search."""

    def run():
        cnf = Cnf()
        holes = [[cnf.new_var() for _ in range(6)] for _ in range(7)]
        for row in holes:
            cnf.add_clause(row)
        for hole in range(6):
            for i in range(7):
                for j in range(i + 1, 7):
                    cnf.add_clause([-holes[i][hole], -holes[j][hole]])
        return solve_cnf(cnf)

    assert benchmark(run) is None


def _queens_cnf(n: int) -> Cnf:
    """The n-queens problem: a model-rich CNF whose every solve needs search."""
    cnf = Cnf()
    board = [[cnf.new_var() for _ in range(n)] for _ in range(n)]
    for row in board:
        cnf.add_clause(row)
        cnf.at_most_one(row)
    for c in range(n):
        cnf.at_most_one([board[r][c] for r in range(n)])
    for d in range(-(n - 1), n):  # main diagonals (r - c == d)
        cnf.at_most_one([board[r][r - d] for r in range(n) if 0 <= r - d < n])
    for d in range(2 * n - 1):  # anti-diagonals (r + c == d)
        cnf.at_most_one([board[r][d - r] for r in range(n) if 0 <= d - r < n])
    return cnf


def test_sat_enumeration_incremental(benchmark):
    """All 92 8-queens models through ONE incremental solver."""
    cnf = _queens_cnf(8)

    def run():
        return sum(1 for _ in enumerate_models(cnf))

    count = benchmark.pedantic(run, rounds=3, iterations=1)
    assert count == 92


def test_sat_enumeration_rebuild(benchmark):
    """The same enumeration with the per-model solver rebuild baseline."""
    cnf = _queens_cnf(8)

    def run():
        return sum(1 for _ in enumerate_models(cnf, incremental=False))

    count = benchmark.pedantic(run, rounds=1, iterations=1)
    assert count == 92


def test_sat_incremental_speedup_and_reuse(benchmark):
    """The PR's headline claim, asserted: incremental enumeration is >= 2x
    faster than rebuild-per-model, and the per-solve stats prove
    learned-clause reuse (later instances need fewer conflicts than the
    first, because the solver arrives already knowing the clauses it
    learned)."""
    cnf = _queens_cnf(8)

    def run():
        stats, first = SolverStats(), None
        started = time.perf_counter()
        incremental = set()
        for m in enumerate_models(cnf, stats=stats):
            if first is None:
                first = stats.copy()  # the first solve's counters
            incremental.add(frozenset(k for k, v in m.items() if v))
        t_incremental = time.perf_counter() - started
        started = time.perf_counter()
        rebuilt = {
            frozenset(k for k, v in m.items() if v)
            for m in enumerate_models(cnf, incremental=False)
        }
        t_rebuild = time.perf_counter() - started
        assert incremental == rebuilt and len(incremental) == 92
        return t_incremental, t_rebuild, stats, first

    t_incremental, t_rebuild, stats, first = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = t_rebuild / t_incremental
    later = stats - first
    mean_later = later.conflicts / (stats.solves - 1)
    benchmark.extra_info.update(
        {
            "models": stats.solves,
            "speedup": round(speedup, 1),
            "first_solve_conflicts": first.conflicts,
            "mean_later_conflicts": round(mean_later, 2),
            "total_conflicts": stats.conflicts,
        }
    )
    assert speedup >= 2.0, f"incremental speedup only {speedup:.2f}x"
    assert mean_later < first.conflicts, (
        f"no learned-clause reuse visible: first solve took "
        f"{first.conflicts} conflicts, later mean {mean_later:.2f}"
    )


def test_kodkod_enumeration_incremental(benchmark):
    """Full relational instance enumeration (Fig-17-style query, bound 3)."""
    r, s = ast.rel("r"), ast.rel("s")
    formula = ast.And(ast.Acyclic(r | s), ast.Subset(s, r.plus()))

    def run():
        bounds = Bounds(Universe(tuple(f"e{i}" for i in range(3))))
        bounds.bound("r", 2)
        bounds.bound("s", 2)
        return sum(1 for _ in instances(formula, bounds))

    count = benchmark.pedantic(run, rounds=3, iterations=1)
    assert count == 133


def test_kodkod_enumeration_rebuild(benchmark):
    """The same relational enumeration with the rebuild baseline."""
    r, s = ast.rel("r"), ast.rel("s")
    formula = ast.And(ast.Acyclic(r | s), ast.Subset(s, r.plus()))

    def run():
        bounds = Bounds(Universe(tuple(f"e{i}" for i in range(3))))
        bounds.bound("r", 2)
        bounds.bound("s", 2)
        return sum(1 for _ in instances(formula, bounds, incremental=False))

    count = benchmark.pedantic(run, rounds=1, iterations=1)
    assert count == 133


def test_kodkod_closure_check(benchmark):
    """A closure-heavy relational check at bound 5."""
    r = ast.rel("r")
    s = ast.rel("s")
    law = ast.Subset((r | s).plus(), (r.plus() | s.plus()).plus())

    def run():
        bounds = Bounds(Universe(tuple(f"e{i}" for i in range(5))))
        bounds.bound("r", 2)
        bounds.bound("s", 2)
        return check(law, bounds)

    assert benchmark(run) is None


def test_litmus_enumerative_backend(benchmark):
    test = BY_NAME["IRIW+rel_acq"]
    result = benchmark(run_litmus, test)
    assert result.matches_expectation


def test_litmus_symbolic_backend(benchmark):
    test = BY_NAME["IRIW+rel_acq"]
    allowed = benchmark(symbolic_outcome_allowed, test)
    assert allowed is True


def test_full_suite_enumerative(benchmark):
    """The entire 34-test standard suite under PTX."""
    from repro.litmus import SUITE, run_suite

    def run():
        results = run_suite(SUITE)
        assert all(r.matches_expectation is not False for r in results)
        return len(results)

    count = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["tests"] = count
