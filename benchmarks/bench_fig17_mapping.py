"""Figure 17: runtimes of the bounded mapping-correctness checks.

The paper's headline measurement: how long it takes to empirically verify,
per RC11 axiom, that the scoped-C++→PTX mapping admits no counterexample
within an event bound — for the full scoped models (Figure 17a) and the
de-scoped comparison models (Figure 17b).

We regenerate the *shape* of the figure on laptop-scale bounds:

* runtime grows superexponentially with the event bound (the paper's
  bound-4→5 blow-ups reappear here as bound-1→2→3 blow-ups);
* the scoped variant is roughly an order of magnitude more expensive than
  the de-scoped variant at the same bound (47 vs 17 event menus per slot);
* no counterexample is found for the correct mapping at any bound.

Like the paper's 48-hour cap, larger bounds run under a time budget; the
recorded throughput (skeletons/s) makes the extrapolated full-run cost
explicit.  Set REPRO_BENCH_FULL=1 to lift the budgets.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from helpers import full_mode

from repro.kodkod.litmus import symbolic_consistent_instances
from repro.litmus import BY_NAME
from repro.sat import SolverStats
from repro.mapping import STANDARD, check_mapping_axiom

AXIOMS = ("Coherence", "Atomicity", "SC")

#: (scoped?, bound, default time budget in seconds or None)
CONFIGS = [
    (True, 1, None),
    (True, 2, None),
    (False, 1, None),
    (False, 2, None),
]
if full_mode():
    CONFIGS.append((False, 3, 600.0))
    CONFIGS.append((True, 3, 600.0))


def _row_id(config):
    scoped, bound, _budget = config
    return f"{'scoped' if scoped else 'descoped'}-bound{bound}"


@pytest.mark.parametrize("axiom", AXIOMS)
@pytest.mark.parametrize("config", CONFIGS, ids=_row_id)
def test_fig17_mapping_check(benchmark, config, axiom):
    scoped, bound, budget = config

    def run():
        return check_mapping_axiom(
            bound, axiom, scheme=STANDARD, scoped=scoped, time_budget=budget
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.stats
    benchmark.extra_info.update(
        {
            "axiom": axiom,
            "variant": "scoped" if scoped else "descoped",
            "bound": bound,
            "skeletons": stats.skeletons,
            "ptx_executions": stats.ptx_executions,
            "lifted_executions": stats.lifted_executions,
            "timed_out": stats.timed_out,
            "skeletons_per_second": round(
                stats.skeletons / stats.elapsed, 2
            ) if stats.elapsed else None,
        }
    )
    # the correct mapping must never produce a counterexample, whether or
    # not the search was truncated
    assert result.holds, result.counterexamples


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "rebuild"])
def test_fig17_instance_enumeration(benchmark, incremental):
    """The §5.2 all-instances methodology on a real litmus encoding.

    Enumerates every axiom-consistent rf/co/sc witness of IRIW through the
    relational encoding — with the incremental solver (learned clauses
    carried across the enumeration) vs. the per-instance rebuild the
    paper's Alloy loop pays.
    """
    test = BY_NAME["IRIW+rel_acq"]
    rounds = []

    def run():
        stats = SolverStats()
        rounds.append(stats)
        return sum(
            1
            for _ in symbolic_consistent_instances(
                test, incremental=incremental, stats=stats
            )
        )

    count = benchmark.pedantic(run, rounds=3, iterations=1)
    assert count == 16
    stats = rounds[-1]
    benchmark.extra_info.update(
        {
            "instances": count,
            "total_conflicts": stats.conflicts,
            "total_decisions": stats.decisions,
        }
    )
