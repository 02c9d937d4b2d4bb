"""CNF size of the symbolic encoding over the litmus suite.

Reads every suite test's shared PTX problem
(:func:`repro.kodkod.litmus.ptx_problem`, one translation per program
and condition) with the condition asserted, as ``--engine symbolic``
decides it, without solving, and prints each test's variable and clause
counts plus the totals quoted in EXPERIMENTS.md ("Symbolic
translation")::

    PYTHONPATH=src python benchmarks/cnf_size.py [--per-test]
"""

import argparse

from repro.kodkod.litmus import UnsupportedCondition, ptx_problem
from repro.litmus import SUITE


def suite_cnf_sizes():
    """``{test name: (variables, clauses)}`` over the encodable suite."""
    sizes = {}
    for test in SUITE:
        try:
            cnf = ptx_problem(test).translation(condition=True).cnf
        except UnsupportedCondition:
            continue
        sizes[test.name] = (cnf.num_vars, len(cnf.clauses))
    return sizes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--per-test", action="store_true")
    args = parser.parse_args()
    sizes = suite_cnf_sizes()
    if args.per_test:
        for name, (variables, clauses) in sizes.items():
            print(f"{name:28s} {variables:6d} vars {clauses:7d} clauses")
    print(f"{len(sizes)} tests: "
          f"{sum(v for v, _ in sizes.values())} vars, "
          f"{sum(c for _, c in sizes.values())} clauses")


if __name__ == "__main__":
    main()
