"""One SAT translation per (program, condition), shared by every symbolic
reader: the verdict query, the instance enumeration and the
certificates."""

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.cert.verdict import certify_enumeration, certify_symbolic
from repro.fuzz import generate_case
from repro.fuzz.oracle import Oracle, default_checks
from repro.kodkod.litmus import (
    UnsupportedCondition,
    ptx_problem,
    symbolic_consistent_instances,
    symbolic_outcome_allowed,
    symbolic_outcomes,
)
from repro.kodkod.translate import Translator
from repro.litmus import BY_NAME, serialize
from repro.litmus.conditions import parse_condition
from repro.search.ptx_search import allowed_outcomes

SEED = 20261016
FRESH = 8
SUITE_NAMES = ["CoRR", "MP+rel_acq.gpu", "SB+fence.sc.gpu", "IRIW+fence.sc"]


def _twin(test):
    """An equal but distinct copy of ``test``: its program gets a static
    pass, and so problems, of its own."""
    twin = serialize.test_from_dict(serialize.test_to_dict(test))
    assert twin.program is not test.program
    return twin


def _fingerprint(problem):
    """Everything observable about a problem, order included."""
    return (
        problem.cnf,
        problem.condition,
        problem.unsupported,
        {name: list(vars_.items()) for name, vars_ in problem.free_vars.items()},
    )


def _count_translations(monkeypatch, counts):
    init = Translator.__init__

    def counting(self, bounds):
        counts["translations"] += 1
        init(self, bounds)

    monkeypatch.setattr(Translator, "__init__", counting)


class TestWorkCounters:
    def test_battery_translates_each_case_once(self, monkeypatch):
        """Over the default farm battery, each fresh program's PTX
        problem is translated once, though ``ptx/symbolic`` and
        ``ptx/symbolic-enum`` both read it."""
        oracle = Oracle(default_checks())
        assert oracle.evaluate_one(generate_case(SEED, 0).test).clean
        counts: Counter = Counter()
        _count_translations(monkeypatch, counts)
        for index in range(1, FRESH + 1):
            test = generate_case(SEED, index).test
            counts.clear()
            verdict = oracle.evaluate_one(test)
            assert verdict.clean and not verdict.undecided, test.name
            assert {"ptx-verdict", "ptx-outcomes"} <= set(verdict.agreed)
            assert counts["translations"] == 1, (test.name, counts)

    def test_certificates_reuse_the_problem(self, monkeypatch):
        test = _twin(BY_NAME["MP+rel_acq.gpu"])
        symbolic_outcome_allowed(test)
        counts: Counter = Counter()
        _count_translations(monkeypatch, counts)
        certify_symbolic(test)
        certify_enumeration(test)
        symbolic_outcomes(test)
        assert counts["translations"] == 0


def _cases():
    return [BY_NAME[name] for name in SUITE_NAMES] + [
        generate_case(SEED, index).test for index in range(1, FRESH + 1)
    ]


class TestOrder:
    @pytest.mark.parametrize("index", range(len(SUITE_NAMES) + FRESH))
    def test_engine_order_does_not_change_the_problem(self, index):
        """symbolic then symbolic-enum, and the reverse, on two copies of
        one test: the same verdict, outcome set and CNF."""
        test = _cases()[index]
        forward, backward = _twin(test), _twin(test)
        verdict_first = symbolic_outcome_allowed(forward)
        outcomes_second = symbolic_outcomes(forward)
        outcomes_first = symbolic_outcomes(backward)
        verdict_second = symbolic_outcome_allowed(backward)
        assert verdict_first == verdict_second
        assert outcomes_first == outcomes_second
        assert _fingerprint(ptx_problem(forward)) == _fingerprint(
            ptx_problem(backward)
        )
        # and the symbolic answers are the enumerative ones
        expected = allowed_outcomes(test.program)
        assert outcomes_first == expected
        assert verdict_first == test.condition_observed(expected)


class TestConditions:
    def test_one_program_two_conditions(self):
        """Two tests on one ``Program`` get a problem each, with their own
        condition literal and the right verdict; neither CNF depends on
        the other condition having been asked first."""
        base = _twin(BY_NAME["MP+rel_acq.gpu"])
        forbidden = replace(base, condition=parse_condition("1:r1=1 & 1:r2=0"))
        allowed = replace(base, condition=parse_condition("1:r1=1 & 1:r2=1"))
        assert forbidden.program is allowed.program

        expected = allowed_outcomes(base.program)
        assert symbolic_outcome_allowed(forbidden) is False
        assert symbolic_outcome_allowed(allowed) is True
        for test in (forbidden, allowed):
            assert symbolic_outcome_allowed(test) == test.condition_observed(
                expected
            )
        first, second = ptx_problem(forbidden), ptx_problem(allowed)
        assert first is not second
        assert first.condition != second.condition
        assert ptx_problem(forbidden) is first
        assert _fingerprint(second) == _fingerprint(ptx_problem(_twin(allowed)))
        # the outcome set reads the same instances under either condition
        assert symbolic_outcomes(forbidden) == symbolic_outcomes(allowed)

    def test_unsupported_condition_still_enumerates(self):
        test = _twin(BY_NAME["MP+rel_acq.gpu"])
        # a register no read defines cannot be phrased relationally
        test = replace(test, condition=parse_condition("1:r9=1"))
        with pytest.raises(UnsupportedCondition):
            symbolic_outcome_allowed(test)
        problem = ptx_problem(test)
        assert problem.condition is None and problem.unsupported
        with pytest.raises(UnsupportedCondition):
            certify_symbolic(test)
        assert len(list(symbolic_consistent_instances(test))) == len(
            list(symbolic_consistent_instances(_twin(BY_NAME["MP+rel_acq.gpu"])))
        )


class TestRetainedForm:
    def test_problem_clauses_are_untracked_once_seen(self):
        """The kept clauses are tuples of ints: after one collection the
        garbage collector no longer tracks them."""
        problem = ptx_problem(_twin(BY_NAME["IRIW+fence.sc"]))
        gc.collect()
        assert not any(gc.is_tracked(clause) for clause in problem.cnf.clauses)
