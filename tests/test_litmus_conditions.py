"""Tests for litmus final-state conditions and their parser."""

import pytest

from repro.core import device_thread
from repro.litmus import (
    AndC,
    ConditionSyntaxError,
    MemEq,
    NotC,
    OrC,
    RegEq,
    TrueC,
    parse_condition,
)
from repro.search.records import Outcome

T0 = device_thread(0, 0, 0)
T1 = device_thread(0, 1, 0)
THREADS = (T0, T1)

OUTCOME = Outcome(
    registers=(((T0, "r1"), 1), ((T1, "r2"), 0)),
    memory=(("x", frozenset({1, 2})), ("y", frozenset({0}))),
)


class TestAtoms:
    def test_reg_eq(self):
        assert RegEq(0, "r1", 1).holds(OUTCOME, THREADS)
        assert not RegEq(0, "r1", 2).holds(OUTCOME, THREADS)

    def test_reg_eq_missing_register(self):
        assert not RegEq(1, "r9", 0).holds(OUTCOME, THREADS)

    def test_mem_eq_existential(self):
        """[x]=v holds when v is among the possible final values."""
        assert MemEq("x", 1).holds(OUTCOME, THREADS)
        assert MemEq("x", 2).holds(OUTCOME, THREADS)
        assert not MemEq("x", 3).holds(OUTCOME, THREADS)

    def test_mem_eq_unknown_location(self):
        assert not MemEq("z", 0).holds(OUTCOME, THREADS)


class TestConnectives:
    def test_and_or_not(self):
        both = AndC(RegEq(0, "r1", 1), RegEq(1, "r2", 0))
        assert both.holds(OUTCOME, THREADS)
        either = OrC(RegEq(0, "r1", 9), MemEq("y", 0))
        assert either.holds(OUTCOME, THREADS)
        assert not NotC(both).holds(OUTCOME, THREADS)

    def test_operator_sugar(self):
        cond = RegEq(0, "r1", 1) & ~RegEq(1, "r2", 5)
        assert cond.holds(OUTCOME, THREADS)

    def test_true(self):
        assert TrueC().holds(OUTCOME, THREADS)


class TestParser:
    def test_simple_conjunction(self):
        cond = parse_condition("0:r1=1 & 1:r2=0")
        assert cond.holds(OUTCOME, THREADS)

    def test_double_equals_accepted(self):
        cond = parse_condition("0:r1==1")
        assert cond == RegEq(0, "r1", 1)

    def test_memory_atom(self):
        assert parse_condition("[x]=2") == MemEq("x", 2)

    def test_negative_value(self):
        assert parse_condition("0:r1=-3") == RegEq(0, "r1", -3)

    def test_precedence_not_and_or(self):
        cond = parse_condition("~0:r1=9 & 1:r2=0 | [y]=7")
        # (~a & b) | c
        assert isinstance(cond, OrC)
        assert isinstance(cond.left, AndC)
        assert isinstance(cond.left.left, NotC)

    def test_parentheses(self):
        cond = parse_condition("0:r1=1 & (1:r2=5 | [y]=0)")
        assert cond.holds(OUTCOME, THREADS)

    def test_unbalanced_parens(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("(0:r1=1")

    def test_empty_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("   ")

    def test_garbage_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("0:r1=1 & bogus!")

    def test_repr_round_trippable_shapes(self):
        cond = parse_condition("0:r1=1 & ~[x]=2")
        text = repr(cond)
        assert "r1" in text and "[x]" in text
