"""The per-program static pass: computed once, shared read-only, freed
with its program."""

import gc
import sys
import weakref
from collections import Counter
from dataclasses import replace
from enum import Enum

import pytest

from repro.fuzz import generate_case
from repro.fuzz.oracle import Oracle, default_checks
from repro.litmus import BY_NAME, serialize
from repro.ptx import spec
from repro.ptx.model import build_env, static_execution
from repro.relation import Relation

SEED = 20261016
FRESH = 8


def _count_calls(monkeypatch, module_name, name, counts):
    """Count calls of ``module_name.name`` through every ``repro`` module
    that imported it by name."""
    original = getattr(sys.modules[module_name], name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            vars(module).get(name) is original
        ):
            monkeypatch.setattr(module, name, counting)


class TestWorkCounters:
    def test_battery_does_each_static_step_once_per_program(self, monkeypatch):
        """The default farm battery elaborates each program once and
        builds its moral strength, scope inclusion and total coherence
        orders at most once, however many engines read them."""
        oracle = Oracle(default_checks())
        # load every engine module and compile every template first
        assert oracle.evaluate_one(generate_case(SEED, 0).test).clean

        from repro.zoo.engine import BUILDERS

        counts: Counter = Counter()
        _count_calls(monkeypatch, "repro.ptx.program", "elaborate", counts)
        _count_calls(
            monkeypatch, "repro.ptx.model", "moral_strength", counts
        )
        _count_calls(
            monkeypatch, "repro.search.posets", "total_coherence_orders",
            counts,
        )
        incl = BUILDERS["incl"]

        def counting_incl(*args):
            counts["incl"] += 1
            return incl.fn(*args)

        monkeypatch.setitem(BUILDERS, "incl", replace(incl, fn=counting_incl))

        for index in range(1, FRESH + 1):
            test = generate_case(SEED, index).test
            counts.clear()
            verdict = oracle.evaluate_one(test)
            assert verdict.clean and not verdict.undecided, test.name
            assert counts["elaborate"] == 1, (test.name, counts)
            assert counts["moral_strength"] <= 1, (test.name, counts)
            assert counts["total_coherence_orders"] <= 1, (test.name, counts)
            assert counts["incl"] <= 1, (test.name, counts)


class TestSharedSkeleton:
    def test_skeleton_relations_are_read_only(self):
        _, _, execution = static_execution(BY_NAME["MP+rel_acq.gpu"].program)
        with pytest.raises(TypeError):
            execution.relations["po"] = Relation.empty(2)
        with pytest.raises(TypeError):
            del execution.relations["rf"]
        # with_relations still hands out a private, writable copy
        rf = Relation([(execution.events[0], execution.events[1])])
        copy = execution.with_relations(rf=rf)
        copy.relations["co"] = rf
        assert execution.relations["rf"].is_empty()
        assert execution.relations["co"].is_empty()

    def test_build_env_binds_the_spec_vocabulary(self):
        _, _, execution = static_execution(BY_NAME["SB+fence.sc.gpu"].program)
        for bitset in (False, True):
            env = build_env(execution, bitset=bitset)
            assert set(env.bindings) == (
                set(spec.BASE_RELATIONS) | set(spec.BASE_SETS)
            )

    def test_one_pass_per_program_object(self):
        program = BY_NAME["MP+rel_acq.gpu"].program
        first = static_execution(program)
        assert all(a is b for a, b in zip(first, static_execution(program)))


def _twin(test):
    """An equal but distinct copy of ``test`` (rebuilt from its dict)."""
    twin = serialize.test_from_dict(serialize.test_to_dict(test))
    assert twin.program == test.program
    assert twin.program is not test.program
    return twin


def _mutable_parts(root):
    """Ids of the mutable containers reachable from ``root`` through
    repro objects, tuples and containers."""
    found, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, Enum, weakref.ref)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (dict, list, set)):
            found.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set, tuple, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro"):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return found


class TestPassLifetime:
    def test_dropping_the_program_frees_its_pass(self):
        from repro.ptx.static import static_pass

        test = generate_case(SEED, 1).test
        verdict = Oracle(default_checks()).evaluate_one(test)
        assert verdict.clean
        sp = weakref.ref(static_pass(test.program))
        assert sp() is not None
        del test, verdict
        gc.collect()
        assert sp() is None

    def test_live_programs_keep_a_bounded_number_of_passes(self):
        from repro.ptx import static

        test = BY_NAME["MP+rel_acq.gpu"]
        programs = [_twin(test).program for _ in range(static._PASS_CAP + 8)]
        passes = [weakref.ref(static.static_pass(p)) for p in programs]
        assert len(static._PASSES) <= static._PASS_CAP
        gc.collect()
        # the least recently used pass went, though its program lives on
        assert passes[0]() is None
        assert passes[-1]() is static.static_pass(programs[-1])

    def test_equal_programs_share_no_mutable_state(self):
        from repro.ptx.static import static_pass

        oracle = Oracle(default_checks())
        tests = [
            generate_case(SEED, index).test for index in range(2, 5)
        ] + [BY_NAME["MP+rel_acq.gpu"], BY_NAME["SB+fence.sc.gpu"]]
        for test in tests:
            twin = _twin(test)
            left, right = oracle.evaluate_one(test), oracle.evaluate_one(twin)
            assert left.clean and right.clean
            assert left.agreed == right.agreed
            assert left.primary.outcomes == right.primary.outcomes
            a, b = static_pass(test.program), static_pass(twin.program)
            assert a is not b
            assert a.signature == b.signature
            parts = _mutable_parts(a)
            assert parts and not parts & _mutable_parts(b), test.name
