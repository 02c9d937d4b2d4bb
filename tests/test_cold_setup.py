"""What a novel program costs before its search: exact work counters.

A fresh program pays its static set-up once per engine: the vocabulary
its signature binds, the compiled instance of its model, and the solver
load of its SAT problem.  These tests pin that set-up's shape: the
vocabulary is built without any ``Relation``, a cold compiled instance
folds its constants without the interpreter, a solver loading a kept
problem attaches only the clauses root propagation leaves open, and the
six model templates are the generated sources pinned below.
"""

import hashlib
from collections import Counter

import pytest

from repro.fuzz import generate_case
from repro.kodkod.litmus import ptx_problem
from repro.lang import compile as compiled
from repro.litmus import BY_NAME, SUITE
from repro.ptx.static import StaticPass, signature_env
from repro.relation import Relation
from repro.sat.records import SolverStats
from repro.sat.solver import Solver, _ActivityHeap
from repro.search.ptx_search import allowed_outcomes
from repro.zoo import ZOO_MODELS, zoo_outcomes
from repro.zoo.models import PTX
from tests.test_static_pass import _count_calls

SEED = 20261016
FRESH = 8

#: the engines with a compiled template: the PTX front (the zoo's ptx,
#: shared with rf-check) and every zoo model
ENGINES = [("native", lambda p: allowed_outcomes(p))] + [
    (m.name, (lambda name: lambda p: zoo_outcomes(name, p))(m.name))
    for m in ZOO_MODELS
]


def _fresh(index):
    return generate_case(SEED, index).test.program


class TestColdInstances:
    @pytest.mark.parametrize("engine", [name for name, _ in ENGINES])
    def test_cold_instance_makes_no_eval_expr_call(self, monkeypatch, engine):
        """The template constants are generated code: building a cold
        compiled instance (and deciding with it) never interprets."""
        run = dict(ENGINES)[engine]
        run(_fresh(0))  # the template, built once
        compiled._INSTANCES.clear()  # the instances, cold
        counts: Counter = Counter()
        _count_calls(monkeypatch, "repro.lang.eval", "eval_expr", counts)
        before = compiled.compile_cache_stats()["instances"]
        for index in range(1, FRESH + 1):
            run(_fresh(index))
        assert compiled.compile_cache_stats()["instances"] - before == FRESH
        assert counts["eval_expr"] == 0

    def test_bit_signature_env_constructs_no_relation(self, monkeypatch):
        """Every signature's bit environment comes straight from the
        bit-native vocabulary: no ``Relation`` is built, not even one to
        convert."""
        signatures = [PTX.signature] + [m.signature for m in ZOO_MODELS]
        passes = [StaticPass(_fresh(index)) for index in range(FRESH)]
        made = Counter()
        init, make = Relation.__init__, Relation._make.__func__

        def counting_init(self, *args, **kwargs):
            made["init"] += 1
            init(self, *args, **kwargs)

        def counting_make(cls, *args, **kwargs):
            made["make"] += 1
            return make(cls, *args, **kwargs)

        monkeypatch.setattr(Relation, "__init__", counting_init)
        monkeypatch.setattr(Relation, "_make", classmethod(counting_make))
        for sp in passes:
            for signature in signatures:
                env = signature_env(signature, sp, bitset=True)
                assert env.bindings
        assert not made, made


def _attached(solver):
    """The clauses a solver has attached (each is on two watch lists)."""
    seen = {}
    for watch_list in solver.watches.values():
        for clause in watch_list:
            seen[id(clause)] = clause
    return [tuple(clause) for clause in seen.values()]


class TestRootLoad:
    def test_solver_attaches_only_the_open_clauses(self):
        """A kept problem is propagated once: a solver loading it
        attaches exactly the clauses left open, none satisfied at root,
        and assigns the root units without propagating them again."""
        tests = list(SUITE) + [
            generate_case(SEED, index).test for index in range(48)
        ]
        for test in tests:
            cnf = ptx_problem(test).cnf
            root = cnf.root
            assert root is not None and not root.conflict, test.name
            assert len(root.clauses) < len(cnf.clauses), test.name
            solver = Solver(cnf)
            assert sorted(map(sorted, _attached(solver))) == sorted(
                map(sorted, root.clauses)
            ), test.name
            for clause in _attached(solver):
                assert len(clause) >= 2, test.name
                assert all(solver._value(lit) is None for lit in clause)
            assert all(solver._value(lit) is True for lit in root.units)

    def test_root_load_decides_as_a_full_load(self):
        """Loading the open clauses gives every query the answer of
        loading the whole formula clause by clause."""
        for test in SUITE:
            problem = ptx_problem(test)
            for condition in (False, True):
                if condition and problem.condition is None:
                    continue
                cnf = problem.translation(condition).cnf
                full = cnf._replace(root=None, units=())
                assert Solver(cnf).solve() == Solver(full).solve(), test.name


def _inserted_heap(activity):
    """The heap the variables' one-by-one insertion builds."""
    heap = _ActivityHeap(activity)
    heap.heap, heap.pos = [], [-1] * len(activity)
    for var in range(1, len(activity)):
        heap.insert(var)
    return heap


def _work(stats: SolverStats):
    counters = stats.as_dict()
    counters.pop("solve_time")
    return counters


class TestHeapInOneStep:
    def test_heap_and_search_match_one_by_one_insertion(self):
        """The variable heap built in one step is the heap inserting the
        variables one by one builds, and the search over the suite does
        the same work with it."""
        for test in SUITE:
            problem = ptx_problem(test)
            for condition in (False, True):
                if condition and problem.condition is None:
                    continue
                cnf = problem.translation(condition).cnf
                fast, slow = Solver(cnf), Solver(cnf)
                slow.order = _inserted_heap(slow.activity)
                assert fast.order.heap == slow.order.heap, test.name
                assert fast.order.pos == slow.order.pos, test.name
                assert fast.solve() == slow.solve(), test.name
                assert _work(fast.stats) == _work(slow.stats), test.name


#: sha256 of each model template's generated source.  A template changes
#: only when the code generator does; the constants moved into the
#: generated ``_make`` changed all of them at once.  PTX's template
#: compiles rf-check's ``irreflexive(rf ; cause)`` alongside the axioms.
TEMPLATE_SHA256 = {
    "ptx": "553d101434ed7a06f6284035eebe05a7d0b32d96c81aa8ede3be8769fee1376b",
    "sc": "2dd3bc7653f800ab8fc0b6e389c1f8719c3e4102a574641edf06931ae980ac11",
    "tso": "68de36290311540da709bc07dc61409869fc38a50a559c475d2b4b6c31297e8a",
    "imm": "cdcdd7acf88c3c4f2ce795e91faf1d8ce9ec5a34a069aa46fb0e8b26e7e6644f",
    "scoped-rc11": (
        "e301d26108f2f8f50fd571261f8d7e076ff7c8aadf6cfd44707e1f36e51c198f"
    ),
    "scoped-rc11-sc": (
        "e60a0fbe7223749cc818dc6085fe9bbfedae9d67452939833f11af0d0edd1a07"
    ),
}


def test_template_sources_are_pinned():
    program = BY_NAME["MP+rel_acq.gpu"].program
    signature = compiled.program_signature(program)
    sources = {}
    for model in ZOO_MODELS:
        zoo_outcomes(model.name, program)
        template = compiled._INSTANCES[("zoo", model.name, signature)].template
        sources[model.name] = hashlib.sha256(
            template.source.encode("utf-8")
        ).hexdigest()
    assert sources == TEMPLATE_SHA256
