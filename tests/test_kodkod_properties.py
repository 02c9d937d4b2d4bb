"""Cross-validation: bounded model finder vs the concrete evaluator.

Any instance the SAT backend produces for a formula must satisfy that
formula under direct evaluation — and whenever the finder reports UNSAT,
brute-force enumeration over small bounds must agree.

Besides the free relations ``r`` and ``s``, formulas read ``k``, an
exactly-bounded relation drawn as a random constant: its tuples reach
the translator as the true literal, so both properties also cover the
CNF layer's constant folding and gate sharing.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kodkod import Bounds, Universe, solve
from repro.lang import Env, ast, eval_formula
from repro.relation import Relation

import pytest

pytestmark = pytest.mark.slow

ATOMS = ("a", "b", "c")
U = Universe(ATOMS)
PAIRS = list(itertools.product(ATOMS, repeat=2))
r = ast.rel("r")
s = ast.rel("s")
k = ast.rel("k")


def expr_strategy():
    base = st.sampled_from([r, s, k, ast.Iden()])

    def extend(children):
        unary = children.flatmap(
            lambda e: st.sampled_from(
                [ast.TClosure(e), ast.Transpose(e), ast.Optional_(e)]
            )
        )
        binary = st.tuples(children, children).flatmap(
            lambda pair: st.sampled_from(
                [
                    ast.Union_(*pair),
                    ast.Inter(*pair),
                    ast.Diff(*pair),
                    ast.Join(*pair),
                ]
            )
        )
        return unary | binary

    return st.recursive(base, extend, max_leaves=4)


def formula_strategy():
    e = expr_strategy()
    return st.one_of(
        st.tuples(e, e).map(lambda p: ast.Subset(*p)),
        e.map(ast.Acyclic),
        e.map(ast.Irreflexive),
        e.map(ast.SomeF),
        e.map(ast.NoF),
        st.tuples(e, e).map(lambda p: ast.Not(ast.Subset(*p))),
    )


def problem_strategy():
    """A formula plus the constant that ``k`` is bound to exactly."""
    constant = st.sets(st.sampled_from(PAIRS)).map(Relation)
    return st.tuples(formula_strategy(), constant)


def make_bounds(constant: Relation) -> Bounds:
    return Bounds(U).bound("r", 2).bound("s", 2).bound_exactly("k", constant, arity=2)


def brute_force_sat(formula, constant: Relation) -> bool:
    # exhaustively try all assignments of r over a 3-atom universe with s
    # drawn from a fixed small pool to keep the search tractable
    s_pool = [Relation.empty(2), Relation([("a", "b")]), Relation([("b", "c"), ("c", "a")])]
    for mask in range(2 ** len(PAIRS)):
        r_rel = Relation(p for i, p in enumerate(PAIRS) if mask >> i & 1)
        for s_rel in s_pool:
            env = Env(
                universe=Relation.set_of(ATOMS),
                bindings={"r": r_rel, "s": s_rel, "k": constant},
            )
            if eval_formula(formula, env):
                return True
    return False


@given(problem_strategy())
@settings(max_examples=80, deadline=None)
def test_solver_instances_satisfy_formula(problem):
    formula, constant = problem
    instance = solve(formula, make_bounds(constant))
    if instance is not None:
        env = Env(
            universe=Relation.set_of(ATOMS),
            bindings=dict(instance.relations),
        )
        assert eval_formula(formula, env), formula


@given(problem_strategy())
@settings(max_examples=30, deadline=None)
def test_unsat_agrees_with_restricted_brute_force(problem):
    """If brute force finds a model in its restricted pool, SAT must too."""
    formula, constant = problem
    instance = solve(formula, make_bounds(constant))
    if instance is None:
        assert not brute_force_sat(formula, constant)
