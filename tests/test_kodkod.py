"""Tests for the bounded relational model finder (Alloy/Kodkod analog)."""

import pytest

from repro.kodkod import Bounds, Universe, check, instances, solve
from repro.lang import Env, ast, eval_formula
from repro.relation import Relation

U = Universe(tuple("abcd"))
r = ast.rel("r")
s = ast.rel("s")


def concrete_holds(formula, instance, atoms=U.atoms):
    env = Env(
        universe=Relation.set_of(atoms),
        bindings=dict(instance.relations),
    )
    return eval_formula(formula, env)


class TestBounds:
    def test_universe_distinct(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))

    def test_lower_within_upper(self):
        from repro.kodkod import RelBound

        with pytest.raises(ValueError):
            RelBound(
                name="r", arity=2,
                lower=frozenset({("a", "b")}), upper=frozenset({("c", "d")}),
            )

    def test_bound_augments_upper_with_lower(self):
        bounds = Bounds(U)
        bounds.bound("r", 2, lower=[("a", "b")], upper=[("c", "d")])
        assert ("a", "b") in bounds.get("r").upper

    def test_exact_bound_has_no_slack(self):
        bounds = Bounds(U)
        bounds.bound_exactly("r", Relation([("a", "b")]))
        assert bounds.get("r").slack == frozenset()

    def test_default_upper_is_full(self):
        bounds = Bounds(U)
        bounds.bound("r", 2)
        assert len(bounds.get("r").upper) == 16

    def test_missing_bound_raises(self):
        with pytest.raises(KeyError):
            Bounds(U).get("nope")

    def test_wrong_arity_tuple_rejected(self):
        with pytest.raises(ValueError):
            Bounds(U).bound("r", 2, upper=[("a",)])


class TestSolve:
    def test_some_nonempty(self):
        bounds = Bounds(U).bound("r", 2)
        instance = solve(ast.SomeF(r), bounds)
        assert instance is not None and len(instance["r"]) >= 1

    def test_unsat_returns_none(self):
        bounds = Bounds(U).bound("r", 2, upper=[])
        assert solve(ast.SomeF(r), bounds) is None

    def test_lower_bound_respected(self):
        bounds = Bounds(U).bound("r", 2, lower=[("a", "b")])
        instance = solve(ast.TrueF(), bounds)
        assert ("a", "b") in instance["r"]

    def test_model_satisfies_formula_concretely(self):
        formula = ast.And(ast.SomeF(r @ r), ast.Irreflexive(r))
        bounds = Bounds(U).bound("r", 2)
        instance = solve(formula, bounds)
        assert instance is not None
        assert concrete_holds(formula, instance)

    def test_exact_relations_passed_through(self):
        fixed = Relation([("a", "b"), ("b", "c")])
        bounds = Bounds(U)
        bounds.bound_exactly("r", fixed)
        bounds.bound("s", 2)
        instance = solve(ast.Subset(s, r) & ast.SomeF(s), bounds)
        assert instance["r"] == fixed
        assert instance["s"].issubset(fixed) and instance["s"]

    def test_closure_constraint(self):
        # find a cyclic r of exactly... some r whose closure is reflexive
        formula = ast.Not(ast.Acyclic(r))
        instance = solve(formula, Bounds(U).bound("r", 2))
        assert instance is not None
        assert not instance["r"].is_acyclic()


class TestCheck:
    def test_valid_assertion_has_no_counterexample(self):
        bounds = Bounds(U).bound("r", 2)
        assert check(ast.Subset(r, r.plus()), bounds) is None

    def test_invalid_assertion_yields_counterexample(self):
        bounds = Bounds(U).bound("r", 2)
        instance = check(ast.Subset(r.plus(), r), bounds)
        assert instance is not None
        assert not concrete_holds(ast.Subset(r.plus(), r), instance)

    def test_distribution_law_checked(self):
        bounds = Bounds(U).bound("r", 2).bound("s", 2)
        law = ast.Equal((r | s).plus(), (r.plus() | s.plus()).plus())
        assert check(law, bounds) is None

    def test_false_law_found(self):
        bounds = Bounds(U).bound("r", 2).bound("s", 2)
        bogus = ast.Equal((r | s).plus(), r.plus() | s.plus())
        assert check(bogus, bounds) is not None


class TestInstances:
    def test_enumeration_distinct(self):
        bounds = Bounds(Universe(("a", "b"))).bound("r", 2)
        found = list(instances(ast.TrueF(), bounds))
        assert len(found) == 16  # all subsets of a 2x2 relation
        assert len({frozenset(i["r"].tuples) for i in found}) == 16

    def test_limit(self):
        bounds = Bounds(U).bound("r", 2)
        assert len(list(instances(ast.TrueF(), bounds, limit=5))) == 5

    def test_configure_hook(self):
        bounds = Bounds(Universe(("a", "b"))).bound("r", 2)

        def exactly_one(translator):
            translator.exactly_one_of("r", [("a", "a"), ("b", "b")])

        found = list(instances(ast.TrueF(), bounds, configure=exactly_one))
        for instance in found:
            diagonal = {t for t in instance["r"].tuples if t[0] == t[1]}
            assert len(diagonal) == 1

    def test_all_exact_bounds_yield_one_instance(self):
        # no witness variables: every SAT model decodes identically, so the
        # enumeration must stop after one instance even with a larger limit
        bounds = Bounds(U)
        bounds.bound_exactly("r", Relation([("a", "b"), ("b", "c")]))
        found = list(instances(ast.SomeF(r), bounds, limit=10))
        assert len(found) == 1
        assert found[0]["r"] == Relation([("a", "b"), ("b", "c")])

    def test_incremental_matches_rebuild(self):
        formula = ast.And(ast.Acyclic(r | s), ast.Subset(s, r.plus()))

        def make_bounds():
            bounds = Bounds(Universe(("e0", "e1", "e2")))
            bounds.bound("r", 2)
            bounds.bound("s", 2)
            return bounds

        def as_set(found):
            return {
                frozenset(
                    (name, frozenset(rel.tuples))
                    for name, rel in inst.relations.items()
                )
                for inst in found
            }

        incremental = as_set(instances(formula, make_bounds()))
        rebuilt = as_set(instances(formula, make_bounds(), incremental=False))
        assert incremental == rebuilt
        assert len(incremental) == 133

    def test_enumeration_is_repeatable_from_one_translation(self):
        """Blocking clauses never leak into the shared CNF: the same
        translation enumerates to the same model set twice."""
        from repro.kodkod.translate import Translator
        from repro.sat import enumerate_models

        bounds = Bounds(Universe(("a", "b"))).bound("r", 2)
        translator = Translator(bounds)
        translator.assert_formula(ast.SomeF(r))
        translation = translator.finish()
        clause_count = len(translation.cnf.clauses)
        projection = translation.projection_vars()

        def run():
            return {
                frozenset(m.items())
                for m in enumerate_models(
                    translation.cnf, projection=projection
                )
            }

        first, second = run(), run()
        assert first == second and len(first) == 15  # nonempty subsets
        assert len(translation.cnf.clauses) == clause_count

    def test_stats_recorded_on_translation_and_collector(self):
        from repro.sat import SolverStats

        bounds = Bounds(Universe(("a", "b"))).bound("r", 2)
        collected = []
        found = list(instances(ast.TrueF(), bounds, stats=collected))
        assert len(collected) == len(found) == 16
        assert all(isinstance(snap, SolverStats) for snap in collected)
        assert all(snap.solves == 1 for snap in collected)

    def test_solve_stats_collector(self):
        from repro.sat import SolverStats

        bounds = Bounds(U).bound("r", 2)
        collected = []
        assert solve(ast.SomeF(r), bounds, stats=collected) is not None
        assert len(collected) == 1 and isinstance(collected[0], SolverStats)


class TestSetVariables:
    def test_bracket_over_set_var(self):
        w = ast.set_("w")
        bounds = Bounds(U)
        bounds.bound_set_exactly("w", ["a", "b"])
        bounds.bound("r", 2)
        formula = ast.And(
            ast.SomeF(r), ast.Subset(r, ast.bracket(w) @ r)
        )
        instance = solve(formula, bounds)
        assert instance is not None
        for a, b in instance["r"]:
            assert a in ("a", "b")


class TestConstantFolding:
    """Exactly-bounded tuples are constants the translator folds away."""

    @staticmethod
    def _suite_translations():
        from repro.kodkod.litmus import UnsupportedCondition, ptx_problem
        from repro.litmus import SUITE

        for test in SUITE:
            try:
                translation = ptx_problem(test).translation(condition=True)
            except UnsupportedCondition:
                continue
            yield test.name, translation

    def test_true_literal_only_in_its_unit_clause(self):
        for name, translation in self._suite_translations():
            true = translation.cnf.true_var
            wrapped = [
                clause for clause in translation.cnf.clauses
                if len(clause) > 1 and (true in clause or -true in clause)
            ]
            assert wrapped == [], name

    def test_suite_cnf_at_most_half_the_unfolded_size(self):
        # 18,701 clauses over the 36 encodable suite tests when every
        # constant tuple was wrapped in its own Tseitin gate
        clauses = [
            len(translation.cnf.clauses)
            for _, translation in self._suite_translations()
        ]
        assert len(clauses) == 36
        assert sum(clauses) <= 18701 // 2

    def test_exact_only_problem_folds_to_a_constant(self):
        from repro.kodkod.translate import Translator

        k = ast.rel("k")
        bounds = Bounds(U).bound_exactly(
            "k", Relation([("a", "b"), ("b", "c")]), arity=2
        )
        translator = Translator(bounds)
        true = translator.cnf.true_lit()
        assert translator.literal(ast.Acyclic(k)) == true
        assert translator.literal(ast.Subset(k @ k, k)) == -true
        assert translator.cnf.num_vars == 1
