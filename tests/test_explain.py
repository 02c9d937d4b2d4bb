"""Tests for verdict explanation and formula witnesses."""

import pytest

from repro.lang import Env, ast
from repro.lang.diagnose import formula_witness
from repro.litmus import BY_NAME, Expect
from repro.litmus.explanation import explain
from repro.relation import Relation

r = ast.rel("r")
s = ast.rel("s")


class TestFormulaWitness:
    def env(self, **bindings):
        return Env.over([1, 2, 3], **bindings)

    def test_acyclic_cycle_witness(self):
        env = self.env(r=Relation([(1, 2), (2, 1)]))
        witness = formula_witness(ast.Acyclic(r), env)
        assert witness.kind == "cycle"
        assert witness.atoms[0] == witness.atoms[-1]

    def test_acyclic_holds(self):
        env = self.env(r=Relation([(1, 2)]))
        assert formula_witness(ast.Acyclic(r), env) is None

    def test_irreflexive_witness(self):
        env = self.env(r=Relation([(1, 1), (2, 3)]))
        witness = formula_witness(ast.Irreflexive(r), env)
        assert witness.kind == "reflexive" and witness.atoms == (1,)

    def test_no_witness_lists_tuples(self):
        env = self.env(r=Relation([(1, 2)]))
        witness = formula_witness(ast.NoF(r), env)
        assert witness.kind == "nonempty" and (1, 2) in witness.tuples

    def test_subset_missing_tuples(self):
        env = self.env(r=Relation([(1, 2), (2, 3)]), s=Relation([(1, 2)]))
        witness = formula_witness(ast.Subset(r, s), env)
        assert witness.kind == "missing" and witness.tuples == ((2, 3),)

    def test_and_reports_first_failing_conjunct(self):
        env = self.env(r=Relation([(1, 1)]), s=Relation.empty(2))
        witness = formula_witness(
            ast.And(ast.Irreflexive(s), ast.Irreflexive(r)), env
        )
        assert witness.kind == "reflexive"

    def test_boolean_fallback(self):
        env = self.env(r=Relation([(1, 2)]))
        witness = formula_witness(ast.Not(ast.SomeF(r)), env)
        assert witness.kind == "boolean"

    def test_repr_variants(self):
        env = self.env(r=Relation([(1, 2), (2, 1)]))
        assert "cycle" in repr(formula_witness(ast.Acyclic(r), env))


class TestExplain:
    def test_forbidden_names_the_axiom(self):
        explanation = explain(BY_NAME["MP+rel_acq.gpu"])
        assert explanation.verdict is Expect.FORBIDDEN
        assert "Causality" in explanation.rejections
        assert "Causality" in explanation.witnesses

    def test_forbidden_render_mentions_axiom(self):
        text = explain(BY_NAME["SB+fence.sc.gpu"]).render()
        assert "forbidden" in text and "Causality" in text

    def test_coherence_shape_rejected_by_sc_per_location(self):
        explanation = explain(BY_NAME["CoWR"])
        assert "SC-per-Location" in explanation.rejections

    def test_atomicity_shape(self):
        explanation = explain(BY_NAME["2xAtomAdd.gpu"])
        assert "Atomicity" in explanation.rejections

    def test_thin_air_shape(self):
        explanation = explain(BY_NAME["LB+deps"])
        assert "No-Thin-Air" in explanation.rejections

    def test_allowed_provides_witness(self):
        explanation = explain(BY_NAME["SB+weak"])
        assert explanation.verdict is Expect.ALLOWED
        assert explanation.example is not None
        assert "rf" in explanation.render()

    def test_verdicts_agree_with_runner(self):
        from repro.litmus import run_litmus

        for name in ("MP+weak", "CoRR", "IRIW+rel_acq"):
            test = BY_NAME[name]
            assert explain(test).verdict is run_litmus(test).verdict
