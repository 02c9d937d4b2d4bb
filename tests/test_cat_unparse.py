"""Round-trip tests: AST → cat text → AST preserves semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cat import (
    CatModel,
    available_models,
    catmodel_to_cat,
    expr_to_cat,
    load_model,
    parse_cat,
)
from repro.lang import Env, ast, eval_expr, eval_formula
from repro.relation import Relation

r = ast.rel("r")
s = ast.rel("s")
ATOMS = list(range(4))


def expr_strategy():
    base = st.sampled_from([r, s, ast.Iden()])

    def extend(children):
        unary = children.flatmap(
            lambda e: st.sampled_from(
                [ast.TClosure(e), ast.Transpose(e), ast.Optional_(e),
                 ast.RTClosure(e)]
            )
        )
        binary = st.tuples(children, children).flatmap(
            lambda pair: st.sampled_from(
                [ast.Union_(*pair), ast.Inter(*pair), ast.Diff(*pair),
                 ast.Join(*pair)]
            )
        )
        return unary | binary

    return st.recursive(base, extend, max_leaves=5)


def constraint_line(label, formula):
    """One constraint rendered by :func:`catmodel_to_cat`."""
    text = catmodel_to_cat(CatModel("m", (), ((label, formula),)))
    return text.splitlines()[-1]


def as_emptiness(formula):
    """``a ⊆ b`` read as ``empty (a \\ b)``, the form cat text parses to."""
    if isinstance(formula, ast.Subset):
        return ast.NoF(ast.Diff(formula.left, formula.right))
    return formula


def environments():
    pair = st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS))
    rel = st.frozensets(pair, max_size=6).map(Relation)
    return st.tuples(rel, rel).map(
        lambda pair: Env.over(ATOMS, r=pair[0], s=pair[1])
    )


@given(expr_strategy(), environments())
@settings(max_examples=200, deadline=None)
def test_expression_round_trip(expr, env):
    text = expr_to_cat(expr)
    model = parse_cat(f"let e = {text}\nacyclic e as x")
    reparsed = model.definition("e")
    assert eval_expr(expr, env) == eval_expr(reparsed, env)


@given(expr_strategy(), environments())
@settings(max_examples=100, deadline=None)
def test_constraint_round_trip(expr, env):
    for formula in (ast.Acyclic(expr), ast.Irreflexive(expr), ast.NoF(expr)):
        model = parse_cat(constraint_line("x", formula))
        assert eval_formula(formula, env) == eval_formula(
            model.constraint("x"), env
        )


@given(expr_strategy(), expr_strategy(), environments())
@settings(max_examples=100, deadline=None)
def test_subset_rewritten_as_emptiness(left, right, env):
    model = parse_cat(constraint_line("x", ast.Subset(left, right)))
    assert eval_formula(ast.Subset(left, right), env) == eval_formula(
        model.constraint("x"), env
    )


def test_subset_constraint_renders_as_emptiness():
    line = constraint_line("x", ast.Subset(r, s))
    assert line == "empty (r \\ s) as x"


class TestShippedModelFixpoint:
    """unparse → parse → unparse is a fixpoint for every shipped model."""

    @pytest.mark.parametrize("name", available_models())
    def test_fixpoint(self, name):
        model = load_model(name)
        text = catmodel_to_cat(model)
        reparsed = parse_cat(text)
        # the unparse of the reparse is byte-identical: the cycle has
        # genuinely converged, not merely alpha-equivalent
        assert catmodel_to_cat(reparsed) == text
        assert reparsed.definitions == model.definitions
        # cat has no inclusion constraint: ptx's Coherence (a Subset)
        # comes back as the equivalent emptiness of the difference
        assert reparsed.constraints == tuple(
            (label, as_emptiness(formula))
            for label, formula in model.constraints
        )

    @pytest.mark.parametrize("name", available_models())
    def test_labels_survive_verbatim(self, name):
        """catmodel_to_cat must not sanitize constraint labels —
        downstream skip_axioms matching is exact."""
        model = load_model(name)
        reparsed = parse_cat(catmodel_to_cat(model))
        assert [n for n, _ in reparsed.constraints] == [
            n for n, _ in model.constraints
        ]
        assert [n for n, _ in reparsed.definitions] == [
            n for n, _ in model.definitions
        ]

    def test_generated_ptx_cat_also_reaches_fixpoint(self):
        """The unparse of the builtin spec converges after one parse."""
        model = parse_cat(catmodel_to_cat(load_model("ptx")))
        assert parse_cat(catmodel_to_cat(model)) == model


class TestGeneratedPtxCat:
    def test_parses(self):
        model = parse_cat(catmodel_to_cat(load_model("ptx")))
        assert model.name == "PTX"

    def test_agrees_with_builtin_on_candidates(self):
        from repro.cat import cat_consistent
        from repro.litmus import BY_NAME
        from repro.ptx.model import build_env
        from repro.search import candidate_executions

        # the text form of the spec, Coherence's Subset rendered as an
        # emptiness constraint, judges candidates as the native engine does
        model = parse_cat(catmodel_to_cat(load_model("ptx")))
        program = BY_NAME["SB+fence.sc.gpu"].program
        for candidate in candidate_executions(
            program, include_inconsistent=True
        ):
            env = build_env(candidate.execution)
            assert cat_consistent(model, env) == candidate.report.consistent

    def test_unsupported_product_rejected(self):
        with pytest.raises(ValueError):
            expr_to_cat(r.product(s))

    def test_model_to_cat_structure(self):
        text = catmodel_to_cat(CatModel(
            "toy",
            (("fr", (~r) @ s),),
            (("Only", ast.Acyclic(ast.Var("fr"))),),
        ))
        assert text.startswith('"toy"')
        assert "let fr = (r^-1 ; s)" in text
        assert "acyclic fr as Only" in text
