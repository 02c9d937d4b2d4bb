"""Tests for the cat DSL: parser, interpreter, and shipped models."""

import pytest

from repro.cat import (
    CatSyntaxError,
    available_models,
    cat_consistent,
    catmodel_to_cat,
    check_cat,
    load_model,
    parse_cat,
    tokenize,
)
from repro.lang import Env, ast
from repro.relation import Relation


class TestTokenizer:
    def test_strips_comments(self):
        tokens = tokenize('(* hi *) let x = rf // trailing\n')
        assert [t.text for t in tokens] == ["let", "x", "=", "rf"]

    def test_converse_token(self):
        tokens = tokenize("rf^-1")
        assert [t.kind for t in tokens] == ["name", "converse"]

    def test_bad_character(self):
        with pytest.raises(CatSyntaxError):
            tokenize("let x = rf @ co")


class TestParser:
    def test_model_name(self):
        model = parse_cat('"MyModel"\nlet fr = rf^-1 ; co\nacyclic fr as a')
        assert model.name == "MyModel"

    def test_definition_resolution(self):
        model = parse_cat("let a = rf | co\nlet b = a ; a\nacyclic b as x")
        b = model.definition("b")
        assert isinstance(b, ast.Join)
        assert isinstance(b.left, ast.Union_)

    def test_precedence_union_loosest(self):
        model = parse_cat("let e = rf ; co | po & fr\nacyclic e as x")
        expr = model.definition("e")
        assert isinstance(expr, ast.Union_)  # | binds loosest
        assert isinstance(expr.left, ast.Join)
        assert isinstance(expr.right, ast.Inter)

    def test_difference(self):
        model = parse_cat("let e = rf \\ co\nacyclic e as x")
        assert isinstance(model.definition("e"), ast.Diff)

    def test_postfix_closures(self):
        model = parse_cat("let e = rf+ | co* | po?\nacyclic e as x")
        expr = model.definition("e")
        assert isinstance(expr.left.left, ast.TClosure)
        assert isinstance(expr.left.right, ast.RTClosure)
        assert isinstance(expr.right, ast.Optional_)

    def test_converse(self):
        model = parse_cat("let fr = rf^-1 ; co\nacyclic fr as x")
        fr = model.definition("fr")
        assert isinstance(fr.left, ast.Transpose)

    def test_brackets_make_sets(self):
        model = parse_cat("let e = [W] ; po ; [R]\nacyclic e as x")
        expr = model.definition("e")
        assert isinstance(expr.left.left, ast.Bracket)
        assert expr.left.left.inner == ast.Var("W", arity=1)

    def test_iden_builtin(self):
        model = parse_cat("let e = rf \\ iden\nacyclic e as x")
        assert isinstance(model.definition("e").right, ast.Iden)

    def test_constraint_kinds(self):
        model = parse_cat(
            "acyclic rf as a\nirreflexive co as b\nempty po as c"
        )
        assert isinstance(model.constraint("a"), ast.Acyclic)
        assert isinstance(model.constraint("b"), ast.Irreflexive)
        assert isinstance(model.constraint("c"), ast.NoF)

    def test_unnamed_constraints_numbered(self):
        model = parse_cat("acyclic rf\nacyclic co")
        names = [name for name, _ in model.constraints]
        assert len(set(names)) == 2

    def test_free_names(self):
        model = parse_cat("let fr = rf^-1 ; co\nacyclic fr | po as x")
        assert set(model.free_names) == {"rf", "co", "po"}

    def test_unbalanced_paren(self):
        with pytest.raises(CatSyntaxError):
            parse_cat("let e = (rf | co\nacyclic e as x")

    def test_statement_required(self):
        with pytest.raises(CatSyntaxError):
            parse_cat("rf | co")


class TestErrorLocations:
    """Parse failures name the offending token and its line/column."""

    def test_bad_character_reports_line_and_column(self):
        with pytest.raises(
            CatSyntaxError, match=r"'@' at line 2, column 11"
        ):
            tokenize("let x = rf\nlet bad = @ co")

    def test_bad_character_column_counts_from_one(self):
        with pytest.raises(
            CatSyntaxError, match=r"'%' at line 1, column 1"
        ):
            tokenize("% let x = rf")

    def test_statement_error_names_the_token(self):
        with pytest.raises(
            CatSyntaxError,
            match=r"expected a statement, found 'rf' at line 1, column 1",
        ):
            parse_cat("rf | co")

    def test_expect_error_locates_missing_equals(self):
        with pytest.raises(
            CatSyntaxError, match=r"expected =, found 'rf' at line 2"
        ):
            parse_cat("let good = rf\nlet bad rf | co")

    def test_unexpected_token_inside_expression(self):
        with pytest.raises(
            CatSyntaxError,
            match=r"unexpected token '\)' at line 1, column 15",
        ):
            parse_cat("let e = (rf | ) ; co\nacyclic e as x")

    def test_truncated_input_names_the_last_token(self):
        with pytest.raises(
            CatSyntaxError, match=r"end of input after '=' at line 3"
        ):
            parse_cat("let a = rf\n\nlet b =")

    def test_empty_source_is_reported_distinctly(self):
        with pytest.raises(CatSyntaxError, match=r"\(empty source\)"):
            _Parser_next_on_empty()

    def test_keyword_in_expression_position(self):
        with pytest.raises(
            CatSyntaxError, match=r"unexpected token 'let' at line 1"
        ):
            parse_cat("let a = let")

    @pytest.mark.parametrize("builtin", ["iden", "id", "emptyset"])
    def test_builtin_cannot_be_redefined(self, builtin):
        with pytest.raises(
            CatSyntaxError,
            match=rf"redefine builtin '{builtin}' at line 2, column 5",
        ):
            parse_cat(f"let a = rf\nlet {builtin} = rf\nacyclic a as x")

    def test_repeated_label_rejected(self):
        with pytest.raises(
            CatSyntaxError,
            match=r"duplicate constraint label 'x' at line 2, column 15",
        ):
            parse_cat("acyclic rf as x\nacyclic co as x")

    def test_bracketed_relation_is_a_syntax_error(self):
        with pytest.raises(
            CatSyntaxError, match=r"\[R\] needs a set.*line 2, column 10"
        ):
            parse_cat("let R = rf\nacyclic [R] ; po as x")


def _Parser_next_on_empty():
    from repro.cat.parser import _Parser

    _Parser([], frozenset()).next()


class TestInterp:
    def make_env(self):
        return Env.over(
            [1, 2, 3],
            rf=Relation([(1, 2)]),
            co=Relation([(2, 3)]),
            po=Relation([(1, 3)]),
        )

    def test_definitions_visible_to_constraints(self):
        model = parse_cat("let fr = rf^-1 ; co\nacyclic fr | po as x")
        assert check_cat(model, self.make_env()) == {"x": True}

    def test_violation_detected(self):
        model = parse_cat("acyclic rf | co | back as x")
        env = self.make_env().bind("back", Relation([(3, 1)]))
        assert not cat_consistent(model, env)

    def test_chained_definitions(self):
        model = parse_cat(
            "let a = rf | co\nlet b = a+\nirreflexive b as x"
        )
        assert cat_consistent(model, self.make_env())


class TestShippedModels:
    def test_catalogue(self):
        assert set(available_models()) == {
            "ptx", "tso", "sc", "scoped-rc11", "imm", "scoped-rc11-sc",
        }

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            load_model("powerpc")

    def test_ptx_cat_parses_with_expected_interface(self):
        assert load_model("ptx").name == "PTX"
        # the labels are the spec's AXIOMS names, so one vocabulary
        # serves the native engines and the zoo (e.g. skip_axioms)
        for name, axioms in _spec_axioms().items():
            model = load_model(name)
            assert [label for label, _ in model.constraints] == list(axioms)

    def test_rc11_cat_parses(self):
        model = load_model("scoped-rc11")
        assert "hb" in dict(model.definitions)

    def test_models_are_the_spec_objects(self):
        """One definition per model: the shipped models hold the spec
        modules' own AST objects, not equal copies."""
        from repro.rc11 import spec as rc11_spec

        for name in ("ptx", "tso", "sc", "scoped-rc11"):
            axioms = _spec_axioms()[name]
            for label, formula in load_model(name).constraints:
                assert formula is axioms[label], (name, label)
        for name in ("imm", "scoped-rc11-sc"):
            model = load_model(name)
            assert model.definition("hb") is rc11_spec.hb
            assert model.definition("eco") is rc11_spec.eco
            assert model.constraint("Coherence") is rc11_spec.coherence


def _spec_axioms():
    """Every shipped model's spec ``AXIOMS`` table, by model name."""
    from repro.ptx import spec as ptx_spec
    from repro.rc11 import spec as rc11_spec
    from repro.scmodel import spec as sc_spec
    from repro.tso import spec as tso_spec

    return {
        "ptx": ptx_spec.AXIOMS,
        "tso": tso_spec.AXIOMS,
        "sc": sc_spec.AXIOMS,
        "scoped-rc11": rc11_spec.AXIOMS,
        "imm": rc11_spec.IMM_AXIOMS,
        "scoped-rc11-sc": rc11_spec.REPAIRED_SC_AXIOMS,
    }


def text_form(name):
    """The shipped model printed as cat text and parsed back."""
    return parse_cat(catmodel_to_cat(load_model(name)))


class TestCatVsBuiltinPtx:
    """PTX's cat text form judges candidates as the native engine does."""

    @pytest.mark.parametrize(
        "test_name",
        ["MP+rel_acq.gpu", "SB+fence.sc.gpu", "CoRR", "CoRW",
         "2xAtomAdd.gpu", "IRIW+rel_acq", "MP+bar.sync", "WRC+rel_acq"],
    )
    def test_agreement_on_candidates(self, test_name):
        from repro.litmus import BY_NAME
        from repro.ptx.model import build_env
        from repro.search import candidate_executions

        model = text_form("ptx")
        program = BY_NAME[test_name].program
        checked = 0
        for candidate in candidate_executions(
            program, include_inconsistent=True
        ):
            env = build_env(candidate.execution)
            assert cat_consistent(model, env) == candidate.report.consistent
            checked += 1
        assert checked > 0


class TestCatVsBuiltinBaselines:
    """The baselines' cat text forms agree with their native checkers."""

    def test_tso_cat_agreement(self):
        from repro.litmus import BY_NAME
        from repro.search.total_search import total_co_candidates
        from repro.tso import build_env as tso_env
        from repro.tso import check_execution as tso_check

        model = text_form("tso")
        program = BY_NAME["SB+weak"].program
        for candidate in total_co_candidates(
            program, tso_check, include_inconsistent=True
        ):
            env = tso_env(candidate.execution)
            assert cat_consistent(model, env) == candidate.report.consistent

    def test_sc_cat_agreement(self):
        from repro.litmus import BY_NAME
        from repro.scmodel import build_env as sc_env
        from repro.scmodel import check_execution as sc_check
        from repro.search.total_search import total_co_candidates

        model = text_form("sc")
        program = BY_NAME["SB+weak"].program
        for candidate in total_co_candidates(
            program, sc_check, include_inconsistent=True
        ):
            env = sc_env(candidate.execution)
            assert cat_consistent(model, env) == candidate.report.consistent

    def test_rc11_cat_agreement(self):
        from repro.core import Scope, device_thread
        from repro.rc11 import CProgramBuilder, MemOrder
        from repro.rc11.model import build_env as rc11_env
        from repro.search.rc11_search import c_candidate_executions

        model = text_form("scoped-rc11")
        program = (
            CProgramBuilder("MP")
            .thread(device_thread(0, 0, 0))
            .store("x", 1).store("y", 1, mo=MemOrder.REL, scope=Scope.GPU)
            .thread(device_thread(0, 1, 0))
            .load("r1", "y", mo=MemOrder.ACQ, scope=Scope.GPU)
            .load("r2", "x")
            .build()
        )
        for candidate in c_candidate_executions(
            program, include_inconsistent=True
        ):
            env = rc11_env(candidate.execution)
            assert cat_consistent(model, env) == candidate.report.consistent
