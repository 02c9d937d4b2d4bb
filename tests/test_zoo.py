"""The model zoo: protocol validation, the generic engine, the matrix.

The zoo's contract is that a memory model is *pure data* (a ``.cat``
file plus one :class:`~repro.zoo.model.ZooModel` declaration) and the
generic engine reproduces the dedicated per-model engines exactly.
These tests pin that contract:

* declaration-time validation catches malformed models at import;
* every shipped declaration's cat free names are covered by the names
  the engine binds (no model can reference a relation nobody builds);
* the generic engine agrees outcome-for-outcome with the native ptx
  engine and with the independent total-coherence search for tso/sc
  (which dispatch to the generic engine themselves);
* the conformance matrix classifies pairs correctly, carries witnesses,
  round-trips through JSON, and is byte-deterministic (the CI golden
  depends on it).
"""

import pytest

from repro.litmus.suite import BY_NAME
from repro.zoo import (
    ZOO,
    ZOO_MODELS,
    Claim,
    EventSignature,
    WitnessSpec,
    ZooModel,
    containment_claims,
    resolve_zoo,
    zoo_names,
)


class TestProtocolValidation:
    def test_unknown_co_style_rejected(self):
        with pytest.raises(ValueError, match="witness style"):
            WitnessSpec(co_style="magic")

    def test_forced_edges_require_partial_style(self):
        with pytest.raises(ValueError, match="partial-ms"):
            WitnessSpec(co_style="total", co_forced_from="cause")

    def test_release_label_requires_forced_edges(self):
        with pytest.raises(ValueError, match="co_forced_from"):
            WitnessSpec(co_style="partial-ms", forced_released_by="Coherence")

    def test_unknown_claim_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            Claim("sc", "tso", basis="vibes")

    def test_claims_must_be_declared_by_the_stronger_side(self):
        with pytest.raises(ValueError, match="stronger side"):
            ZooModel(
                name="weakling",
                cat="sc",
                signature=EventSignature(),
                witnesses=WitnessSpec(),
                claims=(Claim("sc", "weakling"),),
            )

    def test_bound_names_cover_signature_and_witnesses(self):
        model = resolve_zoo("ptx")
        bound = model.bound_names()
        assert "rf" in bound
        assert model.witnesses.co_name in bound
        assert "sc" in bound  # ptx enumerates fence.sc orders
        assert set(model.signature.set_names) <= bound
        assert set(model.signature.relation_names) <= bound


class TestDeclarations:
    def test_registry_shape(self):
        names = [model.name for model in ZOO_MODELS]
        assert len(names) == len(set(names))
        assert len(names) >= 6
        assert ZOO == {model.name: model for model in ZOO_MODELS}
        assert zoo_names() == tuple(sorted(names))

    def test_unknown_model_lists_choices(self):
        with pytest.raises(KeyError, match="have"):
            resolve_zoo("powerpc")

    def test_every_cat_free_name_is_bound(self):
        """No declaration may reference a relation the engine cannot
        build: the cat file's free names must all be bound names."""
        from repro.cat.models import load_model

        for model in ZOO_MODELS:
            catm = load_model(model.cat)
            missing = set(catm.free_names) - model.bound_names()
            assert not missing, (
                f"{model.name}: cat needs {sorted(missing)} but the "
                f"declaration only binds {sorted(model.bound_names())}"
            )

    def test_signature_names_exist_in_the_shared_registries(self):
        from repro.zoo import BUILDERS, PREDICATES

        for model in ZOO_MODELS:
            for _, predicate in model.signature.sets:
                assert predicate in PREDICATES, (model.name, predicate)
            for _, builder in model.signature.relations:
                assert builder in BUILDERS, (model.name, builder)

    def test_prunes_and_releases_name_real_constraints(self):
        """A declared rf prune or forced-edge release must name one of
        the model's cat labels, and read only relations the signature
        binds — a typo would silently disable it."""
        from repro.cat.models import load_model

        for model in ZOO_MODELS:
            labels = {name for name, _ in load_model(model.cat).constraints}
            ws = model.witnesses
            relations = set(model.signature.relation_names)
            if ws.forced_released_by is not None:
                assert ws.forced_released_by in labels, model.name
            if ws.sc_fences or ws.co_style == "partial-ms":
                assert "morally_strong" in relations, model.name
            doom = model.rf_doom
            if doom is not None:
                assert doom.constraint in labels, model.name
                assert doom.restrict in (None, *relations), model.name

    def test_claims_reference_registered_models(self):
        claims = containment_claims()
        assert claims  # the zoo ships a nonempty declared order
        for claim in claims:
            assert claim.stronger in ZOO
            assert claim.weaker in ZOO
            assert claim.rationale  # every edge is documented


def _reference_outcomes(model, program, **opts):
    """The outcome set from an engine independent of the zoo's compiled
    run: PTX's staged model on the interpreted ``set`` kernel (the PTX
    front runs the zoo's ptx), or the total-coherence search for
    tso/sc."""
    if model == "ptx":
        from repro.search.ptx_search import allowed_outcomes

        return allowed_outcomes(program, kernel="set", **opts)
    from repro.scmodel import check_execution as sc_check
    from repro.search.total_search import allowed_outcomes_total
    from repro.tso import check_execution as tso_check

    check = {"tso": tso_check, "sc": sc_check}[model]
    return allowed_outcomes_total(program, check, **opts)


def _suite_and_corpus4():
    from repro.litmus.corpus import corpus_length4
    from repro.litmus.suite import SUITE

    return list(SUITE) + [g.test for _, _, g in corpus_length4()]


def _opts(model, test):
    from repro.registry import partition_opts

    return partition_opts(model, dict(test.search_opts))


class TestGenericEngineAgreement:
    """zoo_outcomes must reproduce the dedicated engines exactly."""

    @pytest.mark.parametrize("model", ["ptx", "tso", "sc"])
    @pytest.mark.parametrize(
        "test_name", ["MP+weak", "SB+weak", "MP+rel_acq.gpu"]
    )
    def test_agrees_with_native_engine(self, model, test_name):
        from repro.zoo import zoo_outcomes

        test = BY_NAME[test_name]
        assert zoo_outcomes(model, test.program) == \
            _reference_outcomes(model, test.program)

    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", ["compiled", "set"])
    def test_ptx_agrees_with_symbolic_enum_everywhere(self, kernel):
        """The zoo's ptx, which every PTX enumeration runs, equals the
        SAT instance enumeration on the whole suite and CORPUS4, on
        either kernel (tests with search options or data-dependent
        writes have no symbolic outcome set and are skipped)."""
        from repro.kodkod.litmus import UnsupportedProgram, symbolic_outcomes
        from repro.zoo import zoo_outcomes

        compared = 0
        for test in _suite_and_corpus4():
            if test.search_opts:
                continue
            try:
                expected = symbolic_outcomes(test)
            except UnsupportedProgram:
                continue
            assert zoo_outcomes(
                "ptx", test.program, kernel=kernel
            ) == expected, test.name
            compared += 1
        assert compared > 70

    def test_skipping_coherence_matches_the_native_ablation(self):
        """Skipping Coherence releases the cause-forced co edges on the
        zoo's ptx exactly as on the native engine: the ablation is
        visible (CoRW, S+rel_acq, R+fence.sc) rather than a no-op."""
        from repro.litmus.suite import SUITE
        from repro.zoo import zoo_outcomes

        skip = ("Coherence",)
        changed = []
        for test in SUITE:
            opts, _ = _opts("ptx", test)
            ablated = zoo_outcomes(
                "ptx", test.program, skip_axioms=skip, **opts
            )
            assert ablated == _reference_outcomes(
                "ptx", test.program, skip_axioms=skip, **opts
            ), test.name
            if ablated != zoo_outcomes("ptx", test.program, **opts):
                changed.append(test.name)
        assert {"CoRW", "S+rel_acq", "R+fence.sc"} <= set(changed)

    @pytest.mark.slow
    @pytest.mark.parametrize("model", [m.name for m in ZOO_MODELS])
    def test_set_and_compiled_kernels_agree(self, model):
        """Both kernels give every zoo model the same outcomes and do the
        same work: every EnumStats counter but the set kernel's memo
        telemetry is equal."""
        from repro.search.records import EnumStats
        from repro.zoo import zoo_outcomes

        for test in _suite_and_corpus4():
            opts, _ = _opts(model, test)
            runs = {}
            for kernel in ("compiled", "set"):
                stats = EnumStats()
                outcomes = zoo_outcomes(
                    model, test.program, kernel=kernel, stats=stats, **opts
                )
                counters = stats.as_dict()
                del counters["memo_hits"], counters["memo_misses"]
                runs[kernel] = (outcomes, counters)
            assert runs["compiled"] == runs["set"], test.name

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["tso", "sc"])
    def test_cpu_models_match_total_search_everywhere(self, model):
        """The registry's tso/sc (the zoo engine, either kernel) equal
        the total-coherence search on the whole suite and CORPUS4."""
        from repro.litmus.config import RunConfig
        from repro.litmus.corpus import corpus_length4
        from repro.litmus.runner import decide
        from repro.litmus.suite import SUITE
        from repro.registry import partition_opts

        tests = list(SUITE) + [g.test for _, _, g in corpus_length4()]
        for test in tests:
            opts, _ = partition_opts(model, dict(test.search_opts))
            expected = _reference_outcomes(model, test.program, **opts)
            for kernel in ("compiled", "set"):
                result = decide(test, RunConfig(model=model, kernel=kernel))
                assert result.status == "ok", (test.name, result.detail)
                assert result.outcomes == expected, (test.name, kernel)

    def test_skip_axioms_validated_against_cat_labels(self):
        from repro.zoo import zoo_outcomes

        with pytest.raises(ValueError, match="unknown axiom"):
            zoo_outcomes(
                "scoped-rc11",
                BY_NAME["MP+weak"].program,
                skip_axioms=("warp-speed",),
            )

    def test_unbound_cat_name_rejected_on_every_call(self):
        """The model-static check is computed once but enforced on every
        call, not only the first."""
        from repro.zoo import zoo_outcomes

        blind = ZooModel(
            name="sc-without-po",
            cat="sc",
            signature=EventSignature(relations=(("rmw", "rmw"),)),
            witnesses=WitnessSpec(co_style="total"),
        )
        program = BY_NAME["MP+weak"].program
        for _ in range(3):
            with pytest.raises(ValueError, match=r"unbound name.*'po'"):
                zoo_outcomes(blind, program)

    def test_cat_free_names_walked_once_per_model(self, monkeypatch):
        """A second run of the same model re-walks none of its AST."""
        from repro.cat import catmodel_to_cat, load_model, parse_cat
        from repro.lang import ast
        from repro.zoo import zoo_outcomes

        real = ast.free_vars
        walks = []

        def counting(node):
            walks.append(node)
            return real(node)

        monkeypatch.setattr(ast, "free_vars", counting)
        # a freshly parsed model is walked on first use only
        fresh = parse_cat(catmodel_to_cat(load_model("imm")))
        first = fresh.free_names
        assert walks
        walks.clear()
        assert fresh.free_names is first and walks == []
        # (load_model's cache is left alone: the compiled kernel keys on
        # the identity of the cached model's AST nodes)
        program = BY_NAME["MP+weak"].program
        zoo_outcomes("imm", program)
        walks.clear()
        zoo_outcomes("imm", program)
        assert walks == []

    def test_declared_claims_hold_on_message_passing(self):
        from repro.zoo import concrete_observations, zoo_outcomes

        program = BY_NAME["MP+rel_acq.gpu"].program
        for claim in containment_claims():
            stronger = concrete_observations(
                zoo_outcomes(claim.stronger, program)
            )
            weaker = concrete_observations(
                zoo_outcomes(claim.weaker, program)
            )
            assert stronger <= weaker, (
                f"{claim.stronger} ⊑ {claim.weaker} fails on MP"
            )


class TestMatrixAssembly:
    def _table(self, observations):
        return {
            (model, name): frozenset(obs)
            for (model, name), obs in observations.items()
        }

    def test_classification_and_witnesses(self):
        from repro.zoo.matrix import assemble_matrix

        table = self._table({
            ("a", "t1"): {1}, ("a", "t2"): {1},
            ("b", "t1"): {1, 2}, ("b", "t2"): {1},
            ("c", "t1"): {3}, ("c", "t2"): {1},
        })
        matrix = assemble_matrix(["a", "b", "c"], ["t1", "t2"], table)
        assert matrix.cell("a", "b").relation == "stronger"
        assert matrix.cell("a", "b").witness_right_only == "t1"
        assert matrix.cell("b", "a").relation == "weaker"
        assert matrix.cell("a", "c").relation == "incomparable"
        assert matrix.cell("a", "c").witness_left_only == "t1"
        assert matrix.cell("a", "c").witness_right_only == "t1"

    def test_equivalent_pair_has_no_witnesses(self):
        from repro.zoo.matrix import assemble_matrix

        table = self._table({
            ("a", "t"): {1}, ("b", "t"): {1},
        })
        matrix = assemble_matrix(["b", "a"], ["t"], table)
        cell = matrix.cell("a", "b")
        assert cell.relation == "equivalent"
        assert cell.witness_left_only is None
        assert cell.witness_right_only is None
        # model order is sorted regardless of input order
        assert matrix.models == ("a", "b")

    def test_witnesses_are_first_in_corpus_order(self):
        from repro.zoo.matrix import assemble_matrix

        table = self._table({
            ("a", "t1"): {1}, ("a", "t2"): {1},
            ("b", "t1"): {1}, ("b", "t2"): {1, 2},
        })
        matrix = assemble_matrix(["a", "b"], ["t1", "t2"], table)
        assert matrix.cell("a", "b").witness_right_only == "t2"

    def test_json_round_trip_and_schema_gate(self):
        from repro.zoo.matrix import (
            MatrixError, ModelMatrix, assemble_matrix,
        )

        table = self._table({("a", "t"): {1}, ("b", "t"): {1, 2}})
        matrix = assemble_matrix(["a", "b"], ["t"], table)
        assert ModelMatrix.from_json(matrix.to_json()) == matrix
        with pytest.raises(MatrixError, match="schema"):
            ModelMatrix.from_dict({"schema": 99, "models": [], "tests": [],
                                   "cells": []})

    def test_diff_reports_relation_flips_and_witness_drift(self):
        from repro.zoo.matrix import MatrixCell, ModelMatrix

        base = ModelMatrix(
            models=("a", "b"), tests=("t",),
            cells=(MatrixCell("a", "b", "stronger",
                              witness_right_only="t"),
                   MatrixCell("b", "a", "weaker",
                              witness_left_only="t")),
        )
        flipped = ModelMatrix(
            models=("a", "b"), tests=("t",),
            cells=(MatrixCell("a", "b", "equivalent"),
                   MatrixCell("b", "a", "weaker",
                              witness_left_only="t2")),
        )
        problems = flipped.diff(base)
        assert any("stronger -> equivalent" in p for p in problems)
        assert any("witness changed" in p for p in problems)
        assert base.diff(base) == []

    def test_format_table_marks_diagonal(self):
        from repro.zoo.matrix import assemble_matrix

        table = self._table({("a", "t"): {1}, ("b", "t"): {1, 2}})
        rendered = assemble_matrix(["a", "b"], ["t"], table).format_table()
        assert "·" in rendered
        assert "⊏" in rendered and "⊐" in rendered

    def test_matrix_corpus_fast_is_the_suite(self):
        from repro.litmus.suite import SUITE
        from repro.zoo.matrix import matrix_corpus

        corpus = matrix_corpus(fast=True)
        assert [name for name, _ in corpus] == [t.name for t in SUITE]
        full = matrix_corpus(fast=False)
        assert len(full) > len(corpus)
        names = [name for name, _ in full]
        assert len(names) == len(set(names))


class TestMatrixBuild:
    def test_fast_build_is_byte_deterministic(self):
        from repro.zoo.matrix import build_matrix, verify_claims

        first = build_matrix(models=["sc", "tso"], fast=True)
        second = build_matrix(models=["tso", "sc"], fast=True)
        assert first.to_json() == second.to_json()
        assert first.cell("sc", "tso").relation == "stronger"
        assert verify_claims(first) == []

    def test_unknown_model_rejected_before_any_run(self):
        from repro.zoo.matrix import build_matrix

        with pytest.raises(KeyError, match="unknown zoo model"):
            build_matrix(models=["sc", "alpha21264"], fast=True)

    def test_verify_claims_flags_a_refuted_edge(self):
        from repro.zoo.matrix import MatrixCell, ModelMatrix, verify_claims

        fabricated = ModelMatrix(
            models=("sc", "tso"), tests=("t",),
            cells=(MatrixCell("sc", "tso", "incomparable",
                              witness_left_only="t",
                              witness_right_only="t"),
                   MatrixCell("tso", "sc", "incomparable",
                              witness_left_only="t",
                              witness_right_only="t")),
        )
        problems = verify_claims(fabricated)
        assert any("sc ⊑ tso refuted" in p for p in problems)
