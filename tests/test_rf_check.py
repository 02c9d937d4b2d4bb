"""The reads-from saturation engine: conformance and fragment bounds.

The engine's contract is absolute: ``rf_check_outcomes`` returns a
result *byte-identical* to the enumerative engine's on every program —
by deciding coherence per location through constraint saturation when
the request is in-fragment, and by falling back to enumeration (never
erroring) when it is not.  These tests pin the contract three ways:

* quick structural checks on hand-picked suite tests (non-slow);
* exhaustive agreement over the full suite and the pinned length-4
  generated corpus, under both relation kernels and across them (slow);
* a hypothesis sweep over the fuzzer's randomized test stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.gen import generate_case
from repro.lang import (
    clear_compile_cache, compile_cache_stats, program_signature,
)
from repro.litmus import BY_NAME, SUITE, RunConfig, run_litmus
from repro.litmus.compare import VARIANTS
from repro.litmus.generator import generate
from repro.litmus.runner import partition_opts
from repro.search.ptx_search import allowed_outcomes
from repro.search.records import EnumStats
from repro.search.rf_check import rf_check_outcomes

#: Geometry-skewed quick subset: the coherence pair exercises forced-co
#: seeding, MP/ISA2 the saturation step, IRIW the 4-thread worst case,
#: and the RMW tests the atomicity axiom's per-candidate check.
QUICK_TESTS = (
    "CoRR", "CoRW", "MP+rel_acq.gpu", "ISA2+rel_acq",
    "IRIW+rel_acq", "CAS+handoff", "R+fence.sc",
)


def _opts(test):
    opts, _ = partition_opts("ptx", dict(test.search_opts))
    return opts


class TestQuickAgreement:
    @pytest.mark.parametrize("name", QUICK_TESTS)
    def test_outcome_sets_identical(self, name):
        test = BY_NAME[name]
        opts = _opts(test)
        assert rf_check_outcomes(test.program, **opts) == allowed_outcomes(
            test.program, **opts
        )

    def test_saturation_engine_actually_runs(self):
        """In-fragment requests stay in the saturation path: no fallback,
        and strictly fewer co candidates than full enumeration once a
        program has enough locations for the product to bite (the sum
        2+2+2+2 vs the product 2*2*2*2)."""
        generated = generate(
            " ".join(["PodWW Wse"] * 4), **VARIANTS["relaxed.gpu"]
        )
        enum_stats, rf_stats = EnumStats(), EnumStats()
        allowed_outcomes(generated.test.program, stats=enum_stats)
        rf_check_outcomes(generated.test.program, stats=rf_stats)
        assert rf_stats.fallbacks == 0
        assert rf_stats.candidates_checked < enum_stats.candidates_checked

    def test_per_location_work_is_linear_in_locations(self):
        """The decomposition argument made concrete: on an n-location
        write-chain the enumerative engine checks 2^n co candidates per
        rf choice, saturation checks 2n."""
        n = 6
        generated = generate(
            " ".join(["PodWW Wse"] * n), **VARIANTS["relaxed.gpu"]
        )
        enum_stats, rf_stats = EnumStats(), EnumStats()
        enum = allowed_outcomes(generated.test.program, stats=enum_stats)
        saturated = rf_check_outcomes(generated.test.program, stats=rf_stats)
        assert saturated == enum
        assert enum_stats.candidates_checked == 2 ** n
        assert rf_stats.candidates_checked == 2 * n


def test_engines_share_one_compiled_instance_per_signature():
    """Enumerative and rf-check runs of the suite's in-fragment tests
    compile one instance per program signature between them, and
    rf-check never falls back.  A formula-list mismatch under the shared
    ``("ptx", signature)`` key would otherwise only show as a silent
    fallback."""
    in_fragment = [test for test in SUITE if not _opts(test)]
    clear_compile_cache()
    try:
        for test in in_fragment:
            allowed_outcomes(test.program, kernel="compiled")
        stats = EnumStats()
        for test in in_fragment:
            rf_check_outcomes(test.program, kernel="compiled", stats=stats)
        signatures = {program_signature(t.program) for t in in_fragment}
        assert compile_cache_stats()["instances"] == len(signatures)
        assert stats.fallbacks == 0
    finally:
        clear_compile_cache()


class TestFallback:
    def test_skip_axioms_falls_back_and_agrees(self):
        """Axiom ablation is outside the fragment: the engine must not
        guess — it delegates to enumeration and still matches it."""
        test = BY_NAME["MP+rel_acq.gpu"]
        stats = EnumStats()
        outcomes = rf_check_outcomes(
            test.program, skip_axioms=("Causality",), stats=stats
        )
        assert stats.fallbacks >= 1
        assert outcomes == allowed_outcomes(
            test.program, skip_axioms=("Causality",)
        )

    def test_speculation_falls_back_and_agrees(self):
        test = BY_NAME["LB+deps"]
        opts = dict(_opts(test))
        assert opts.get("speculation_values"), "LB+deps should speculate"
        stats = EnumStats()
        outcomes = rf_check_outcomes(test.program, stats=stats, **opts)
        assert stats.fallbacks >= 1
        assert outcomes == allowed_outcomes(test.program, **opts)

    def test_fallback_never_raises(self):
        """Whatever the request, the answer comes back (the engine's
        'guaranteed sound, never errors' clause): every suite test with
        engine-specific opts included."""
        for test in SUITE:
            opts = _opts(test)
            assert rf_check_outcomes(test.program, **opts) == (
                allowed_outcomes(test.program, **opts)
            ), test.name


class TestRunnerIntegration:
    def test_run_litmus_accepts_rf_check(self):
        result = run_litmus(BY_NAME["MP+rel_acq.gpu"], engine="rf-check")
        baseline = run_litmus(BY_NAME["MP+rel_acq.gpu"])
        assert result.status == "ok"
        assert result.verdict == baseline.verdict
        assert result.outcomes == baseline.outcomes
        assert result.enum_stats is not None

    def test_rf_check_rejects_non_ptx_models(self):
        with pytest.raises(ValueError, match="rf-check"):
            run_litmus(
                BY_NAME["CoRR"], config=RunConfig(model="sc", engine="rf-check")
            )

    def test_config_accepts_rf_check_engine(self):
        assert RunConfig(engine="rf-check").engine == "rf-check"


@settings(max_examples=25, deadline=None)
@given(index=st.integers(min_value=0, max_value=400))
def test_fuzz_stream_agreement(index):
    """Property: on the fuzzer's randomized stream (annotations, scopes,
    fences, RMWs, value perturbations) the saturation engine reproduces
    the enumerative outcome set exactly."""
    case = generate_case(20260808, index)
    stats = EnumStats()
    assert rf_check_outcomes(case.test.program, stats=stats) == (
        allowed_outcomes(case.test.program)
    )


@pytest.mark.slow
class TestExhaustiveAgreement:
    @pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
    @pytest.mark.parametrize("kernel,reference", [
        # across representations: rf-check on bitsets (the compiled
        # kernel) against the enumerator on the frozenset reference
        pytest.param("compiled", "set", id="bit"),
        pytest.param("set", "set", id="set"),
        pytest.param("compiled", "compiled", id="compiled"),
    ])
    def test_full_suite_both_kernels(self, test, kernel, reference):
        opts = _opts(test)
        assert rf_check_outcomes(
            test.program, kernel=kernel, **opts
        ) == allowed_outcomes(test.program, kernel=reference, **opts)

    def test_pinned_length4_corpus(self):
        """Every instance of the 48-test generated length-4 corpus."""
        from tests.test_generated_corpus import CORPUS4

        assert len(CORPUS4) == 48
        for name, variant, generated in CORPUS4:
            program = generated.test.program
            assert rf_check_outcomes(program) == allowed_outcomes(
                program
            ), f"{name}@{variant}"
