"""Tests for the cross-engine differential oracle."""

import pytest

from repro.fuzz.oracle import (
    Check,
    EngineRun,
    Oracle,
    check_test,
    compare_results,
    default_checks,
)
from repro.litmus import SUITE
from repro.litmus.parser import parse_litmus
from repro.litmus.runner import LitmusResult
from repro.ptx.isa import Bar

#: minimal test whose verdict flips when SC-per-Location is skipped:
#: without per-location SC the read can see the first write even though
#: program order puts a later same-location write after it.
SCPL_SENSITIVE = """
ptx test scpl
thread d0c0t0
  st.weak [x], 1
  st.weak [x], 2
allowed: [x]=1
"""

BAR_TEST = next(
    t for t in SUITE
    if any(isinstance(i, Bar) for th in t.program.threads
           for i in th.instructions)
)


class TestDefaultChecks:
    def test_battery_shape(self):
        checks = default_checks()
        assert len(checks) == 9
        assert {c.kind for c in checks} == {
            "ptx-verdict", "ptx-outcomes", "ptx-rf-outcomes",
            "sc-operational", "tso-operational",
            # derived from the zoo's declared containment claims
            "sc-within-tso", "sc-within-imm",
            "scoped-rc11-within-ptx",
            "scoped-rc11-sc-within-scoped-rc11",
        }

    def test_containment_checks_derive_from_zoo_claims(self):
        from repro.fuzz.oracle import containment_checks
        from repro.zoo import containment_claims

        checks = containment_checks()
        claims = containment_claims()
        assert len(checks) == len(claims)
        for check, claim in zip(checks, claims):
            assert check.kind == f"{claim.stronger}-within-{claim.weaker}"
            assert check.left.model == claim.stronger
            assert check.right.model == claim.weaker
            assert check.compare == "contained"

    def test_rf_check_engine_is_cross_checked_against_enumerative(self):
        check = next(
            c for c in default_checks() if c.kind == "ptx-rf-outcomes"
        )
        assert check.right.engine == "rf-check"
        assert check.compare == "outcomes"
        # under a perturbed enumerative reference the clean rf-check
        # side must disagree, so the check doubles as negative control
        broken = next(
            c for c in default_checks("SC-per-Location")
            if c.kind == "ptx-rf-outcomes"
        )
        assert "skip SC-per-Location" in broken.left.label
        assert broken.right.engine == "rf-check"

    def test_unknown_perturb_axiom_rejected(self):
        with pytest.raises(ValueError, match="unknown axiom"):
            default_checks("coherence")  # axiom names are capitalized

    def test_perturb_changes_the_enumerative_spec(self):
        normal = default_checks()
        broken = default_checks("SC-per-Location")
        assert normal[0].left != broken[0].left
        assert "skip SC-per-Location" in broken[0].left.label
        assert dict(broken[0].left.search_opts)["skip_axioms"] == (
            "SC-per-Location",
        )

    def test_operational_checks_are_gated(self):
        for check in default_checks():
            if check.requires_operational:
                assert not check.applies(BAR_TEST)
            else:
                assert check.applies(BAR_TEST)


class TestCompareResults:
    def _result(self, test, observed, outcomes):
        return LitmusResult(
            test=test, model="ptx", observed=observed,
            outcomes=frozenset(outcomes),
        )

    def setup_method(self):
        self.test = parse_litmus(SCPL_SENSITIVE)
        self.check_outcomes = Check("k", EngineRun("L"), EngineRun("R"))
        self.check_verdict = Check(
            "k", EngineRun("L"), EngineRun("R"), compare="verdict"
        )
        self.check_subset = Check(
            "k", EngineRun("L"), EngineRun("R"), compare="subset"
        )

    def test_outcome_agreement(self):
        left = self._result(self.test, True, {1, 2})
        right = self._result(self.test, True, {2, 1})
        assert compare_results(self.check_outcomes, left, right) is None

    def test_outcome_mismatch_names_both_sides(self):
        left = self._result(self.test, True, {1, 2})
        right = self._result(self.test, True, {2, 3})
        detail = compare_results(self.check_outcomes, left, right)
        assert "left-only" in detail and "right-only" in detail

    def test_equal_outcomes_different_verdicts_is_a_discrepancy(self):
        left = self._result(self.test, True, {1})
        right = self._result(self.test, False, {1})
        detail = compare_results(self.check_outcomes, left, right)
        assert "different verdicts" in detail

    def test_verdict_comparison_ignores_outcomes(self):
        left = self._result(self.test, True, {1})
        right = self._result(self.test, True, {1, 2, 3})
        assert compare_results(self.check_verdict, left, right) is None

    def test_subset_holds(self):
        left = self._result(self.test, True, {1})
        right = self._result(self.test, True, {1, 2})
        assert compare_results(self.check_subset, left, right) is None
        # and is directional
        assert compare_results(
            self.check_subset, right, left
        ) is not None


class TestOracle:
    def test_clean_on_a_suite_test(self):
        verdict = check_test(SUITE[0])
        assert verdict.clean
        assert verdict.agreed
        assert not verdict.undecided

    def test_perturbed_oracle_catches_the_broken_engine(self):
        test = parse_litmus(SCPL_SENSITIVE)
        assert check_test(test).clean
        verdict = check_test(test, default_checks("SC-per-Location"))
        assert not verdict.clean
        kinds = {d.kind for d in verdict.discrepancies}
        assert "ptx-verdict" in kinds or "ptx-outcomes" in kinds

    def test_engine_error_is_undecided_not_discrepancy(self):
        test = parse_litmus(SCPL_SENSITIVE)
        oracle = Oracle((Check("k", EngineRun("L"), EngineRun("R")),))
        good = LitmusResult(
            test=test, model="ptx", observed=True, outcomes=frozenset({1}),
        )
        bad = LitmusResult(
            test=test, model="ptx", observed=False, outcomes=frozenset(),
            status="timeout",
        )
        verdict = oracle._judge(
            test, {EngineRun("L"): good, EngineRun("R"): bad}
        )
        assert verdict.clean
        assert verdict.undecided == ("k",)
        # a timeout is undecided but NOT a crash
        assert verdict.errors == ()

    def test_engine_crash_is_recorded_on_the_errors_field(self):
        test = parse_litmus(SCPL_SENSITIVE)
        oracle = Oracle((Check("k", EngineRun("L"), EngineRun("R")),))
        good = LitmusResult(
            test=test, model="ptx", observed=True, outcomes=frozenset({1}),
        )
        crashed = LitmusResult(
            test=test, model="ptx", observed=False, outcomes=frozenset(),
            status="error", detail="KeyError: 'r9'",
        )
        verdict = oracle._judge(
            test, {EngineRun("L"): good, EngineRun("R"): crashed}
        )
        # still undecided (a crash decides nothing), but the crash is
        # additionally recorded so the shrinker can tell the two apart
        assert verdict.clean
        assert verdict.undecided == ("k",)
        assert verdict.errors == (("k", "right: KeyError: 'r9'"),)

    def test_evaluate_one_surfaces_a_raising_engine_as_error(self, monkeypatch):
        import repro.fuzz.oracle as oracle_mod

        test = parse_litmus(SCPL_SENSITIVE)
        real_decide = oracle_mod.decide

        def exploding(t, config):
            if config.engine == "symbolic-enum":
                raise RuntimeError("solver blew up")
            return real_decide(t, config)

        monkeypatch.setattr(oracle_mod, "decide", exploding)
        verdict = Oracle(default_checks()).evaluate_one(test)
        assert any(
            kind == "ptx-outcomes" and "solver blew up" in detail
            for kind, detail in verdict.errors
        )

    def test_evaluate_batches_through_a_session(self):
        from repro.litmus import RunConfig, Session

        tests = [SUITE[0], parse_litmus(SCPL_SENSITIVE)]
        oracle = Oracle(default_checks("SC-per-Location"))
        with Session(RunConfig()) as session:
            verdicts = oracle.evaluate(tests, session)
        assert len(verdicts) == 2
        assert verdicts[0].clean
        assert not verdicts[1].clean

    def test_session_and_in_process_paths_agree(self):
        from repro.litmus import RunConfig, Session

        tests = [SUITE[0], parse_litmus(SCPL_SENSITIVE)]
        oracle = Oracle(default_checks("SC-per-Location"))
        with Session(RunConfig(use_cache=False)) as session:
            batched = oracle.evaluate(tests, session)
        for test, via_session in zip(tests, batched):
            solo = oracle.evaluate_one(test)
            assert solo.agreed == via_session.agreed
            assert solo.undecided == via_session.undecided
            assert [d.kind for d in solo.discrepancies] == [
                d.kind for d in via_session.discrepancies
            ]
