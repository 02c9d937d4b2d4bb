"""Tests for ``ptxmm fuzz`` and the pieces it shares with the farm:
budgets, reproducibility, artifacts, recheck, and the
deliberately-broken-engine negative control.

``ptxmm fuzz`` is the blind farm; these tests drive it through the CLI
and read back the :class:`~repro.fuzz.farm.FarmReport` it produced."""

import json
import os

import pytest

import repro.fuzz.farm as farm
from repro.cli import main
from repro.fuzz import FuzzBudget, recheck_artifact
from repro.fuzz.harness import FuzzStats
from repro.litmus.parser import parse_litmus

#: the negative-control axiom: racy generated tests trip per-location SC
#: constantly, so even a tiny budget reliably finds the injected bug
PERTURB = "SC-per-Location"

#: every check of the default battery
CHECKS = (
    "ptx-outcomes", "ptx-rf-outcomes", "ptx-verdict", "sc-operational",
    "sc-within-imm", "sc-within-tso", "scoped-rc11-sc-within-scoped-rc11",
    "scoped-rc11-within-ptx", "tso-operational",
)


def fuzz(*argv):
    """Run ``ptxmm fuzz ARGV``; return its exit status and farm report."""
    reports = []
    real_run_farm = farm.run_farm

    def spy(config, **kwargs):
        reports.append(real_run_farm(config, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(farm, "run_farm", spy)
        status = main(["fuzz", *argv])
    return status, reports[0]


class TestFuzzBudget:
    def test_count_budget(self):
        assert FuzzBudget.parse("200") == FuzzBudget(count=200)

    @pytest.mark.parametrize(
        "text,seconds", [("60s", 60), ("5m", 300), ("1h", 3600)]
    )
    def test_duration_budget(self, text, seconds):
        assert FuzzBudget.parse(text) == FuzzBudget(seconds=seconds)

    @pytest.mark.parametrize("bad", ["", "abc", "-5", "10x", "1.5s"])
    def test_bad_budgets_rejected(self, bad):
        with pytest.raises(ValueError):
            FuzzBudget.parse(bad)

    def test_exactly_one_dimension(self):
        with pytest.raises(ValueError):
            FuzzBudget()
        with pytest.raises(ValueError):
            FuzzBudget(count=1, seconds=1.0)

    def test_str_round_trips(self):
        for text in ("200", "60s"):
            assert str(FuzzBudget.parse(text)) == text


class _Stop(Exception):
    pass


@pytest.mark.slow
class TestFuzzCommand:
    """``ptxmm fuzz`` is the blind farm: no steering, no suite seeding,
    no checkpoint, and rounds of ``max(2 * workers, 8)`` cases."""

    def _config(self, monkeypatch, *argv):
        configs = []

        def capture(config, **kwargs):
            configs.append(config)
            raise _Stop()

        monkeypatch.setattr(farm, "run_farm", capture)
        with pytest.raises(_Stop):
            main(["fuzz", *argv])
        return configs[0]

    def test_reaches_the_blind_checkpoint_free_farm(self, monkeypatch):
        config = self._config(monkeypatch, "--budget", "48", "--seed", "3")
        assert config.budget == FuzzBudget(count=48)
        assert config.seed == 3
        assert config.steer is False
        assert config.seed_corpus is False
        assert config.checkpoint is None
        assert config.round_size == 8

    @pytest.mark.parametrize(
        "jobs,workers", [("2", 2), ("6", 6), ("0", os.cpu_count() or 1)]
    )
    def test_round_size_scales_with_workers(self, monkeypatch, jobs, workers):
        config = self._config(monkeypatch, "--jobs", jobs)
        assert config.round_size == max(2 * workers, 8)

    def test_seed_3_stats_are_pinned(self):
        status, report = fuzz("--budget", "48", "--seed", "3")
        assert status == 0 and report.ok
        assert report.stats == FuzzStats(
            generated=48, checks_run=432, undecided=0, discrepancies=0,
            by_check={kind: 48 for kind in CHECKS},
        )

    def test_perturbed_findings_are_pinned(self):
        """The negative control's seed: three kinds on case 2, each
        shrunk in 5 steps, and the run stops after its first round."""
        status, report = fuzz(
            "--budget", "100", "--seed", "20260805", "--perturb", PERTURB,
            "--max-found", "3",
        )
        assert status == 1
        assert [
            (f.case.index, f.discrepancy.kind, f.shrunk.steps)
            for f in report.found
        ] == [
            (2, "ptx-verdict", 5),
            (2, "ptx-outcomes", 5),
            (2, "ptx-rf-outcomes", 5),
        ]
        assert report.stats.generated == 8

    def test_prints_found_discrepancies_inline(self, capsys):
        status, _ = fuzz(
            "--budget", "8", "--seed", "20260805", "--perturb", PERTURB,
            "--max-found", "1",
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "DISCREPANCY ptx-verdict on case 2" in out
        assert "shrunk in 5 step(s)" in out
        assert "  ptx test fuzz_20260805_2" in out
        assert "1 distinct discrepancy(ies); reproduce with --seed 20260805" in out


@pytest.mark.slow
class TestReproducibility:
    def test_stats_are_bit_reproducible(self):
        a_status, a = fuzz("--budget", "10", "--seed", "3")
        b_status, b = fuzz("--budget", "10", "--seed", "3")
        assert a.stats == b.stats
        assert a_status == b_status == 0
        assert a.ok and b.ok

    def test_job_count_does_not_change_the_stats(self):
        _, solo = fuzz("--budget", "10", "--seed", "3", "--jobs", "1")
        _, multi = fuzz("--budget", "10", "--seed", "3", "--jobs", "2")
        assert solo.stats == multi.stats

    def test_wall_clock_budget_terminates(self):
        _, report = fuzz("--budget", "1s", "--seed", "3")
        assert report.stats.generated > 0
        # a generous ceiling: one round may straddle the deadline
        assert report.elapsed < 30.0


@pytest.mark.slow
class TestNegativeControl:
    """The acceptance test: a deliberately broken engine must be caught,
    shrunk, and written out as a replayable artifact."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("artifacts")
        status, result = fuzz(
            "--budget", "12", "--seed", "7", "--perturb", PERTURB,
            "--artifact-dir", str(directory), "--max-found", "2",
        )
        assert status == 1
        return directory, result

    def test_broken_engine_is_caught(self, report):
        _, result = report
        assert not result.ok
        assert result.stats.discrepancies > 0

    def test_discrepancies_are_shrunk(self, report):
        _, result = report
        for found in result.found:
            shrunk_size = sum(
                len(t.instructions)
                for t in found.shrunk.test.program.threads
            )
            original_size = sum(
                len(t.instructions)
                for t in found.case.test.program.threads
            )
            assert shrunk_size <= original_size
            assert found.shrunk.steps > 0

    def test_artifacts_are_parseable_litmus(self, report):
        directory, result = report
        assert result.found
        for found in result.found:
            target = directory / found.artifact_dir.rsplit("/", 1)[-1]
            repro = (target / "repro.litmus").read_text()
            assert f"seed {result.config.seed}" in repro
            parsed = parse_litmus(repro)
            assert parsed.program == found.shrunk.test.program
            parse_litmus((target / "original.litmus").read_text())

    def test_report_json_replays_by_seed_and_index(self, report):
        from repro.fuzz.gen import generate_case

        directory, result = report
        found = result.found[0]
        target = directory / found.artifact_dir.rsplit("/", 1)[-1]
        data = json.loads((target / "report.json").read_text())
        assert data["kind"] == found.discrepancy.kind
        replayed = generate_case(data["seed"], data["index"])
        assert replayed.test == found.case.test

    def test_recheck_still_reproduces_under_perturbation(self, report):
        directory, result = report
        found = result.found[0]
        target = directory / found.artifact_dir.rsplit("/", 1)[-1]
        verdict, reshrunk = recheck_artifact(
            str(target / "repro.litmus"), perturb=PERTURB
        )
        assert not verdict.clean
        assert reshrunk is not None
        assert reshrunk.steps == 0  # already minimal

    def test_recheck_is_clean_without_perturbation(self, report):
        """The bug lives in the perturbed engine, not the repro."""
        directory, result = report
        found = result.found[0]
        target = directory / found.artifact_dir.rsplit("/", 1)[-1]
        verdict, reshrunk = recheck_artifact(str(target / "repro.litmus"))
        assert verdict.clean
        assert reshrunk is None

    def test_recheck_command_exit_status(self, report, capsys):
        directory, result = report
        found = result.found[0]
        repro = str(
            directory / found.artifact_dir.rsplit("/", 1)[-1] / "repro.litmus"
        )
        assert main(["fuzz", "--recheck", repro, "--perturb", PERTURB]) == 1
        assert "still reproduces" in capsys.readouterr().out
        assert main(["fuzz", "--recheck", repro]) == 0
        assert "no discrepancy" in capsys.readouterr().out

    def test_max_found_stops_the_run_early(self, report):
        _, result = report
        assert len(result.found) <= 2


class TestFuzzStats:
    def test_format_is_stable(self):
        stats = FuzzStats(
            generated=4, checks_run=20, undecided=1, discrepancies=0,
            by_check={"ptx-verdict": 4},
        )
        assert stats.format() == (
            "generated=4 checks=20 undecided=1 discrepancies=0 "
            "[ptx-verdict=4]"
        )

    def test_dict_form_round_trips(self):
        stats = FuzzStats(
            generated=4, checks_run=20, undecided=1, discrepancies=2,
            deduped=1, by_check={"ptx-verdict": 4, "ptx-outcomes": 3},
        )
        assert stats.as_dict() == {
            "generated": 4, "checks_run": 20, "undecided": 1,
            "discrepancies": 2, "deduped": 1,
            "by_check": {"ptx-outcomes": 3, "ptx-verdict": 4},
        }
        assert FuzzStats.from_dict(stats.as_dict()) == stats
        assert FuzzStats.from_dict({}) == FuzzStats()


class TestCrashReporting:
    """The shrink predicate distinguishes an engine *crash* from a
    clean non-repro, and artifacts record crashes seen while
    shrinking — both used to be silently swallowed."""

    def _verdict(self, discrepancies=(), errors=()):
        from repro.fuzz.oracle import CaseVerdict
        from repro.litmus.parser import parse_litmus

        test = parse_litmus(
            "ptx test t\nthread d0c0t0\n  st.weak [x], 1\nallowed: [x]=1\n"
        )
        return CaseVerdict(
            test=test,
            discrepancies=tuple(discrepancies),
            errors=tuple(errors),
        )

    def _fake_oracle(self, verdict):
        class FakeOracle:
            def evaluate_one(self, candidate):
                return verdict

        return FakeOracle()

    def test_predicate_raises_on_matching_crash(self):
        from repro.fuzz.harness import _shrink_predicate
        from repro.fuzz.shrink import EngineCrash

        verdict = self._verdict(errors=[("ptx-outcomes", "left: boom")])
        predicate = _shrink_predicate(
            self._fake_oracle(verdict), "ptx-outcomes"
        )
        with pytest.raises(EngineCrash, match="boom"):
            predicate(verdict.test)

    def test_predicate_ignores_crashes_of_other_kinds(self):
        from repro.fuzz.harness import _shrink_predicate

        verdict = self._verdict(errors=[("sc-operational", "left: boom")])
        predicate = _shrink_predicate(
            self._fake_oracle(verdict), "ptx-outcomes"
        )
        assert predicate(verdict.test) is False

    def test_predicate_prefers_the_discrepancy_over_the_crash(self):
        from repro.fuzz.harness import _shrink_predicate
        from repro.fuzz.oracle import Discrepancy

        verdict = self._verdict(
            discrepancies=[Discrepancy(
                kind="ptx-outcomes", test=None, left_label="L",
                right_label="R", detail="disagree",
            )],
            errors=[("ptx-outcomes", "right: boom")],
        )
        predicate = _shrink_predicate(
            self._fake_oracle(verdict), "ptx-outcomes"
        )
        # still a live repro: shrinking continues, no crash raised
        assert predicate(verdict.test) is True

    def test_report_json_records_shrink_crashes(self, tmp_path):
        from repro.fuzz.gen import generate_case
        from repro.fuzz.harness import write_artifact
        from repro.fuzz.oracle import Discrepancy
        from repro.fuzz.shrink import ShrinkResult

        case = generate_case(seed=1, index=0)
        discrepancy = Discrepancy(
            kind="ptx-outcomes", test=case.test, left_label="L",
            right_label="R", detail="disagree",
        )
        shrunk = ShrinkResult(
            test=case.test, steps=2, attempts=9, crashes=3,
            crash_details=("left: boom", "left: boom", "right: bang"),
        )
        target = write_artifact(tmp_path, case, discrepancy, shrunk)
        data = json.loads((target / "report.json").read_text())
        assert data["shrink_crashes"] == 3
        assert data["shrink_crash_details"] == [
            "left: boom", "left: boom", "right: bang",
        ]


class TestArtifactDedup:
    """Identical findings — same check kind, same canonical shrunk form
    — must produce ONE artifact, however many cases hit them.  Artifact
    directories key on the shrunk test's canonical-form hash, so two
    identical repros can no longer clobber each other under different
    index-based names (the old collision) or double-report one bug."""

    def _fixed_point(self):
        from repro.litmus.parser import parse_litmus

        return parse_litmus(
            "ptx test minimal\n"
            "thread d0c0t0\n"
            "  st.weak [x], 1\n"
            "  st.weak [x], 2\n"
            "allowed: [x]=1\n"
        )

    def test_canonical_hash_ignores_presentation_fields(self):
        import dataclasses

        from repro.fuzz import canonical_test_hash

        test = self._fixed_point()
        renamed = dataclasses.replace(
            test, name="other", description="something else"
        )
        assert canonical_test_hash(test) == canonical_test_hash(renamed)

    def test_write_artifact_is_stable_under_identical_repros(self, tmp_path):
        from repro.fuzz.gen import generate_case
        from repro.fuzz.harness import write_artifact
        from repro.fuzz.oracle import Discrepancy
        from repro.fuzz.shrink import ShrinkResult

        shrunk = ShrinkResult(test=self._fixed_point(), steps=1, attempts=3)
        dirs = set()
        for index in (0, 1):
            case = generate_case(3, index)
            discrepancy = Discrepancy(
                kind="ptx-outcomes",
                test=case.test,
                left_label="a",
                right_label="b",
                detail="disagree",
            )
            dirs.add(write_artifact(tmp_path, case, discrepancy, shrunk))
        assert len(dirs) == 1

    @pytest.mark.slow
    def test_identical_discrepancies_dedup_to_one_artifact(
        self, tmp_path, monkeypatch
    ):
        """Two fuzz cases whose discrepancies minimize to the same
        canonical form: one artifact on disk, one found entry, the
        duplicate counted in stats.deduped."""
        from repro.fuzz.shrink import ShrinkResult

        fixed = ShrinkResult(test=self._fixed_point(), steps=0, attempts=1)
        monkeypatch.setattr(farm, "shrink", lambda *a, **kw: fixed)

        _, report = fuzz(
            "--budget", "8", "--seed", "7", "--perturb", PERTURB,
            "--artifact-dir", str(tmp_path), "--max-found", "50",
        )
        assert report.stats.discrepancies >= 2
        by_kind = {}
        for found in report.found:
            by_kind.setdefault(found.discrepancy.kind, []).append(found)
        # per check kind, the identical shrunk form surfaced exactly once
        assert all(len(entries) == 1 for entries in by_kind.values())
        assert report.stats.deduped == (
            report.stats.discrepancies - len(report.found)
        )
        assert report.stats.deduped > 0
        artifact_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(artifact_dirs) == len(by_kind)
        assert "deduped=" in report.stats.format()
