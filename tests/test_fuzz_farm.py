"""Tests for the coverage-guided farm: checkpoint/resume equivalence,
steering determinism, corpus emission, and artifact dedup.

The load-bearing property is resume equivalence: a farm killed after
any round and resumed from its checkpoint must converge to the same
coverage map, dedup set, and stream position as an uninterrupted run —
that is what lets nightly CI accumulate coverage across sessions.
"""

import dataclasses
import gc
import json
import subprocess
import sys

import pytest

from repro.fuzz import GenBias, generate_case
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.farm import (
    FARM_GC_THRESHOLD,
    FARM_SCHEMA,
    FarmConfig,
    FarmReport,
    load_checkpoint,
    run_farm,
    save_checkpoint,
    write_corpus,
)
from repro.fuzz.harness import FuzzBudget, FuzzStats

#: coverage-only (no cross-engine battery), no suite seeding: the
#: cheapest configuration that still exercises rounds, steering, and
#: checkpoints, so these tests stay in tier-1 time budgets
def _config(**overrides):
    base = dict(
        seed=11,
        budget=FuzzBudget(count=12),
        round_size=4,
        seed_corpus=False,
        timeout=20.0,
    )
    base.update(overrides)
    return FarmConfig(**base)


class _Kill(Exception):
    pass


def _kill_after(round_number):
    """A progress hook that simulates a crash: the round's checkpoint is
    already durably saved when progress runs, so raising here models a
    kill at the worst legal moment."""

    def hook(report):
        if report.rounds >= round_number:
            raise _Kill()

    return hook


class TestGenBiasWire:
    def test_round_trip(self):
        bias = GenBias(
            edge_weights={"Rfe": 8.0},
            annotation_weights={"R:acquire.sys": 2.0},
            fence_weights={"sc.cta": 8.0},
            layout_weights={"mixed": 3.0},
            length_weights={3: 8.0},
            fence_rate=0.7,
        )
        assert GenBias.from_dict(bias.to_dict()) == bias

    def test_wire_form_is_json_safe(self):
        bias = GenBias(length_weights={4: 2.0})
        encoded = json.dumps(bias.to_dict(), sort_keys=True)
        assert GenBias.from_dict(json.loads(encoded)) == bias

    def test_blind_path_ignores_no_bias(self):
        """bias=None must consume the RNG exactly like the historical
        fuzzer: same seed+index, same test."""
        for index in range(6):
            assert (
                generate_case(3, index).test
                == generate_case(3, index, None).test
            )

    def test_biased_generation_is_pure(self):
        bias = GenBias(edge_weights={"Rfe": 9.0}, fence_rate=0.7)
        for index in range(6):
            assert (
                generate_case(3, index, bias).test
                == generate_case(3, index, bias).test
            )


class TestCheckpointFormat:
    def _report(self):
        config = _config(checkpoint=None)
        report = FarmReport(
            config=config, stats=FuzzStats(), coverage=CoverageMap()
        )
        report.coverage.observe({"edge:Rfe", "layout:cta"}, 3)
        report.dedup[("ptx-outcomes", "abc123")] = "artifacts/repro-x"
        report.stats.generated = 4
        report.next_index = 8
        report.rounds = 2
        return report

    def test_save_load_round_trip(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "farm.json")
        save_checkpoint(path, report)
        loaded = load_checkpoint(path, report.config)
        assert loaded.coverage == report.coverage
        assert loaded.dedup == report.dedup
        assert loaded.next_index == report.next_index
        assert loaded.rounds == report.rounds
        assert loaded.stats == report.stats
        # saving what was loaded rewrites the identical bytes
        again = str(tmp_path / "again.json")
        save_checkpoint(again, loaded)
        assert (tmp_path / "again.json").read_bytes() == (
            (tmp_path / "farm.json").read_bytes()
        )

    def test_incompatible_config_names_the_drift(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "farm.json")
        save_checkpoint(path, report)
        other = dataclasses.replace(report.config, seed=99, boost=2.0)
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(path, other)
        assert "boost" in str(excinfo.value)
        assert "seed" in str(excinfo.value)

    @pytest.mark.parametrize(
        "mangle,field",
        [
            (lambda payload: [1, 2], "JSON list"),
            (lambda payload: payload.pop("coverage"), "'coverage'"),
            (
                lambda payload: next(
                    iter(payload["candidates"].values())
                ).pop("index"),
                "'candidates'",
            ),
        ],
        ids=["not-an-object", "no-coverage", "candidate-without-index"],
    )
    def test_malformed_checkpoint_names_file_and_field(
        self, tmp_path, mangle, field
    ):
        report = self._report()
        report.candidates["t"] = {
            "index": 3, "cycle": None, "features": frozenset({"edge:Rfe"}),
            "test": {},
        }
        path = tmp_path / "farm.json"
        save_checkpoint(str(path), report)
        payload = json.loads(path.read_text())
        replaced = mangle(payload)
        path.write_text(json.dumps(
            replaced if isinstance(replaced, list) else payload
        ))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(str(path), report.config)
        assert str(path) in str(excinfo.value)
        assert field in str(excinfo.value)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "farm.json"
        path.write_text(json.dumps({"schema": FARM_SCHEMA + 1}))
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(str(path), self._report().config)


class TestFarmConfigValidation:
    """A zero round never advanced the stream (a count budget spun
    forever), a negative one walked it backwards, and a non-positive
    boost crashed steering once it started."""

    @pytest.mark.parametrize("round_size", [0, -1])
    def test_round_size_must_be_positive(self, round_size):
        with pytest.raises(ValueError, match="round size"):
            _config(round_size=round_size)

    @pytest.mark.parametrize("boost", [0.0, -1.0])
    def test_boost_must_be_positive(self, boost):
        with pytest.raises(ValueError, match="boost"):
            _config(boost=boost)


@pytest.mark.slow
class TestFarmRuns:
    def test_coverage_only_smoke(self):
        report = run_farm(_config(), checks=())
        assert report.ok
        assert report.stats.generated == 12
        assert report.rounds == 3
        assert len(report.coverage) > 0
        assert report.candidates
        # every candidate contributed something to the frontier
        assert report.distilled()

    def test_runs_are_deterministic(self):
        a = run_farm(_config(), checks=())
        b = run_farm(_config(), checks=())
        assert a.coverage.digest() == b.coverage.digest()
        assert sorted(a.candidates) == sorted(b.candidates)
        assert a.stats == b.stats

    def test_count_budget_is_total_stream_length(self, tmp_path):
        """budget=12 means indices 0..11 across however many sessions."""
        path = str(tmp_path / "farm.json")
        first = run_farm(_config(budget=FuzzBudget(count=8), checkpoint=path), checks=())
        assert first.next_index == 8
        second = run_farm(_config(checkpoint=path), checks=())
        assert second.next_index == 12
        assert second.stats.generated == 12
        # a further resume has nothing left to do
        third = run_farm(_config(checkpoint=path), checks=())
        assert third.stats.generated == 12

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        """The resume property: kill after round 1, resume, and the
        merged state is indistinguishable from never having crashed."""
        path = str(tmp_path / "farm.json")
        with pytest.raises(_Kill):
            run_farm(
                _config(checkpoint=path),
                checks=(),
                progress=_kill_after(1),
            )
        interrupted = load_checkpoint(path, _config(checkpoint=path))
        assert interrupted.next_index == 4  # one round survived

        resumed = run_farm(_config(checkpoint=path), checks=())
        baseline = run_farm(_config(), checks=())
        assert resumed.coverage.digest() == baseline.coverage.digest()
        assert set(resumed.dedup) == set(baseline.dedup)
        assert resumed.next_index == baseline.next_index
        assert sorted(resumed.candidates) == sorted(baseline.candidates)

    def test_steering_changes_the_stream(self):
        """A coverage-derived bias actually reshapes generation: the
        same (seed, index) slots draw different tests under boost."""
        from repro.fuzz.coverage import bias_from_coverage

        report = run_farm(_config(budget=FuzzBudget(count=4)), checks=())
        bias = bias_from_coverage(report.coverage, boost=64.0)
        assert any(
            generate_case(11, i, bias).test != generate_case(11, i).test
            for i in range(4, 16)
        )


class TestCollectorSettings:
    """The farm tunes the garbage collector for its own loop only."""

    def test_import_leaves_the_collector_alone(self):
        probe = "import gc; {}print(gc.get_threshold(), gc.get_freeze_count())"
        plain, imported = (
            subprocess.run(
                [sys.executable, "-c", probe.format(prefix)],
                capture_output=True, text=True, check=True,
            ).stdout
            for prefix in ("", "import repro, repro.api, repro.fuzz.farm; ")
        )
        assert imported == plain

    def test_settings_restored_after_return_and_raise(self):
        before = (gc.get_threshold(), gc.get_freeze_count())
        seen = []

        def watch(report):
            seen.append(gc.get_threshold())

        run_farm(_config(), checks=(), progress=watch)
        assert (gc.get_threshold(), gc.get_freeze_count()) == before
        # the loop did run tuned from its second round on
        assert seen[0] == before[0] and seen[1:] == [FARM_GC_THRESHOLD] * 2

        with pytest.raises(_Kill):
            run_farm(_config(), checks=(), progress=_kill_after(2))
        assert (gc.get_threshold(), gc.get_freeze_count()) == before

    def test_disabled_collector_is_left_alone(self):
        before = gc.get_threshold()
        gc.disable()
        try:
            seen = []
            run_farm(
                _config(), checks=(),
                progress=lambda report: seen.append(gc.get_threshold()),
            )
            assert seen == [before] * 3
            assert gc.get_freeze_count() == 0 and not gc.isenabled()
        finally:
            gc.enable()


@pytest.mark.slow
class TestWriteCorpus:
    def test_corpus_round_trips_through_the_loader(self, tmp_path):
        from repro.litmus.corpus import regression_corpus

        report = run_farm(_config(), checks=())
        names = write_corpus(report, str(tmp_path / "corpus"))
        loaded = regression_corpus(str(tmp_path / "corpus"))
        assert sorted(t.name for t in loaded) == sorted(names)
        manifest = json.loads(
            (tmp_path / "corpus" / "MANIFEST.json").read_text()
        )
        assert manifest["schema"] == FARM_SCHEMA
        assert manifest["coverage_digest"] == report.coverage.digest()

    def test_edited_file_is_reported_stale(self, tmp_path):
        from repro.litmus.corpus import regression_corpus

        report = run_farm(_config(), checks=())
        names = write_corpus(report, str(tmp_path / "corpus"))
        victim = json.loads(
            (tmp_path / "corpus" / "MANIFEST.json").read_text()
        )["tests"][names[0]]["file"]
        target = tmp_path / "corpus" / victim
        # bump the first stored constant: still parseable litmus, but a
        # different program, so the canonical-form hash must change
        import re

        edited = re.sub(
            r"\], (\d+)",
            lambda m: f"], {int(m.group(1)) + 1}",
            target.read_text(),
            count=1,
        )
        assert edited != target.read_text()
        target.write_text(edited)
        with pytest.raises(ValueError, match=names[0].replace("+", r"\+")):
            regression_corpus(str(tmp_path / "corpus"))

    def test_search_opts_survive_via_manifest(self, tmp_path):
        from repro.litmus.corpus import regression_corpus
        from repro.litmus.suite import BY_NAME

        report = run_farm(_config(budget=FuzzBudget(count=4)), checks=())
        write_corpus(
            report, str(tmp_path / "corpus"),
            extra_tests=[BY_NAME["LB+deps"]],
        )
        loaded = regression_corpus(str(tmp_path / "corpus"))
        lb = next(t for t in loaded if t.name == "LB+deps")
        assert lb.search_opts == BY_NAME["LB+deps"].search_opts
