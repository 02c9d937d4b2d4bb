"""Round-trip tests for the shared serialization format."""

import json
from dataclasses import replace

import pytest

from repro.litmus import SUITE, run_litmus
from repro.litmus.serialize import (
    FORMAT_VERSION,
    canonical_json,
    result_from_dict,
    result_to_dict,
    verdict_digest,
)
from repro.sat import SolverStats
from repro.search.ptx_search import EnumStats
from repro.litmus.serialize import test_from_dict as load_test
from repro.litmus.serialize import test_to_dict as dump_test


class TestTestRoundTrip:
    @pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
    def test_every_suite_test_round_trips(self, test):
        assert load_test(dump_test(test)) == test

    def test_payload_is_json_native(self):
        payload = dump_test(SUITE[0])
        rebuilt = json.loads(json.dumps(payload))
        assert load_test(rebuilt) == SUITE[0]

    def test_format_version_stamped(self):
        assert dump_test(SUITE[0])["format"] == FORMAT_VERSION

    def test_search_opts_survive(self):
        tests = [t for t in SUITE if t.search_opts]
        assert tests, "suite should contain at least one search_opts test"
        for test in tests:
            assert load_test(dump_test(test)).search_opts == \
                test.search_opts


class TestConfigRoundTrip:
    """Worker IPC must carry the *whole* RunConfig.

    The regression pinned here: ``_execute_task`` used to rebuild its
    config from a hand-picked four-field subset, so any field added
    later silently reverted to its default inside worker processes.
    The samples dict below intentionally gives EVERY field a
    non-default value and asserts full coverage — adding a RunConfig
    field without extending it fails this test, which is the point.
    """

    #: one non-default sample per RunConfig field
    SAMPLES = {
        "model": "tso",
        "engine": "symbolic",
        "search_opts": {"skip_axioms": ("SC-per-Location",)},
        "timeout": 12.5,
        "jobs": 3,
        "use_cache": True,
        "cache_dir": "/tmp/ptxmm-roundtrip-test",
        "max_attempts": 7,
        "certify": True,
        "kernel": "set",
    }

    def _config(self):
        from repro.litmus.config import RunConfig

        # symbolic is PTX-only and certify excludes skip_axioms at run
        # time, but the *serialization* layer must carry any well-formed
        # config; construction-level validation still applies
        return RunConfig(
            **{**self.SAMPLES, "model": "ptx", "engine": "symbolic"}
        )

    def test_samples_cover_every_field(self):
        from dataclasses import fields

        from repro.litmus.config import RunConfig

        field_names = {f.name for f in fields(RunConfig)}
        assert set(self.SAMPLES) == field_names, (
            "a RunConfig field has no non-default sample here: add one "
            "so the IPC round-trip keeps proving every field survives"
        )
        defaults = RunConfig()
        for name, sample in self.SAMPLES.items():
            if name in ("model", "engine"):
                continue  # overridden in _config for validity
            normalized = getattr(
                RunConfig(**{name: sample} if name != "search_opts"
                          else {"search_opts": sample}),
                name,
            )
            assert normalized != getattr(defaults, name), (
                f"sample for {name!r} equals the default: the round trip "
                "could not detect this field being dropped"
            )

    def test_config_round_trips(self):
        from repro.litmus.serialize import config_from_dict, config_to_dict

        config = self._config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_config_payload_is_json_native(self):
        from repro.litmus.serialize import config_from_dict, config_to_dict

        config = self._config()
        rebuilt = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(rebuilt) == config

    def test_every_field_survives_individually(self):
        from dataclasses import fields

        from repro.litmus.config import RunConfig
        from repro.litmus.serialize import config_from_dict, config_to_dict

        config = self._config()
        rebuilt = config_from_dict(config_to_dict(config))
        for f in fields(RunConfig):
            assert getattr(rebuilt, f.name) == getattr(config, f.name), (
                f"RunConfig.{f.name} did not survive the IPC payload"
            )


class TestResultRoundTrip:
    def test_enumerative_result(self):
        result = run_litmus(SUITE[0])
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt == result

    def test_symbolic_result_keeps_solver_stats(self):
        result = run_litmus(SUITE[0], engine="symbolic")
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt == result
        assert rebuilt.solver_stats == result.solver_stats

    def test_without_test_payload(self):
        result = run_litmus(SUITE[0])
        payload = result_to_dict(result, include_test=False)
        assert "test" not in payload
        rebuilt = result_from_dict(payload, test=result.test)
        assert rebuilt == result

    def test_timeout_result_keeps_status_and_detail(self):
        result = replace(
            run_litmus(SUITE[0]), status="timeout", detail="exceeded 1.0s"
        )
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.status == "timeout"
        assert rebuilt.detail == "exceeded 1.0s"

    def test_outcomes_survive_json(self):
        result = run_litmus(SUITE[0])
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(payload).outcomes == result.outcomes


class TestCanonicalJson:
    def test_insertion_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_result_outcomes_canonically_ordered(self):
        """Two runs of the same test serialize identically even though
        outcomes live in an (unordered) frozenset."""
        first = result_to_dict(run_litmus(SUITE[1]))
        second = result_to_dict(run_litmus(SUITE[1]))
        first.pop("elapsed"), second.pop("elapsed")
        assert canonical_json(first) == canonical_json(second)


class TestVerdictDigest:
    """A digest names the verdict's semantics, never how it was found."""

    @staticmethod
    def _certified(result, **changes):
        from repro.cert.verdict import Certificate

        fields = dict(polarity="unsat", status="verified", digest="ab12",
                      steps=40, clauses=90, check_time=0.25, detail=None)
        fields.update(changes)
        return replace(result, certificate=Certificate(**fields))

    @pytest.fixture(scope="class")
    def base(self):
        return self._certified(run_litmus(SUITE[0]))

    @pytest.mark.parametrize("changes", [
        {"enum_stats": EnumStats(rf_assignments=999, memo_hits=7)},
        {"enum_stats": None},
        {"solver_stats": SolverStats(conflicts=12, solve_time=3.5)},
        {"elapsed": 123.0},
        {"detail": "a different note"},
    ], ids=["enum_stats", "no_enum_stats", "solver_stats", "elapsed",
            "detail"])
    def test_telemetry_is_invisible(self, base, changes):
        assert verdict_digest(replace(base, **changes)) == \
            verdict_digest(base)

    @pytest.mark.parametrize("changes", [
        {"check_time": 9.0}, {"steps": 1}, {"clauses": 2},
        {"detail": "checker note"},
    ], ids=["check_time", "steps", "clauses", "detail"])
    def test_certificate_telemetry_is_invisible(self, base, changes):
        assert verdict_digest(self._certified(base, **changes)) == \
            verdict_digest(base)

    def test_semantic_fields_are_visible(self, base):
        digest = verdict_digest(base)
        dropped = frozenset(sorted(base.outcomes, key=repr)[1:])
        for changed in (
            replace(base, outcomes=dropped),
            replace(base, observed=not base.observed),
            replace(base, status="timeout"),
            replace(base, model="sc"),
            self._certified(base, status="failed"),
            self._certified(base, polarity="sat"),
            self._certified(base, digest="cd34"),
        ):
            assert verdict_digest(changed) != digest

    @pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
    def test_enumerative_and_rf_check_digests_agree(self, test):
        """The two PTX engines count different search work but reach
        the same verdict, so their digests match."""
        assert verdict_digest(run_litmus(test, engine="rf-check")) == \
            verdict_digest(run_litmus(test))


class TestKodkodInstance:
    def test_instance_round_trips(self):
        from repro.kodkod.finder import Instance
        from repro.relation import Relation

        instance = Instance(
            relations={
                "rf": Relation([("w0", "r1"), ("w2", "r3")]),
                "addr": Relation([("e0",)]),
            }
        )
        payload = json.loads(json.dumps(instance.to_dict()))
        rebuilt = Instance.from_dict(payload)
        assert rebuilt.relations == instance.relations


class TestLitmusText:
    """test_to_litmus: the parseable text form fuzz artifacts use."""

    def _reparse(self, test):
        from repro.litmus.parser import parse_litmus
        from repro.litmus.serialize import test_to_litmus

        return parse_litmus(test_to_litmus(test))

    @pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
    def test_suite_semantics_round_trip(self, test):
        """Threads, condition and expectation survive the text form.

        (The program's SystemShape may legitimately differ: the parser
        infers the smallest covering shape, while some hand-written
        suite programs carry the default shape.)"""
        parsed = self._reparse(test)
        assert parsed.name == test.name
        assert parsed.program.threads == test.program.threads
        assert parsed.condition == test.condition
        assert parsed.expect == test.expect

    def test_generated_tests_round_trip_exactly(self):
        """Generator-built tests use the covering shape, so the whole
        program compares equal — the artifact replay guarantee."""
        from repro.litmus import generate

        for cycle in ("PodWR Fre PodWR Fre", "Rfe PodRR PodRR Fre"):
            test = generate(cycle).test
            parsed = self._reparse(test)
            assert parsed.program == test.program
            assert parsed.condition == test.condition

    def test_volatile_and_vector_accesses(self):
        from repro.litmus.serialize import instruction_to_text
        from repro.ptx.events import Sem
        from repro.ptx.isa import Ld, St

        assert instruction_to_text(
            Ld(dst="r1", loc="x", volatile=True)
        ) == "ld.volatile r1, [x]"
        assert instruction_to_text(
            Ld(dst=("r1", "r2"), loc="x", sem=Sem.WEAK, vec=2)
        ) == "ld.weak.v2 r1, r2, [x]"
        assert instruction_to_text(
            St(loc="x", src=(1, 2), sem=Sem.WEAK, vec=2)
        ) == "st.weak.v2 [x], 1, 2"

    def test_fence_atom_red_bar(self):
        from repro.core import Scope
        from repro.litmus.serialize import instruction_to_text
        from repro.ptx.events import Sem
        from repro.ptx.isa import Atom, AtomOp, Bar, BarOp, Fence, Red

        assert instruction_to_text(
            Fence(sem=Sem.SC, scope=Scope.GPU)
        ) == "fence.sc.gpu"
        assert instruction_to_text(
            Atom(dst="r1", loc="x", op=AtomOp.ADD, operands=(1,),
                 sem=Sem.ACQ_REL, scope=Scope.CTA)
        ) == "atom.acq_rel.cta.add r1, [x], 1"
        assert instruction_to_text(
            Red(loc="x", op=AtomOp.ADD, operands=(1,),
                sem=Sem.RELAXED, scope=Scope.SYS)
        ) == "red.relaxed.sys.add [x], 1"
        assert instruction_to_text(
            Bar(op=BarOp.SYNC, barrier=0)
        ) == "bar.sync 0"

    def test_true_condition_has_no_text_form(self):
        from repro.litmus.conditions import TrueC
        from repro.litmus.serialize import test_to_litmus

        degenerate = replace(SUITE[0], condition=TrueC())
        with pytest.raises(TypeError):
            test_to_litmus(degenerate)

    def test_text_is_stable(self):
        from repro.litmus.serialize import test_to_litmus

        assert test_to_litmus(SUITE[0]) == test_to_litmus(SUITE[0])
