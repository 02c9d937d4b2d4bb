"""Tests for the parallel execution session (pooling, cache, timeouts)."""

import logging
import multiprocessing
import os

import pytest

import repro.litmus.cache as cache_mod
import repro.litmus.session as session_mod
from repro.litmus import (
    BY_NAME,
    Expect,
    RunConfig,
    SUITE,
    Session,
    run_suite,
)

PAPER_SUBSET = SUITE[:12]


def _strip_timing(results):
    """Results minus the (nondeterministic) elapsed field."""
    from dataclasses import replace

    return [replace(r, elapsed=None) for r in results]


class TestDeterminism:
    def test_parallel_matches_sequential_on_paper_suite(self):
        sequential = Session(RunConfig(jobs=1)).run_suite(SUITE)
        with Session(RunConfig(jobs=2)) as session:
            parallel = session.run_suite(SUITE)
        assert _strip_timing(parallel) == _strip_timing(sequential)

    def test_results_in_input_order(self):
        tests = [BY_NAME["CoWW"], BY_NAME["CoRR"], BY_NAME["MP+weak"]]
        with Session(RunConfig(jobs=2)) as session:
            results = session.run_suite(tests)
        assert [r.test.name for r in results] == ["CoWW", "CoRR", "MP+weak"]

    def test_jobs_zero_means_one_per_cpu(self):
        with Session(RunConfig(jobs=0)) as session:
            assert session.jobs == (os.cpu_count() or 1)

    def test_run_suite_facade_accepts_jobs(self):
        results = run_suite(PAPER_SUBSET[:3], jobs=2)
        assert [r.verdict for r in results] == [
            r.verdict for r in run_suite(PAPER_SUBSET[:3])
        ]


class TestLifecycle:
    def test_close_waits_for_the_workers(self):
        """Leaving the block joins the pool's workers, so none is still
        running (or being written to) while the interpreter exits."""
        before = set(multiprocessing.active_children())
        with Session(RunConfig(jobs=2)) as session:
            session.run_suite(PAPER_SUBSET[:4])
            assert set(multiprocessing.active_children()) - before
        assert set(multiprocessing.active_children()) - before == set()


class TestCacheIntegration:
    def test_second_run_is_served_from_cache_bit_identical(self, tmp_path):
        config = RunConfig(use_cache=True, cache_dir=str(tmp_path))
        with Session(config) as session:
            cold = session.run_suite(PAPER_SUBSET)
            assert session.stats.cache_hits == 0
            assert session.stats.cache_misses == len(PAPER_SUBSET)
        with Session(config) as session:
            warm = session.run_suite(PAPER_SUBSET)
            assert session.stats.cache_hits == len(PAPER_SUBSET)
            assert session.stats.cache_misses == 0
        # bit-identical: the cached result includes the original timing
        assert list(warm) == list(cold)

    def test_parallel_run_populates_cache(self, tmp_path):
        config = RunConfig(jobs=2, use_cache=True, cache_dir=str(tmp_path))
        with Session(config) as session:
            session.run_suite(PAPER_SUBSET[:4])
        assert len(Session(config).cache) == 4

    def test_salt_change_invalidates(self, tmp_path, monkeypatch):
        config = RunConfig(use_cache=True, cache_dir=str(tmp_path))
        with Session(config) as session:
            session.run_suite(PAPER_SUBSET[:3])
        monkeypatch.setattr(cache_mod, "code_salt", lambda: "vNEXT")
        with Session(config) as session:
            session.run_suite(PAPER_SUBSET[:3])
            assert session.stats.cache_hits == 0
            assert session.stats.cache_misses == 3

    def test_no_cache_config_touches_no_disk(self, tmp_path):
        config = RunConfig(use_cache=False, cache_dir=str(tmp_path))
        with Session(config) as session:
            assert session.cache is None
            session.run_suite(PAPER_SUBSET[:2])
        assert list(tmp_path.iterdir()) == []

    def test_timeout_results_not_cached(self, tmp_path):
        config = RunConfig(
            timeout=1e-6, use_cache=True, cache_dir=str(tmp_path)
        )
        with Session(config) as session:
            result = session.run(BY_NAME["MP+weak"])
        assert result.status == "timeout"
        assert len(Session(config).cache) == 0


class TestTimeouts:
    def test_sequential_timeout_yields_verdict_not_exception(self):
        with Session(RunConfig(timeout=1e-6)) as session:
            result = session.run(BY_NAME["MP+weak"])
        assert result.status == "timeout"
        assert result.verdict is Expect.TIMEOUT
        assert result.matches_expectation is None
        assert session.stats.timeouts == 1

    def test_parallel_timeout_yields_verdict_not_exception(self):
        with Session(RunConfig(jobs=2, timeout=1e-6)) as session:
            results = session.run_suite([BY_NAME["MP+weak"], BY_NAME["CoRR"]])
        assert all(r.status == "timeout" for r in results)

    def test_generous_timeout_does_not_interfere(self):
        with Session(RunConfig(timeout=600.0)) as session:
            result = session.run(BY_NAME["CoRR"])
        assert result.status == "ok"
        assert result.verdict is Expect.FORBIDDEN


class TestWorkerConfigFidelity:
    """The worker-side task payload carries the whole RunConfig: any
    field a future change adds must reach ``decide_filtered`` in the
    worker untouched (it used to be rebuilt from a four-field subset)."""

    def _full_config(self):
        return RunConfig(
            model="ptx",
            engine="symbolic",
            search_opts={"skip_axioms": ("SC-per-Location",)},
            timeout=12.5,
            jobs=3,
            use_cache=True,
            cache_dir="/tmp/ptxmm-worker-fidelity",
            max_attempts=7,
            certify=False,
        )

    def test_execute_task_sees_every_config_field(self, monkeypatch):
        from dataclasses import fields

        from repro.litmus.serialize import config_to_dict, test_to_dict

        config = self._full_config()
        seen = {}
        real = session_mod.decide_filtered

        def capturing(test, cfg, opts):
            seen["config"] = cfg
            return real(test, cfg.evolve(engine="enumerative"), opts)

        monkeypatch.setattr(session_mod, "decide_filtered", capturing)
        test = BY_NAME["CoRR"]
        payload = {
            "test": test_to_dict(test),
            "config": config_to_dict(config),
            "opts": {},
        }
        session_mod._execute_task(payload)
        rebuilt = seen["config"]
        for f in fields(RunConfig):
            assert getattr(rebuilt, f.name) == getattr(config, f.name), (
                f"RunConfig.{f.name} was dropped on the way to the worker"
            )

    def test_parallel_run_uses_the_configured_engine(self, tmp_path):
        """End to end across real worker processes: a non-default engine
        must survive IPC — rf-check and enumerative agree on the suite,
        so equality of full outcome sets here is engine-independent
        evidence only; the real assertion is that no worker crashed and
        verdicts match the sequential run with the same config."""
        config = RunConfig(engine="rf-check", jobs=2, timeout=60.0)
        with Session(config) as session:
            parallel = session.run_suite(PAPER_SUBSET)
        with Session(config.evolve(jobs=1)) as session:
            sequential = session.run_suite(PAPER_SUBSET)
        assert all(r.status == "ok" for r in parallel)
        assert _strip_timing(parallel) == _strip_timing(sequential)


def _killer_task(payload):
    """Fork-inherited replacement worker: dies hard on the victim test."""
    if payload["test"]["name"] == "CoRR":
        os._exit(17)
    return session_mod._real_execute_task(payload)


class TestWorkerDeath:
    def test_killer_isolated_and_innocents_complete(self, monkeypatch):
        monkeypatch.setattr(
            session_mod, "_real_execute_task", session_mod._execute_task,
            raising=False,
        )
        monkeypatch.setattr(session_mod, "_execute_task", _killer_task)
        tests = [BY_NAME["CoWW"], BY_NAME["CoRR"], BY_NAME["MP+weak"]]
        with Session(RunConfig(jobs=2, max_attempts=2)) as session:
            results = session.run_suite(tests)
        by_name = {r.test.name: r for r in results}
        assert by_name["CoRR"].status == "error"
        assert by_name["CoRR"].verdict is Expect.ERROR
        assert "worker died" in by_name["CoRR"].detail
        assert by_name["CoWW"].status == "ok"
        assert by_name["MP+weak"].status == "ok"
        assert session.stats.worker_retries >= 1
        assert session.stats.errors == 1

    def test_pool_usable_after_breakage(self, monkeypatch):
        monkeypatch.setattr(
            session_mod, "_real_execute_task", session_mod._execute_task,
            raising=False,
        )
        monkeypatch.setattr(session_mod, "_execute_task", _killer_task)
        with Session(RunConfig(jobs=2, max_attempts=2)) as session:
            session.run_suite([BY_NAME["CoRR"]])
            healthy = session.run_suite([BY_NAME["CoWW"]])
        assert healthy[0].status == "ok"


class TestOptionHandling:
    def test_unknown_option_raises_in_parent(self):
        config = RunConfig(jobs=2, search_opts={"frobnicate": True})
        with Session(config) as session:
            with pytest.raises(ValueError, match="frobnicate"):
                session.run(BY_NAME["CoRR"])

    def test_dropped_ptx_only_opts_warn_once_per_session(self, caplog):
        config = RunConfig(
            model="tso", search_opts={"skip_axioms": ("No-Thin-Air",)}
        )
        with Session(config) as session:
            with caplog.at_level(logging.WARNING, logger="repro.litmus"):
                session.run_suite([BY_NAME["CoRR"], BY_NAME["CoWW"]])
        dropped = [r for r in caplog.records if "skip_axioms" in r.message]
        assert len(dropped) == 1
        assert "tso" in dropped[0].message


class TestSolverStatsAggregation:
    def test_symbolic_results_summed(self):
        config = RunConfig(engine="symbolic")
        tests = [BY_NAME["MP+rel_acq.gpu"], BY_NAME["MP+weak"]]
        with Session(config) as session:
            results = session.run_suite(tests)
        expected = sum(r.solver_stats.propagations for r in results)
        assert session.stats.solver.propagations == expected
        assert expected > 0
