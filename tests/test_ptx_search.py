"""Tests for the PTX candidate-execution enumerator."""

import pytest

from repro.core import Scope, device_thread
from repro.litmus import BY_NAME, RunConfig, run_litmus
from repro.ptx import ProgramBuilder, Sem, spec
from repro.search import allowed_outcomes, candidate_executions

T0 = device_thread(0, 0, 0)
T1 = device_thread(0, 1, 0)


class TestEnumeration:
    def test_single_store_single_outcome(self):
        prog = ProgramBuilder("p").thread(T0).st("x", 1).build()
        outcomes = allowed_outcomes(prog)
        assert len(outcomes) == 1
        outcome = next(iter(outcomes))
        assert outcome.memory_values("x") == {1}

    def test_single_load_reads_init(self):
        prog = ProgramBuilder("p").thread(T0).ld("r1", "x").build()
        outcomes = allowed_outcomes(prog)
        assert len(outcomes) == 1
        assert next(iter(outcomes)).register(T0, "r1") == 0

    def test_load_sees_either_store_or_init(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1)
            .thread(T1).ld("r1", "x")
            .build()
        )
        values = {o.register(T1, "r1") for o in allowed_outcomes(prog)}
        assert values == {0, 1}

    def test_same_thread_forwarding_is_mandatory(self):
        prog = ProgramBuilder("p").thread(T0).st("x", 1).ld("r1", "x").build()
        values = {o.register(T0, "r1") for o in allowed_outcomes(prog)}
        assert values == {1}

    def test_reports_attached_to_candidates(self):
        prog = ProgramBuilder("p").thread(T0).st("x", 1).build()
        candidates = list(candidate_executions(prog, include_inconsistent=True))
        assert all(c.report is not None for c in candidates)
        assert any(c.report.consistent for c in candidates)

    def test_inconsistent_candidates_excluded_by_default(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1, sem=Sem.RELAXED, scope=Scope.GPU)
            .thread(T1)
            .ld("r1", "x", sem=Sem.RELAXED, scope=Scope.GPU)
            .ld("r2", "x", sem=Sem.RELAXED, scope=Scope.GPU)
            .build()
        )
        all_candidates = list(candidate_executions(prog, include_inconsistent=True))
        consistent = list(candidate_executions(prog))
        assert len(consistent) < len(all_candidates)
        assert all(c.report.consistent for c in consistent)


class TestPartialCoherence:
    def test_racy_writes_left_unordered(self):
        """Two weak racy writes may both be co-maximal (§8.8.6)."""
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1)
            .thread(T1).st("x", 2)
            .build()
        )
        memories = {o.memory_values("x") for o in allowed_outcomes(prog)}
        assert frozenset({1, 2}) in memories  # an execution with both maximal

    def test_morally_strong_writes_totally_ordered(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1, sem=Sem.RELAXED, scope=Scope.GPU)
            .thread(T1).st("x", 2, sem=Sem.RELAXED, scope=Scope.GPU)
            .build()
        )
        for outcome in allowed_outcomes(prog):
            assert len(outcome.memory_values("x")) == 1

    def test_init_always_co_first(self):
        prog = ProgramBuilder("p").thread(T0).st("x", 5).build()
        for candidate in candidate_executions(prog):
            co = candidate.execution.relation("co")
            init = [e for e in candidate.execution.events if e.instr == -1][0]
            store = candidate.execution.events[0]
            assert (init, store) in co


class TestOutcome:
    def test_register_and_memory_accessors(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1).ld("r1", "x")
            .build()
        )
        outcome = next(iter(allowed_outcomes(prog)))
        assert outcome.register(T0, "r1") == 1
        assert outcome.register(T0, "nope") is None
        assert outcome.memory_values("zzz") == frozenset()

    def test_outcome_repr(self):
        prog = ProgramBuilder("p").thread(T0).st("x", 1).build()
        outcome = next(iter(allowed_outcomes(prog)))
        assert "[x]" in repr(outcome)

    def test_outcomes_hashable_and_deduplicated(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1)
            .thread(T1).st("y", 1)
            .build()
        )
        outcomes = allowed_outcomes(prog)
        # different co interleavings across locations give the same outcome
        assert len(outcomes) == 1


class TestLastWriteWins:
    def test_register_takes_last_definition(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1).st("y", 2)
            .thread(T1).ld("r1", "x").ld("r1", "y")
            .build()
        )
        for outcome in allowed_outcomes(prog):
            assert outcome.register(T1, "r1") in (0, 2)


class TestAblationNames:
    """A misspelt ``skip_axioms`` name must fail loudly, not silently run
    the un-ablated experiment."""

    def test_unknown_axiom_rejected_naming_the_valid_ones(self):
        with pytest.raises(ValueError, match="Coherense") as excinfo:
            allowed_outcomes(
                BY_NAME["CoRW"].program, skip_axioms=("Coherense",)
            )
        for name in spec.AXIOMS:
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("model,engine", [
        ("ptx", "enumerative"),
        ("ptx", "rf-check"),
        ("ptx-legacy", "enumerative"),
    ])
    def test_every_ptx_path_checks_the_names(self, model, engine):
        config = RunConfig(
            model=model, engine=engine,
            search_opts={"skip_axioms": ("Coherense",)},
        )
        with pytest.raises(ValueError, match="unknown axiom"):
            run_litmus(BY_NAME["CoRW"], config=config)
