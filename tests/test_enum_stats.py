"""Enumeration observability: EnumStats counters and their plumbing.

The enumerative PTX engine reports how much work it did (reads-from
assignments visited, candidates pruned before the co loop, candidates
fully checked, the ``set`` kernel's memo behaviour); those counters
ride on :class:`~repro.litmus.runner.LitmusResult`, survive
serialization, and aggregate on
:class:`~repro.litmus.session.SessionStats`.
"""

import pytest

from repro.core import Scope, device_thread, host_thread
from repro.litmus import BY_NAME, RunConfig, Session, run_litmus
from repro.litmus.serialize import result_from_dict, result_to_dict
from repro.ptx import ProgramBuilder, Sem
from repro.search.ptx_search import (
    EnumStats,
    allowed_outcomes,
    register_sort_key,
)


def _mp(t0, t1):
    return (
        ProgramBuilder("MP")
        .thread(t0)
        .st("x", 1)
        .st("y", 1, sem=Sem.RELEASE, scope=Scope.GPU)
        .thread(t1)
        .ld("r1", "y", sem=Sem.ACQUIRE, scope=Scope.GPU)
        .ld("r2", "x")
        .build()
    )


class TestEnumStats:
    def test_counters_populated_by_search(self, t0, t1):
        stats = EnumStats()
        allowed_outcomes(_mp(t0, t1), kernel="set", stats=stats)
        assert stats.rf_assignments > 0
        assert stats.candidates_checked > 0
        assert stats.memo_misses > 0
        # the memo is the point: co-independent values must be reused
        assert stats.memo_hits > 0

    def test_compiled_kernel_keeps_no_memo_counters(self, t0, t1):
        """Memo counters are interpreter telemetry; the compiled kernel
        still reports every search counter."""
        stats = EnumStats()
        allowed_outcomes(_mp(t0, t1), kernel="compiled", stats=stats)
        assert stats.rf_assignments > 0
        assert stats.candidates_checked > 0
        assert stats.memo_hits == stats.memo_misses == 0

    def test_addition_is_fieldwise(self):
        a = EnumStats(rf_assignments=2, memo_hits=5)
        b = EnumStats(rf_assignments=1, candidates_checked=4)
        total = a + b
        assert total.rf_assignments == 3
        assert total.memo_hits == 5
        assert total.candidates_checked == 4

    def test_dict_round_trip(self):
        stats = EnumStats(rf_assignments=7, rf_pruned=2, memo_misses=11)
        assert EnumStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_unknown_keys(self):
        stats = EnumStats.from_dict({"rf_assignments": 3, "future_field": 9})
        assert stats == EnumStats(rf_assignments=3)

    def test_format_mentions_every_counter(self):
        text = EnumStats(rf_assignments=1).format()
        for label in ("rf=", "rf-pruned=", "pre-co-pruned=", "checked=",
                      "memo-hits=", "memo-misses="):
            assert label in text

    def test_format_saturation_counters_are_conditional(self):
        """The rf-check counters only appear when the engine ran: the
        enumerative engine's stats line is unchanged by their existence."""
        plain = EnumStats(rf_assignments=1).format()
        assert "sat-steps=" not in plain
        assert "fallbacks=" not in plain
        saturated = EnumStats(saturation_steps=3, fallbacks=1).format()
        assert "sat-steps=3" in saturated
        assert "fallbacks=1" in saturated

    def test_rf_prune_counter(self):
        """CoRW reads from a po-later overlapping write in some rf
        assignment — the per-location coherence pre-check cuts it before
        any valuation or co enumeration."""
        stats = EnumStats()
        allowed_outcomes(BY_NAME["CoRW"].program, stats=stats)
        assert stats.rf_pruned > 0

    def test_pre_co_prune_counter(self):
        """LB+deps has (rf, sc) prefixes whose co-independent axioms
        already fail: the whole co loop is skipped for them."""
        stats = EnumStats()
        allowed_outcomes(BY_NAME["LB+deps"].program, stats=stats)
        assert stats.pre_co_pruned > 0


class TestResultPlumbing:
    def test_enumerative_ptx_result_carries_stats(self):
        result = run_litmus(BY_NAME["CoRR"])
        assert result.enum_stats is not None
        assert result.enum_stats.rf_assignments > 0

    def test_symbolic_result_carries_none(self):
        result = run_litmus(BY_NAME["CoRR"], engine="symbolic")
        assert result.enum_stats is None

    def test_non_ptx_result_carries_none(self):
        result = run_litmus(BY_NAME["CoRR"], model="sc-op")
        assert result.enum_stats is None

    @pytest.mark.parametrize("model", ["sc", "tso"])
    def test_cpu_models_carry_stats(self, model):
        """sc and tso run on the zoo engine, which counts its search."""
        result = run_litmus(BY_NAME["CoRR"], model=model)
        assert result.enum_stats is not None
        assert result.enum_stats.rf_assignments > 0

    def test_serialization_round_trip(self):
        result = run_litmus(BY_NAME["CoRR"])
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.enum_stats == result.enum_stats
        assert rebuilt == result

    def test_session_aggregates_enum_counters(self):
        with Session(RunConfig(jobs=1, use_cache=False)) as session:
            r1 = session.run(BY_NAME["CoRR"])
            r2 = session.run(BY_NAME["CoWW"])
            expected = r1.enum_stats + r2.enum_stats
            assert session.stats.enum == expected
            assert "enum:" in session.stats.format()


class TestRegisterSortKey:
    def test_natural_thread_then_name_order(self):
        d0 = device_thread(0, 0, 0)
        d1 = device_thread(0, 0, 1)
        host = host_thread(0)
        items = [
            ((host, "r1"), 0),
            ((d1, "r0"), 0),
            ((d0, "r2"), 0),
            ((d0, "r1"), 0),
        ]
        ordered = sorted(items, key=register_sort_key)
        assert [key for key, _ in ordered] == [
            (d0, "r1"), (d0, "r2"), (d1, "r0"), (host, "r1"),
        ]

    def test_mixed_host_device_does_not_raise(self):
        # host threads have gpu=cta=None: the raw dataclass order would
        # raise comparing None with int
        items = [((host_thread(1), "r"), 0), ((device_thread(1, 2, 3), "r"), 0)]
        assert sorted(items, key=register_sort_key)
