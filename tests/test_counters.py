"""The ten counters records share one base (:mod:`repro.core.counters`).

Each record declares only its fields; serialization, merging and copying
come from :class:`~repro.core.counters.Counters`, read field by field.
These tests check the base on every record, and that ``/v1/stats``
reports every field of the records it serves.
"""

import asyncio
import dataclasses
import importlib

import pytest

from repro.core.counters import Counters

#: (module, class) of every counters record
RECORDS = [
    ("repro.sat.records", "SolverStats"),
    ("repro.search.records", "EnumStats"),
    ("repro.litmus.session", "SessionStats"),
    ("repro.litmus.cache", "CacheStats"),
    ("repro.serve.store", "StoreStats"),
    ("repro.serve.coalesce", "CoalesceStats"),
    ("repro.serve.service", "ServiceStats"),
    ("repro.fuzz.harness", "FuzzStats"),
    ("repro.lang.compile", "CompileStats"),
    ("repro.mapping.checker", "CheckStats"),
]


@pytest.fixture(params=RECORDS, ids=[name for _, name in RECORDS])
def cls(request):
    module, name = request.param
    return getattr(importlib.import_module(module), name)


def _filled(cls, seed=1):
    """An instance with every field away from its default."""
    values = {}
    for index, f in enumerate(dataclasses.fields(cls), start=seed):
        if f.default_factory is dict:
            values[f.name] = {"b": index, "a": 2 * index}
        elif f.default_factory is not dataclasses.MISSING:
            values[f.name] = _filled(f.default_factory, seed + index)
        elif isinstance(f.default, bool):
            values[f.name] = True
        elif isinstance(f.default, float):
            values[f.name] = index + 0.5
        else:
            values[f.name] = index
    return cls(**values)


class TestEveryRecord:
    def test_is_a_counters_record_without_hand_written_methods(self, cls):
        assert issubclass(cls, Counters)
        generic = {"as_dict", "from_dict", "copy", "__add__", "__iadd__",
                   "__sub__"}
        assert generic.isdisjoint(vars(cls))

    def test_round_trip(self, cls):
        record = _filled(cls)
        assert cls.from_dict(record.as_dict()) == record
        assert cls.from_dict({}) == cls()
        assert cls.from_dict({"no_such_counter": 1}) == cls()

    def test_as_dict_keys_are_the_field_names(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(_filled(cls).as_dict()) == names

    def test_add_and_in_place_add_merge_every_field(self, cls):
        left, right = _filled(cls), _filled(cls, seed=5)
        total = left + right
        assert left == _filled(cls) and right == _filled(cls, seed=5)
        sink = _filled(cls)
        alias = sink
        sink += right
        assert alias is sink and sink == total  # a passed-in sink sees it
        for f in dataclasses.fields(cls):
            mine, theirs = getattr(left, f.name), getattr(right, f.name)
            merged = getattr(total, f.name)
            if isinstance(mine, dict):
                assert merged == {
                    key: mine.get(key, 0) + theirs.get(key, 0)
                    for key in {**mine, **theirs}
                }
            elif isinstance(mine, Counters):
                assert merged == mine + theirs
            elif isinstance(mine, bool):
                assert merged is (mine or theirs)
            else:
                assert merged == mine + theirs

    def test_sub_and_copy(self, cls):
        left, right = _filled(cls), _filled(cls, seed=5)
        assert (left + right) - right == left
        snapshot = left.copy()
        assert snapshot == left
        left += right
        assert snapshot == _filled(cls)  # dict and nested fields copied


def test_dict_fields_serialize_sorted():
    from repro.search.records import EnumStats

    stats = EnumStats(axiom_failed={"b": 1, "a": 2})
    assert list(stats.as_dict()["axiom_failed"]) == ["a", "b"]


def test_from_dict_coerces_by_field_type():
    from repro.sat.records import SolverStats

    stats = SolverStats.from_dict({"conflicts": "3", "solve_time": 1})
    assert stats.conflicts == 3 and isinstance(stats.solve_time, float)


def test_default_format():
    from repro.litmus.cache import CacheStats

    assert CacheStats(1, 2, 3).format() == "hits=1 misses=2 stores=3"


def test_v1_stats_reports_every_field(tmp_path):
    from repro.litmus.cache import CacheStats
    from repro.litmus.session import SessionStats
    from repro.serve.coalesce import CoalesceStats
    from repro.serve.service import ServeConfig, ServiceStats, VerdictService
    from repro.serve.store import StoreStats

    config = ServeConfig(cache_dir=str(tmp_path))
    with VerdictService(config) as service:
        status, payload = asyncio.run(service.handle("GET", "/v1/stats", None))
    assert status == 200
    for section, cls in (
        (payload["session"], SessionStats),
        (payload["store"], StoreStats),
        (payload["store"]["disk"], CacheStats),
        (payload["service"], ServiceStats),
        (payload["coalesce"], CoalesceStats),
    ):
        fields = [f.name for f in dataclasses.fields(cls)]
        assert set(fields) <= set(section), cls.__name__
    assert list(payload["session"]) == [
        f.name for f in dataclasses.fields(SessionStats)
    ]
