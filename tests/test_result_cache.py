"""Tests for the content-addressed on-disk result cache."""

import json

import pytest

import repro.litmus.cache as cache_mod
from repro.litmus import BY_NAME, ResultCache, run_litmus
from repro.litmus.cache import default_cache_dir
from repro.registry import DEFAULT_KERNEL


def cache_key(test, model, engine, opts, **kwargs):
    """The cache key at the default kernel unless a test names one."""
    kwargs.setdefault("kernel", DEFAULT_KERNEL)
    return cache_mod.cache_key(test, model, engine, opts, **kwargs)


class TestCacheKey:
    def test_stable_across_calls(self):
        test = BY_NAME["CoRR"]
        assert cache_key(test, "ptx", "enumerative", {}) == \
            cache_key(test, "ptx", "enumerative", {})

    def test_discriminates_model_engine_opts(self):
        test = BY_NAME["CoRR"]
        base = cache_key(test, "ptx", "enumerative", {})
        assert cache_key(test, "tso", "enumerative", {}) != base
        assert cache_key(test, "ptx", "symbolic", {}) != base
        assert cache_key(test, "ptx", "enumerative", {"skip_axioms": ()}) != base

    def test_discriminates_tests(self):
        assert cache_key(BY_NAME["CoRR"], "ptx", "enumerative", {}) != \
            cache_key(BY_NAME["CoWW"], "ptx", "enumerative", {})

    def test_opts_order_irrelevant(self):
        test = BY_NAME["CoRR"]
        assert cache_key(test, "ptx", "enumerative", {"a": 1, "b": (2,)}) == \
            cache_key(test, "ptx", "enumerative", {"b": (2,), "a": 1})

    def test_salt_change_invalidates(self, monkeypatch):
        test = BY_NAME["CoRR"]
        before = cache_key(test, "ptx", "enumerative", {})
        monkeypatch.setattr(cache_mod, "code_salt", lambda: "other-version")
        after = cache_key(test, "ptx", "enumerative", {})
        assert before != after


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def test_miss_on_empty(self, cache):
        test = BY_NAME["CoRR"]
        key = cache_key(test, "ptx", "enumerative", {})
        assert cache.get(key, test) is None
        assert cache.stats.misses == 1

    def test_put_get_round_trip(self, cache):
        test = BY_NAME["CoRR"]
        result = run_litmus(test)
        key = cache_key(test, "ptx", "enumerative", {})
        cache.put(key, result)
        assert len(cache) == 1
        cached = cache.get(key, test)
        assert cached == result
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_two_level_fanout_layout(self, cache):
        test = BY_NAME["CoRR"]
        key = cache_key(test, "ptx", "enumerative", {})
        cache.put(key, run_litmus(test))
        expected = cache.directory / key[:2] / f"{key}.json"
        assert expected.is_file()

    def test_corrupt_entry_is_a_miss(self, cache):
        test = BY_NAME["CoRR"]
        key = cache_key(test, "ptx", "enumerative", {})
        cache.put(key, run_litmus(test))
        path = cache.directory / key[:2] / f"{key}.json"
        path.write_text("{ not json")
        assert cache.get(key, test) is None

    def test_truncated_entry_is_a_miss(self, cache):
        test = BY_NAME["CoRR"]
        key = cache_key(test, "ptx", "enumerative", {})
        cache.put(key, run_litmus(test))
        path = cache.directory / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        del payload["outcomes"]
        path.write_text(json.dumps(payload))
        assert cache.get(key, test) is None

    def test_no_stray_temp_files_after_put(self, cache):
        test = BY_NAME["CoRR"]
        key = cache_key(test, "ptx", "enumerative", {})
        cache.put(key, run_litmus(test))
        leftovers = list(cache.directory.rglob(".tmp-*"))
        assert leftovers == []


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PTXMM_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("PTXMM_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "ptxmm"


class TestSchemaMigration:
    """Entries written under an older CACHE_SCHEMA_VERSION must be plain
    misses after a bump — never parse errors, never stale hits."""

    def test_pre_bump_entries_are_misses(self, tmp_path, monkeypatch):
        test = BY_NAME["CoRR"]
        cache = ResultCache(tmp_path / "cache")
        result = run_litmus(test)

        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 1)
        old_key = cache_key(test, "ptx", "enumerative", {})
        cache.put(old_key, result)
        assert cache.get(old_key, test) == result

        monkeypatch.undo()
        new_key = cache_key(test, "ptx", "enumerative", {})
        assert new_key != old_key
        assert cache.get(new_key, test) is None  # miss, not an error
        assert cache.stats.misses == 1

    def test_current_version_is_ten(self):
        # v10: the symbolic engines' shared translation asserts the
        # condition as a unit clause, which changes certificate digests,
        # and with them certified verdict digests (single source:
        # repro.schema)
        from repro import schema

        assert cache_mod.CACHE_SCHEMA_VERSION == 10
        assert schema.CACHE_SCHEMA_VERSION == cache_mod.CACHE_SCHEMA_VERSION

    def test_certify_flag_salts_key_under_any_version(self, monkeypatch):
        test = BY_NAME["CoRR"]
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 99)
        assert cache_key(test, "ptx", "enumerative", {}) != \
            cache_key(test, "ptx", "enumerative", {}, certify=True)

    def test_kernel_salts_key_under_any_version(self, monkeypatch):
        test = BY_NAME["CoRR"]
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 99)
        assert cache_key(test, "ptx", "enumerative", {}, kernel="set") != \
            cache_key(test, "ptx", "enumerative", {}, kernel="compiled")
