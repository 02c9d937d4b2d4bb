"""The verdict service: store, coalescing, back-pressure, equivalence.

The acceptance gates from the service redesign live here:

* N concurrent identical requests trigger exactly one Session
  computation (counter-asserted);
* the in-memory LRU tier never exceeds its capacity bound;
* a saturated service answers 503 with a Retry-After hint instead of
  queueing unboundedly;
* HTTP verdicts have the same ``verdict_digest`` (the hash of the
  verdict's semantic fields) as direct Session runs, on the full
  standard suite, for both the enumerative and rf-check engines.
"""

import asyncio
import hashlib
import json
import socket
import threading

import pytest

from repro.litmus.config import RunConfig
from repro.litmus.serialize import result_from_dict, verdict_digest
from repro.litmus.session import Session
from repro.litmus.suite import BY_NAME, SUITE
from repro.serve import (
    ApiError,
    Client,
    Coalescer,
    ServeConfig,
    ServiceError,
    ServiceSaturated,
    VerdictService,
    VerdictStore,
    request_key,
    start_in_thread,
)
from repro.serve.protocol import build_config, parse_test


def _key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# store


class TestVerdictStore:
    def test_capacity_bound_holds_under_churn(self):
        store = VerdictStore(capacity=4, shards=2)
        for index in range(32):
            store.put(_key(f"entry-{index}"), index)
        assert len(store) <= 4
        assert store.stats.evictions == 32 - len(store)
        assert store.stats.stores == 32

    def test_single_entry_capacity(self):
        store = VerdictStore(capacity=1, shards=8)
        for index in range(5):
            store.put(_key(f"e{index}"), index)
        assert len(store) <= 1

    def test_lru_keeps_recently_read_entries(self):
        store = VerdictStore(capacity=2, shards=1)
        hot, warm, cold = _key("hot"), _key("warm"), _key("cold")
        store.put(hot, "hot")
        store.put(warm, "warm")
        assert store.get(hot, None) == "hot"  # refresh: hot is now newest
        store.put(cold, "cold")  # evicts warm, the least recently used
        assert store.get(hot, None) == "hot"
        assert store.get(warm, None) is None
        assert store.get(cold, None) == "cold"

    def test_cheap_entries_evicted_before_expensive_ones(self):
        """Cost-aware eviction: within the scan window the cheapest
        entry goes first, so an old-but-expensive verdict outlives a
        stream of cheap ones (counter-asserted)."""
        from repro.serve.store import _EVICTION_SCAN

        store = VerdictStore(capacity=_EVICTION_SCAN, shards=1)
        shard = store._shards[0]
        expensive = _key("certified")
        shard.put(expensive, "certified", cost=30.0)
        for index in range(_EVICTION_SCAN - 1):
            shard.put(_key(f"cheap-{index}"), index, cost=0.001)
        # the shard is now full; every further cheap insert must evict
        # one of the cheap entries, never the expensive one, even
        # though the expensive entry is the coldest
        evictions = 0
        for index in range(2 * _EVICTION_SCAN):
            evictions += shard.put(
                _key(f"churn-{index}"), index, cost=0.001
            )
        assert evictions == 2 * _EVICTION_SCAN
        assert shard.get(expensive) == "certified"

    def test_expensive_entry_still_evictable_when_window_is_rich(self):
        """Cost weighting must not make entries immortal: once the
        window's other entries are pricier, the formerly expensive
        entry is the minimum and goes."""
        store = VerdictStore(capacity=2, shards=1)
        shard = store._shards[0]
        shard.put(_key("a"), "a", cost=1.0)
        shard.put(_key("b"), "b", cost=2.0)
        assert shard.put(_key("c"), "c", cost=3.0) == 1
        assert shard.get(_key("a")) is None
        assert shard.get(_key("b")) == "b"

    def test_store_weighs_results_by_recorded_elapsed(self):
        """VerdictStore.put extracts the eviction weight from the
        result's ``elapsed`` field."""
        from repro.litmus.runner import LitmusResult

        test = BY_NAME["MP+weak"]
        slow = LitmusResult(
            test=test, model="ptx", observed=True,
            outcomes=frozenset(), elapsed=45.0,
        )
        fast = LitmusResult(
            test=test, model="ptx", observed=True,
            outcomes=frozenset(), elapsed=0.002,
        )
        store = VerdictStore(capacity=2, shards=1)
        store.put(_key("slow"), slow)
        store.put(_key("fast"), fast)
        store.put(_key("next"), fast)  # over capacity: evict cheapest
        assert store.stats.evictions == 1
        assert store.get(_key("slow"), test) is slow
        assert store.get(_key("fast"), test) is None

    def test_counters_track_tiers(self):
        store = VerdictStore(capacity=8, shards=2)
        key = _key("counted")
        assert store.get(key, None) is None
        store.put(key, "value")
        assert store.get(key, None) == "value"
        assert store.stats.misses == 1
        assert store.stats.mem_hits == 1
        assert store.stats.disk_hits == 0

    def test_disk_tier_promotion(self, tmp_path):
        """A disk hit is promoted into memory; the next read is a mem hit."""
        from repro.litmus.cache import cache_key, ResultCache
        from repro.litmus.runner import run_litmus

        test = BY_NAME["MP+weak"]
        config = RunConfig(model="ptx")
        result = run_litmus(test, config)
        key = cache_key(
            test, "ptx", "enumerative", {}, certify=False,
            kernel=config.kernel,
        )
        disk = ResultCache(tmp_path)
        disk.put(key, result)

        store = VerdictStore(capacity=8, disk=disk)
        first = store.get(key, test)
        assert first is not None
        assert store.stats.disk_hits == 1
        second = store.get(key, test)
        assert second is not None
        assert store.stats.mem_hits == 1
        assert verdict_digest(first) == verdict_digest(result)


# ---------------------------------------------------------------------------
# coalescer


class TestCoalescer:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_identical_keys_share_one_flight(self):
        async def scenario():
            coalescer = Coalescer()
            calls = []
            gate = asyncio.Event()

            async def compute():
                calls.append(1)
                await gate.wait()
                return "answer"

            async def query():
                return await coalescer.run("k", compute)

            tasks = [asyncio.ensure_future(query()) for _ in range(8)]
            await asyncio.sleep(0)  # let every task reach the table
            gate.set()
            results = await asyncio.gather(*tasks)
            return calls, results, coalescer

        calls, results, coalescer = self._run(scenario())
        assert len(calls) == 1
        assert results == ["answer"] * 8
        assert coalescer.stats.leaders == 1
        assert coalescer.stats.followers == 7
        assert coalescer.inflight() == 0

    def test_leader_failure_propagates_then_clears(self):
        async def scenario():
            coalescer = Coalescer()
            gate = asyncio.Event()

            async def boom():
                await gate.wait()
                raise RuntimeError("engine exploded")

            leader = asyncio.ensure_future(coalescer.run("k", boom))
            follower = asyncio.ensure_future(coalescer.run("k", boom))
            await asyncio.sleep(0)
            gate.set()
            outcomes = await asyncio.gather(
                leader, follower, return_exceptions=True
            )
            # the key is free again: a fresh request recomputes
            async def recover():
                return "recovered"

            fresh = await coalescer.run("k", recover)
            return outcomes, fresh

        outcomes, fresh = self._run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert fresh == "recovered"

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            coalescer = Coalescer()
            calls = []

            def compute_for(key):
                async def compute():
                    calls.append(key)
                    return key

                return compute

            out = await asyncio.gather(
                coalescer.run("a", compute_for("a")),
                coalescer.run("b", compute_for("b")),
            )
            return calls, out

        calls, out = self._run(scenario())
        assert sorted(calls) == ["a", "b"]
        assert sorted(out) == ["a", "b"]


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_parse_test_requires_exactly_one_spelling(self):
        with pytest.raises(ApiError) as excinfo:
            parse_test({})
        assert excinfo.value.status == 400
        with pytest.raises(ApiError):
            parse_test({"name": "MP+weak", "litmus": "text"})

    def test_parse_test_unknown_name_is_404(self):
        with pytest.raises(ApiError) as excinfo:
            parse_test({"name": "NoSuchTest"})
        assert excinfo.value.status == 404

    def test_build_config_clamps_timeout(self):
        base = RunConfig(timeout=60.0)
        config = build_config(base, {"timeout": 1000.0}, max_timeout=60.0)
        assert config.timeout == 60.0
        config = build_config(base, {"timeout": 5.0}, max_timeout=60.0)
        assert config.timeout == 5.0

    def test_build_config_unknown_engine_is_400(self):
        with pytest.raises(ApiError) as excinfo:
            build_config(RunConfig(), {"engine": "warp"}, None)
        assert excinfo.value.status == 400
        assert "unknown engine" in excinfo.value.message

    @pytest.mark.parametrize("spelling", ["name", "litmus"])
    def test_non_string_test_spelling_is_400(self, spelling):
        with pytest.raises(ApiError) as excinfo:
            parse_test({spelling: ["CoRR"]})
        assert excinfo.value.status == 400
        assert f"'{spelling}' must be a string" in excinfo.value.message

    def test_request_key_matches_session_cache_key(self):
        """The service and the Session must agree on content addresses,
        or the two-level store and the disk cache would diverge."""
        from repro.litmus.cache import cache_key
        from repro.registry import partition_opts

        test = BY_NAME["MP+weak"]
        config = RunConfig(model="ptx", engine="enumerative")
        merged = dict(test.search_opts)
        merged.update(config.opts)
        kept, _ = partition_opts(config.model, merged)
        expected = cache_key(
            test, "ptx", "enumerative", kept, certify=False,
            kernel=config.kernel,
        )
        assert request_key(test, config) == expected


# ---------------------------------------------------------------------------
# live service (thread-backed, ephemeral ports)


def _start(config: ServeConfig):
    service = VerdictService(config)
    handle = start_in_thread(config, service=service)
    return service, handle


class TestServiceCoalescing:
    def test_eight_identical_requests_one_computation(self):
        """The headline dedup gate: 8 concurrent identical queries reach
        the Session exactly once."""
        config = ServeConfig(
            port=0, use_cache=False, compute_delay=1.0, queue_limit=16
        )
        service, handle = _start(config)
        try:
            barrier = threading.Barrier(8)
            payloads = []
            errors = []

            def hit():
                try:
                    with Client(handle.host, handle.port) as client:
                        barrier.wait(timeout=10)
                        payloads.append(client.run("MP+rel_acq.gpu"))
                except Exception as exc:  # noqa: BLE001 — assert below
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(payloads) == 8
            # exactly one Session computation for eight requests
            assert service.stats.computations == 1
            assert service.session.stats.tasks == 1
            assert service.coalescer.stats.leaders == 1
            assert service.coalescer.stats.followers == 7
            assert len({p["digest"] for p in payloads}) == 1
            sources = sorted(p["source"] for p in payloads)
            assert sources.count("computed") == 1
            assert sources.count("coalesced") == 7
        finally:
            handle.stop()

    def test_sequential_repeat_is_memory_hit(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                first = client.run("MP+weak")
                second = client.run("MP+weak")
            assert first["source"] == "computed"
            assert second["source"] == "memory"
            assert first["digest"] == second["digest"]
            assert service.stats.computations == 1
        finally:
            handle.stop()


class TestServiceBackPressure:
    def test_saturation_answers_503_with_retry_after(self):
        config = ServeConfig(
            port=0,
            use_cache=False,
            compute_delay=1.5,
            queue_limit=1,
            retry_after=0.25,
        )
        service, handle = _start(config)
        try:
            barrier = threading.Barrier(3)
            outcomes = []

            def hit(name):
                try:
                    with Client(
                        handle.host, handle.port, retries=0
                    ) as client:
                        barrier.wait(timeout=10)
                        client.run(name)
                        outcomes.append(("ok", None))
                except ServiceSaturated as exc:
                    outcomes.append(("saturated", exc.retry_after))

            names = ["MP+weak", "MP+rlx", "MP+volatile"]
            threads = [
                threading.Thread(target=hit, args=(name,)) for name in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            kinds = sorted(kind for kind, _ in outcomes)
            assert kinds == ["ok", "saturated", "saturated"]
            hints = [hint for kind, hint in outcomes if kind == "saturated"]
            assert all(hint == 0.25 for hint in hints)
            assert service.stats.saturated == 2
        finally:
            handle.stop()

    def test_client_retries_through_saturation(self):
        config = ServeConfig(
            port=0,
            use_cache=False,
            compute_delay=0.8,
            queue_limit=1,
            retry_after=0.2,
        )
        service, handle = _start(config)
        try:
            release = threading.Barrier(2)

            def occupy():
                with Client(handle.host, handle.port) as client:
                    release.wait(timeout=10)
                    client.run("MP+weak")

            occupier = threading.Thread(target=occupy)
            occupier.start()
            release.wait(timeout=10)
            # the second distinct query first meets a saturated service,
            # then succeeds on a retry once the slot frees up
            with Client(handle.host, handle.port, retries=10) as client:
                payload = client.run("MP+rlx")
            occupier.join(timeout=60)
            assert payload["verdict"] in ("allowed", "forbidden")
            assert service.stats.saturated >= 1
        finally:
            handle.stop()


class TestServiceStoreIntegration:
    def test_lru_bound_respected_by_live_service(self):
        config = ServeConfig(port=0, use_cache=False, capacity=2, shards=1)
        service, handle = _start(config)
        try:
            names = ["MP+weak", "MP+rlx", "MP+volatile"]
            run_config = build_config(
                service.base_config, {}, config.timeout
            )
            keys = {
                name: request_key(BY_NAME[name], run_config)
                for name in names
            }

            def resident():
                return {
                    name for name in names
                    if service.store.get(keys[name], BY_NAME[name])
                    is not None
                }

            with Client(handle.host, handle.port) as client:
                for name in names:
                    client.run(name)
                assert len(service.store) <= 2
                assert service.store.stats.evictions == 1
                assert service.stats.computations == 3
                # eviction is cost-aware: the dropped entry is whichever
                # of the residents was cheapest to compute, not
                # necessarily the oldest.  The evicted one recomputes
                # (memory-only service); a resident repeat is a memory
                # hit
                survivors = resident()
                assert len(survivors) == 2
                evicted = (set(names) - survivors).pop()
                assert client.run(evicted)["source"] == "computed"
                assert service.stats.computations == 4
                hot = (resident() - {evicted}).pop()
                assert client.run(hot)["source"] == "memory"
                assert service.stats.computations == 4
            assert len(service.store) <= 2
        finally:
            handle.stop()

    def test_disk_tier_survives_restart_and_warms(self, tmp_path):
        cold = ServeConfig(
            port=0, use_cache=True, cache_dir=str(tmp_path), jobs=2
        )
        service, handle = _start(cold)
        try:
            with Client(handle.host, handle.port) as client:
                warmed = client.warm()
            assert warmed["warmed"] == len(SUITE)
            assert warmed["computed"] == len(SUITE)
        finally:
            handle.stop()
        # a fresh service over the same directory warms from disk alone
        service2, handle2 = _start(
            ServeConfig(port=0, use_cache=True, cache_dir=str(tmp_path))
        )
        try:
            with Client(handle2.host, handle2.port) as client:
                warmed = client.warm()
                payload = client.run("MP+weak")
            assert warmed["warmed"] == len(SUITE)
            assert warmed["loaded_from_disk"] == len(SUITE)
            assert warmed["computed"] == 0
            assert service2.stats.computations == 0
            assert payload["source"] == "memory"
        finally:
            handle2.stop()


class TestServiceZoo:
    def test_models_endpoint_lists_the_zoo(self):
        from repro.zoo import ZOO, zoo_names

        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                payload = client.models()
            assert payload["count"] == len(ZOO)
            names = [entry["name"] for entry in payload["models"]]
            assert sorted(names) == list(zoo_names())
            by_name = {entry["name"]: entry for entry in payload["models"]}
            assert by_name["ptx"]["co_style"] == "partial-ms"
            assert by_name["ptx"]["sc_fences"] is True
            assert "enumerative" in by_name["sc"]["engines"]
            assert any(
                claim["weaker"] == "tso"
                for claim in by_name["sc"]["claims"]
            )
        finally:
            handle.stop()

    def test_matrix_endpoint_computes_then_serves_from_store(self):
        config = ServeConfig(port=0, use_cache=False, jobs=2)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                first = client.matrix(models=["sc", "tso"], fast=True)
                second = client.matrix(models=["tso", "sc"], fast=True)
            assert first["matrix"]["models"] == ["sc", "tso"]
            cell = next(
                c for c in first["matrix"]["cells"]
                if c["left"] == "sc" and c["right"] == "tso"
            )
            assert cell["relation"] == "stronger"
            assert first["claim_violations"] == []
            assert first["sources"]["computed"] == 2 * len(SUITE)
            # the repeat answers every pair from the two-level store
            assert second["sources"]["computed"] == 0
            assert second["sources"]["memory"] == 2 * len(SUITE)
            assert second["matrix"] == first["matrix"]
        finally:
            handle.stop()

    def test_matrix_unknown_model_is_a_400(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.matrix(models=["sc", "itanium"], fast=True)
            assert excinfo.value.status == 400
            assert "unknown zoo model" in excinfo.value.message
        finally:
            handle.stop()


class TestServiceIntegrity:
    def test_forbidden_with_certify_carries_drat_digest(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                payload = client.run("MP+rel_acq.gpu", certify=True)
            assert payload["verdict"] == "forbidden"
            assert "certificate_digest" in payload
            assert len(payload["certificate_digest"]) == 64
            certificate = payload["result"]["certificate"]
            assert certificate["digest"] == payload["certificate_digest"]
        finally:
            handle.stop()

    def test_stats_endpoint_surfaces_all_counter_groups(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                client.run("MP+weak")
                client.run("MP+weak")
                stats = client.stats()
            from repro.schema import CACHE_SCHEMA_VERSION

            assert stats["schema"] == CACHE_SCHEMA_VERSION
            assert stats["service"]["requests"] >= 3
            assert stats["service"]["computations"] == 1
            assert stats["coalesce"]["leaders"] == 1
            assert stats["store"]["mem_hits"] == 1
            assert stats["store"]["stores"] == 1
            assert stats["session"]["tasks"] == 1
            assert "solver" in stats["session"]
            assert "enum" in stats["session"]
            assert stats["config"]["engine"] == "enumerative"
        finally:
            handle.stop()


class TestWireEdges:
    def _raw(self, handle, data: bytes) -> bytes:
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(data)
            chunks = []
            sock.settimeout(10)
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except socket.timeout:
                pass
        return b"".join(chunks)

    def test_oversized_body_is_413_without_reading_it(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            request = (
                b"POST /v1/run HTTP/1.1\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
            response = self._raw(handle, request)
            assert response.startswith(b"HTTP/1.1 413")
        finally:
            handle.stop()

    def test_malformed_json_is_400(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            body = b"{not json"
            request = (
                b"POST /v1/run HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            response = self._raw(handle, request)
            assert response.startswith(b"HTTP/1.1 400")
        finally:
            handle.stop()

    def test_unknown_endpoint_404_and_wrong_method_405(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/v1/nope", {})
                assert excinfo.value.status == 404
                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", "/v1/run", None)
                assert excinfo.value.status == 405
        finally:
            handle.stop()

    def test_bad_request_names_valid_choices(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.run("MP+weak", engine="warp")
                assert excinfo.value.status == 400
                assert "unknown engine 'warp'" in excinfo.value.message
                with pytest.raises(ServiceError) as excinfo:
                    client.run("MP+weak", model="tso", engine="rf-check")
                assert excinfo.value.status == 400
                assert "only the 'ptx' model" in excinfo.value.message
        finally:
            handle.stop()

    def test_non_string_name_is_400(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.run(["CoRR"])
            assert excinfo.value.status == 400
            assert "'name' must be a string" in excinfo.value.message
        finally:
            handle.stop()

    def test_retired_bit_kernel_is_400(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.run("MP+weak", kernel="bit")
            assert excinfo.value.status == 400
            assert excinfo.value.message == (
                "unknown kernel 'bit'; valid kernels: compiled, set"
            )
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# the end-to-end equivalence gate


@pytest.mark.slow
class TestHttpDirectEquivalence:
    """HTTP verdicts must hash like direct Session verdicts (the digest
    covers the verdict's semantic fields) on the full suite."""

    @pytest.mark.parametrize("engine", ["enumerative", "rf-check"])
    def test_full_suite_digest_equality(self, engine):
        config = ServeConfig(port=0, use_cache=False, engine=engine, jobs=2)
        service, handle = _start(config)
        try:
            with Client(
                handle.host, handle.port, timeout=600.0
            ) as client:
                response = client.suite()
            served = {
                verdict["test"]: verdict for verdict in response["verdicts"]
            }
        finally:
            handle.stop()
        direct_config = RunConfig(model="ptx", engine=engine, jobs=2)
        with Session(direct_config) as session:
            direct = session.run_suite(SUITE)
        assert len(served) == len(SUITE)
        for result in direct:
            payload = served[result.test.name]
            assert payload["digest"] == verdict_digest(result), result.test.name
            assert payload["verdict"] == result.verdict.value

    def test_wire_payload_round_trips_to_the_same_digest(self):
        """The serialized result on the wire reconstructs to an object
        with the served digest — the payload itself is faithful, not
        just the digest field."""
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                payload = client.run("MP+rel_acq.gpu")
        finally:
            handle.stop()
        test = BY_NAME["MP+rel_acq.gpu"]
        obj = dict(payload["result"])
        reconstructed = result_from_dict(obj, test=test)
        assert verdict_digest(reconstructed) == payload["digest"]


class TestServiceFuzz:
    """The /v1/fuzz endpoint: the farm's remote compute tier."""

    def test_fuzz_range_matches_local_generation(self):
        from repro.fuzz.coverage import case_features, result_features
        from repro.fuzz.gen import generate_case
        from repro.litmus.runner import run_litmus

        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                payload = client.fuzz(seed=3, start=0, count=3)
            assert payload["count"] == 3
            for entry in payload["cases"]:
                case = generate_case(3, entry["index"])
                assert entry["name"] == case.name
                assert entry["cycle"] == case.cycle
                local = run_litmus(case.test, engine="enumerative")
                expected = case_features(case.test, case.cycle) | (
                    result_features(local)
                )
                assert entry["features"] == sorted(expected)
                assert entry["verdict"] == local.verdict.value
        finally:
            handle.stop()

    def test_repeat_range_is_served_from_cache(self):
        config = ServeConfig(port=0, use_cache=False)
        service, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                first = client.fuzz(seed=3, count=4)
                second = client.fuzz(seed=3, count=4)
            assert all(
                c["source"] == "computed" for c in first["cases"]
            )
            assert all(c["source"] == "memory" for c in second["cases"])
            assert [c["features"] for c in first["cases"]] == [
                c["features"] for c in second["cases"]
            ]
            # one pooled suite batch for the whole range
            assert service.stats.computations == 1
        finally:
            handle.stop()

    def test_bias_reshapes_server_side_generation(self):
        from repro.fuzz.gen import GenBias, generate_case

        bias = GenBias(edge_weights={"Rfe": 64.0}, fence_rate=0.7)
        config = ServeConfig(port=0, use_cache=False)
        _, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                payload = client.fuzz(seed=3, start=4, count=4, bias=bias)
            for entry in payload["cases"]:
                case = generate_case(3, entry["index"], bias)
                assert entry["name"] == case.name
                assert entry["cycle"] == case.cycle
        finally:
            handle.stop()

    def test_invalid_ranges_rejected(self):
        config = ServeConfig(port=0, use_cache=False)
        _, handle = _start(config)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServiceError, match="count"):
                    client.fuzz(seed=1, count=0)
                with pytest.raises(ServiceError, match="count"):
                    client.fuzz(seed=1, count=513)
                with pytest.raises(ServiceError, match="integers"):
                    client.fuzz(seed="nope")
                with pytest.raises(ServiceError, match="bias"):
                    # raw request dodges client-side bias serialization
                    client._request(
                        "POST",
                        "/v1/fuzz",
                        {"seed": 1, "count": 1, "bias": "broken"},
                    )
                with pytest.raises(ServiceError, match="bias"):
                    client.fuzz(
                        seed=1, count=1, bias={"fence_rate": "sideways"}
                    )
        finally:
            handle.stop()
