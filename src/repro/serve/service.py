"""The verdict service core: admission, dedup, two-level store, compute.

One :class:`VerdictService` owns one
:class:`~repro.litmus.session.Session` and answers every query through a
fixed pipeline::

    validate → store probe (memory → disk) → coalesce → compute → store

Concurrency model: the asyncio event loop owns all bookkeeping (store
probes, the coalescer's future table, admission counters); the blocking
Session work runs on a **single dedicated compute thread**, which
serializes Session access without locks — the Session itself fans a
suite out over its worker-process pool, so one compute thread does not
mean one core.  Back-pressure is a bounded count of compute-bound
requests: when ``queue_limit`` requests are already computing or queued,
new cache-missing requests are refused with 503 and a ``Retry-After``
hint rather than queued unboundedly.  Cache hits and coalesced
followers are always admitted — they cost no compute.

Per-request deadlines reuse :mod:`repro.core.deadline`: the effective
``RunConfig.timeout`` (request override clamped by the service maximum)
is enforced cooperatively inside the engines, which works off the main
thread — essential here, where nothing computes on the main thread.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import asyncio

from .. import __version__
from ..core.counters import Counters
from ..litmus.cache import ResultCache, default_cache_dir
from ..litmus.config import RunConfig
from ..litmus.session import Session
from ..litmus.test import LitmusTest
from ..schema import CACHE_SCHEMA_VERSION, assert_schema
from .coalesce import Coalescer
from .protocol import (
    ApiError,
    build_config,
    check_engine_model,
    parse_test,
    request_key,
    result_payload,
    suite_test_names,
)
from .store import VerdictStore

assert_schema("repro.serve.service", cache=10)


@dataclass(frozen=True)
class ServeConfig:
    """Operator knobs for one service instance.

    ``timeout`` is the *maximum* per-request deadline — requests may ask
    for less, never more.  ``queue_limit`` bounds concurrently admitted
    compute-bound requests (the back-pressure knob).  ``compute_delay``
    artificially slows every computation; it exists so tests can hold
    computations in flight long enough to provoke coalescing and
    saturation deterministically, and must stay 0 in production.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    model: str = "ptx"
    engine: str = "enumerative"
    jobs: int = 1
    timeout: Optional[float] = 60.0
    certify: bool = False
    use_cache: bool = True
    cache_dir: Optional[str] = None
    capacity: int = 4096
    shards: int = 8
    queue_limit: int = 16
    retry_after: float = 1.0
    compute_delay: float = 0.0


@dataclass
class ServiceStats(Counters):
    """Request-level counters (compute-level ones live in SessionStats)."""

    requests: int = 0
    errors: int = 0
    saturated: int = 0
    #: completed calls into the Session (the number coalescing is
    #: measured against: N identical concurrent requests must leave
    #: this at 1)
    computations: int = 0


class VerdictService:
    """The HTTP-agnostic service core (the front end calls ``handle``)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.base_config = RunConfig(
            model=self.config.model,
            engine=self.config.engine,
            timeout=self.config.timeout,
            jobs=self.config.jobs,
            # the VerdictStore owns the disk tier; the Session must not
            # probe it a second time behind the store's back
            use_cache=False,
            certify=self.config.certify,
        )
        disk = None
        if self.config.use_cache:
            directory = self.config.cache_dir or default_cache_dir()
            disk = ResultCache(directory)
        self.store = VerdictStore(
            capacity=self.config.capacity,
            shards=self.config.shards,
            disk=disk,
        )
        self.coalescer = Coalescer()
        self.stats = ServiceStats()
        self.session = Session(self.base_config)
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="verdict-compute"
        )
        self._pending = 0
        self._started = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop the compute thread and the Session's worker pool."""
        self._compute.shutdown(wait=True, cancel_futures=True)
        self.session.close()

    def __enter__(self) -> "VerdictService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -----------------------------------------------------

    def _admit(self) -> None:
        if self._pending >= self.config.queue_limit:
            self.stats.saturated += 1
            raise ApiError(
                503,
                f"service saturated ({self._pending} requests computing; "
                f"queue_limit={self.config.queue_limit})",
                retry_after=self.config.retry_after,
            )
        self._pending += 1

    def _release(self) -> None:
        self._pending -= 1

    # -- compute path --------------------------------------------------

    def _compute_sync(
        self, items: List[Tuple[LitmusTest, str]], config: RunConfig
    ):
        """Session work; runs on (only) the dedicated compute thread."""
        if self.config.compute_delay:
            time.sleep(self.config.compute_delay)
        tasks = [(test, config) for test, _ in items]
        results = self.session.run_tasks(tasks)
        self.stats.computations += 1
        return results

    async def _compute_batch(
        self, items: List[Tuple[LitmusTest, str]], config: RunConfig
    ) -> List:
        """Lead one flight per item, run one pooled Session call, settle.

        Admission happens before any flight opens, so a refused request
        leaves no future behind for later requests to latch onto.
        """
        self._admit()
        futures = {key: self.coalescer.lead(key) for _, key in items}
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._compute, self._compute_sync, items, config
            )
        except BaseException as exc:
            for _, key in items:
                self.coalescer.settle(key, futures[key], error=exc)
            raise
        finally:
            self._release()
        for (test, key), result in zip(items, results):
            if result.status == "ok":
                self.store.put(key, result)
            self.coalescer.settle(key, futures[key], result=result)
        return results

    def _probe(self, key: str, test: LitmusTest):
        """Store lookup that reports which tier answered."""
        mem_before = self.store.stats.mem_hits
        result = self.store.get(key, test)
        if result is None:
            return None, "miss"
        source = "memory" if self.store.stats.mem_hits > mem_before else "disk"
        return result, source

    async def _answer(self, test: LitmusTest, config: RunConfig) -> Dict:
        """The full pipeline for one query; returns a response payload."""
        key = request_key(test, config)
        result, source = self._probe(key, test)
        if result is not None:
            return result_payload(result, key, source)
        existing = self.coalescer.join(key)
        if existing is not None:
            result = await asyncio.shield(existing)
            return result_payload(result, key, "coalesced")
        results = await self._compute_batch([(test, key)], config)
        return result_payload(results[0], key, "computed")

    # -- endpoints -----------------------------------------------------

    async def run_query(self, payload: Dict) -> Dict:
        test = parse_test(payload)
        config = build_config(self.base_config, payload, self.config.timeout)
        check_engine_model(config)
        return await self._answer(test, config)

    def _suite_tests(self, payload: Dict) -> List[LitmusTest]:
        names = payload.get("tests")
        if names is None:
            from ..litmus.suite import SUITE

            return list(SUITE)
        if not isinstance(names, list) or not names:
            raise ApiError(400, "'tests' must be a non-empty array")
        tests = []
        for entry in names:
            if isinstance(entry, str):
                tests.append(parse_test({"name": entry}))
            elif isinstance(entry, dict):
                tests.append(parse_test({"test": entry}))
            else:
                raise ApiError(
                    400, "each suite entry must be a name or a serialized test"
                )
        return tests

    async def suite_query(self, payload: Dict) -> Dict:
        """Many tests, one admission slot, one pooled Session call.

        Store hits and already-in-flight keys are peeled off first; only
        the remainder computes, as a single batch, so a suite request
        parallelizes across the Session's worker pool instead of
        trickling through the compute thread one test at a time.
        """
        tests = self._suite_tests(payload)
        config = build_config(self.base_config, payload, self.config.timeout)
        check_engine_model(config)
        entries = [(test, request_key(test, config)) for test in tests]
        answers: Dict[int, Dict] = {}
        followers: List[Tuple[int, str, asyncio.Future]] = []
        to_compute: List[Tuple[int, LitmusTest, str]] = []
        # no await between here and _compute_batch's lead() calls: the
        # probe/join/lead decisions are atomic on the event loop
        for index, (test, key) in enumerate(entries):
            result, source = self._probe(key, test)
            if result is not None:
                answers[index] = result_payload(result, key, source)
                continue
            existing = self.coalescer.join(key)
            if existing is not None:
                followers.append((index, key, existing))
            else:
                to_compute.append((index, test, key))
        batch = None
        if to_compute:
            batch = asyncio.ensure_future(
                self._compute_batch(
                    [(test, key) for _, test, key in to_compute], config
                )
            )
            # if a follower await raises first, the batch still runs to
            # completion in the background; mark its exception retrieved
            batch.add_done_callback(
                lambda task: task.cancelled() or task.exception()
            )
        for index, key, future in followers:
            result = await asyncio.shield(future)
            answers[index] = result_payload(result, key, "coalesced")
        if batch is not None:
            results = await batch
            for (index, _, key), result in zip(to_compute, results):
                answers[index] = result_payload(result, key, "computed")
        ordered = [answers[index] for index in range(len(entries))]
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "count": len(ordered),
            "verdicts": ordered,
        }

    async def fuzz_query(self, payload: Dict) -> Dict:
        """A farm compute tier: generate a seed range, decide it, and
        return per-case coverage features.

        The cases run through the same store/coalescer path as any
        other test (reusing :meth:`suite_query` on the serialized
        programs), so a re-requested range is served from cache.  The
        response carries, per case, the static+dynamic feature labels
        the farm folds into its coverage map, plus the verdict digest;
        shrinking stays client-side, where the oracle battery lives.
        """
        from ..fuzz.coverage import case_features, result_features
        from ..fuzz.gen import GenBias, generate_case
        from ..litmus.serialize import result_from_dict, test_to_dict

        # fuzz payloads always target the reference decider unless the
        # caller overrides; the farm's oracle battery stays client-side

        seed = payload.get("seed", 0)
        start = payload.get("start", 0)
        count = payload.get("count", 32)
        if not all(isinstance(v, int) for v in (seed, start, count)):
            raise ApiError(400, "'seed', 'start', 'count' must be integers")
        if not 1 <= count <= 512:
            raise ApiError(400, "'count' must be between 1 and 512")
        bias = None
        if payload.get("bias") is not None:
            if not isinstance(payload["bias"], dict):
                raise ApiError(400, "'bias' must be a GenBias object")
            try:
                bias = GenBias.from_dict(payload["bias"])
            except (TypeError, ValueError) as exc:
                raise ApiError(400, f"malformed 'bias': {exc}") from None
        cases = [
            generate_case(seed, index, bias)
            for index in range(start, start + count)
        ]
        sub_payload = {
            key: payload[key]
            for key in ("model", "engine", "timeout", "search_opts")
            if key in payload
        }
        sub_payload["tests"] = [test_to_dict(case.test) for case in cases]
        answers = await self.suite_query(sub_payload)
        entries = []
        for case, verdict in zip(cases, answers["verdicts"]):
            result = result_from_dict(verdict["result"], test=case.test)
            features = case_features(case.test, case.cycle) | result_features(
                result
            )
            entries.append({
                "index": case.index,
                "name": case.name,
                "cycle": case.cycle,
                "features": sorted(features),
                "verdict": verdict["verdict"],
                "digest": verdict["digest"],
                "source": verdict["source"],
            })
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "seed": seed,
            "start": start,
            "count": count,
            "cases": entries,
        }

    async def compare_query(self, payload: Dict) -> Dict:
        """Model-comparison search, executed through the Session."""
        model_a = payload.get("model_a")
        model_b = payload.get("model_b")
        if not model_a or not model_b:
            raise ApiError(400, "compare needs 'model_a' and 'model_b'")
        max_length = payload.get("max_length", 3)
        limit = payload.get("limit", 10)
        if not isinstance(max_length, int) or not isinstance(limit, int):
            raise ApiError(400, "'max_length' and 'limit' must be integers")
        from ..litmus.compare import distinguishing_tests

        def search():
            if self.config.compute_delay:
                time.sleep(self.config.compute_delay)
            found = list(
                distinguishing_tests(
                    model_a,
                    model_b,
                    max_length=max_length,
                    limit=limit,
                    session=self.session,
                )
            )
            self.stats.computations += 1
            return found

        self._admit()
        loop = asyncio.get_running_loop()
        try:
            try:
                distinctions = await loop.run_in_executor(
                    self._compute, search
                )
            except (KeyError, ValueError) as exc:
                raise ApiError(400, str(exc)) from None
        finally:
            self._release()
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "model_a": model_a,
            "model_b": model_b,
            "count": len(distinctions),
            "distinctions": [
                {
                    "name": d.name,
                    "variant": d.variant,
                    "verdicts": {
                        model: expect.value
                        for model, expect in d.verdicts.items()
                    },
                }
                for d in distinctions
            ],
        }

    def models_payload(self) -> Dict:
        """Everything ``GET /v1/models`` reports: the registered zoo."""
        from ..registry import engines_for_model
        from ..zoo import ZOO_MODELS

        return {
            "schema": CACHE_SCHEMA_VERSION,
            "count": len(ZOO_MODELS),
            "models": [
                {
                    "name": model.name,
                    "description": model.description,
                    "cat": model.cat,
                    "co_style": model.witnesses.co_style,
                    "co_name": model.witnesses.co_name,
                    "sc_fences": model.witnesses.sc_fences,
                    "opts": sorted(model.opts),
                    "engines": list(engines_for_model(model.name)),
                    "claims": [
                        {
                            "stronger": claim.stronger,
                            "weaker": claim.weaker,
                            "basis": claim.basis,
                        }
                        for claim in model.claims
                    ],
                }
                for model in ZOO_MODELS
            ],
        }

    async def matrix_query(self, payload: Dict) -> Dict:
        """The N×N conformance matrix, computed through the store.

        Every (model, test) pair goes through the standard pipeline —
        store probe, coalesce, one batched Session call for the misses —
        so repeated matrix requests (and overlapping suite traffic) are
        answered from the two-level store rather than recomputed.
        """
        from ..zoo.engine import concrete_observations
        from ..zoo.matrix import (
            MatrixError,
            assemble_matrix,
            matrix_corpus,
            verify_claims,
        )
        from ..zoo.models import resolve_zoo, zoo_names

        models = payload.get("models")
        if models is None:
            models = list(zoo_names())
        if (
            not isinstance(models, list)
            or not models
            or not all(isinstance(name, str) for name in models)
        ):
            raise ApiError(400, "'models' must be a non-empty string array")
        try:
            for name in models:
                resolve_zoo(name)
        except KeyError as exc:
            raise ApiError(400, str(exc.args[0]) if exc.args else str(exc))
        models = tuple(sorted(set(models)))
        fast = bool(payload.get("fast", False))
        corpus = matrix_corpus(fast=fast)
        base = build_config(self.base_config, payload, self.config.timeout)
        # every zoo model must be decidable: the enumerative engine is
        # the one engine with no capability restriction
        configs = {
            model: base.evolve(model=model, engine="enumerative")
            for model in models
        }

        entries = [
            (model, name, test, request_key(test, configs[model]))
            for model in models
            for name, test in corpus
        ]
        answers: Dict[int, object] = {}
        followers = []
        to_compute = []
        sources = {"memory": 0, "disk": 0, "coalesced": 0, "computed": 0}
        # no await between probe/join/lead: decisions stay atomic on the
        # event loop (the suite pipeline's discipline)
        for index, (model, name, test, key) in enumerate(entries):
            result, source = self._probe(key, test)
            if result is not None:
                answers[index] = result
                sources[source] += 1
                continue
            existing = self.coalescer.join(key)
            if existing is not None:
                followers.append((index, existing))
            else:
                to_compute.append((index, test, key, configs[model]))
        batches = []
        if to_compute:
            # one batch per config (Session tasks carry their config, so
            # a single call would also work; per-model batches keep the
            # store/coalescer bookkeeping identical to the suite path)
            by_config: Dict[object, List] = {}
            for index, test, key, config in to_compute:
                by_config.setdefault(config, []).append((index, test, key))
            for config, items in by_config.items():
                batch = asyncio.ensure_future(
                    self._compute_batch(
                        [(test, key) for _, test, key in items], config
                    )
                )
                batch.add_done_callback(
                    lambda task: task.cancelled() or task.exception()
                )
                batches.append((items, batch))
        for index, future in followers:
            answers[index] = await asyncio.shield(future)
            sources["coalesced"] += 1
        for items, batch in batches:
            results = await batch
            for (index, _, _), result in zip(items, results):
                answers[index] = result
                sources["computed"] += 1

        table = {}
        for index, (model, name, test, key) in enumerate(entries):
            result = answers[index]
            if result.status != "ok":
                raise ApiError(
                    500,
                    f"matrix incomplete: {name} under {model} ended "
                    f"{result.status}",
                )
            table[(model, name)] = concrete_observations(result.outcomes)
        try:
            matrix = assemble_matrix(
                models, [name for name, _ in corpus], table
            )
        except MatrixError as exc:
            raise ApiError(500, str(exc))
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "corpus": "fast" if fast else "full",
            "matrix": matrix.to_dict(),
            "table": matrix.format_table(),
            "claim_violations": verify_claims(matrix),
            "sources": sources,
        }

    async def warm_query(self, payload: Dict) -> Dict:
        """Preload the standard suite's verdicts into the store.

        Runs the whole corpus through the normal suite pipeline under
        the service's base config (plus any request overrides), so after
        warming, suite traffic is served from memory.
        """
        before = self.store.stats.as_dict()
        response = await self.suite_query(dict(payload))
        after = self.store.stats.as_dict()
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "warmed": response["count"],
            "entries": len(self.store),
            "loaded_from_disk": after["disk_hits"] - before["disk_hits"],
            "computed": after["stores"] - before["stores"],
        }

    def stats_payload(self) -> Dict:
        """Everything ``/v1/stats`` reports, as one JSON object."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "uptime": time.monotonic() - self._started,
            "service": {
                **self.stats.as_dict(),
                "pending": self._pending,
                "queue_limit": self.config.queue_limit,
            },
            "coalesce": {
                **self.coalescer.stats.as_dict(),
                "inflight": self.coalescer.inflight(),
            },
            "store": self.store.as_dict(),
            "session": self.session.stats.as_dict(),
            "config": {
                "model": self.config.model,
                "engine": self.config.engine,
                "jobs": self.config.jobs,
                "timeout": self.config.timeout,
                "certify": self.config.certify,
            },
        }

    # -- routing -------------------------------------------------------

    async def handle(
        self, method: str, path: str, payload: Optional[Dict]
    ) -> Tuple[int, Dict]:
        """Dispatch one request; never raises (errors become statuses)."""
        self.stats.requests += 1
        try:
            route = (method, path)
            if route == ("GET", "/healthz"):
                return 200, {"ok": True, "version": __version__}
            if route == ("GET", "/v1/stats"):
                return 200, self.stats_payload()
            if route == ("GET", "/v1/suite/tests"):
                return 200, {"tests": suite_test_names()}
            if route == ("GET", "/v1/models"):
                return 200, self.models_payload()
            if method != "POST":
                raise ApiError(405, f"{method} not supported on {path}")
            body = payload if payload is not None else {}
            if path == "/v1/run":
                return 200, await self.run_query(body)
            if path == "/v1/suite":
                return 200, await self.suite_query(body)
            if path == "/v1/fuzz":
                return 200, await self.fuzz_query(body)
            if path == "/v1/compare":
                return 200, await self.compare_query(body)
            if path == "/v1/matrix":
                return 200, await self.matrix_query(body)
            if path == "/v1/warm":
                return 200, await self.warm_query(body)
            raise ApiError(404, f"no such endpoint: {path}")
        except ApiError as exc:
            if exc.status != 503:
                # saturation was already counted at the admission gate
                self.stats.errors += 1
            return exc.status, exc.as_dict()
        except Exception as exc:  # noqa: BLE001 — the service must survive
            self.stats.errors += 1
            return 500, {
                "error": f"{type(exc).__name__}: {exc}",
                "status": 500,
            }
