"""Per-layer metrics of one workload.

Three sources, the same on every workload:

* **start-up** — ``python -X importtime -c "import repro.cli; import
  repro.api"``; self time summed per subpackage;
* **the probe pass** — a seeded sample of the workload's own tests
  pushed through every layer once (parse, decide, session, serialize,
  cache, protocol and store, service, HTTP, compile, fuzz generation
  and coverage, each engine of the fuzz battery), with spans on, so
  each layer's cost is measured on the input shapes this workload
  sends;
* **the traced workload run** — counters of layers only that workload
  reaches (result-cache and service-store traffic); zero where the
  workload bypasses the layer.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from common import WorkloadResult, run_child
from spans import Tracer, by_name

SUBPACKAGES = (
    "litmus", "core", "lang", "search", "cert", "mapping", "kodkod", "sat",
    "serve", "fuzz", "zoo",
)
IMPORT_PROBES = 3
IMPORTS = "import repro.cli; import repro.api"
PROBE_TESTS = 64
ENGINE_TESTS = 16
GEN_CASES = 200
OVERHEAD_REPEATS = 5

#: per-layer counters that only the traced workload run can supply
RUN_COUNTERS = (
    ("serve.store.mem_hits", "count"),
    ("serve.store.misses", "count"),
    ("serve.store.stores", "count"),
    ("serve.store.evictions", "count"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.coalesce.leaders", "count"),
    ("serve.coalesce.followers", "count"),
    ("serve.service.computations", "count"),
)


def import_profile(result: WorkloadResult) -> None:
    """``import.*`` metrics: medians over a few importtime runs."""
    samples: Dict[str, List[float]] = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        done = run_child(["-X", "importtime", "-c", IMPORTS])
        if done.returncode != 0:
            raise RuntimeError(f"importing the package failed:\n{done.stderr[-2000:]}")
        per_package: Dict[str, float] = defaultdict(float)
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            own, cumulative = int(fields[0]), int(fields[1])
            module = fields[2].strip()
            if module == "repro.cli":
                per_package["repro.cli"] = cumulative
            elif module.startswith("repro."):
                per_package[module.split(".")[1]] += own
        for name in ("repro.cli", *SUBPACKAGES):
            samples[name].append(per_package[name] / 1000.0)
    for name, values in samples.items():
        result.put(f"import.{name}_ms", statistics.median(values), "ms", len(values))


def _mean_us(spans, name: str) -> Tuple[float, int]:
    durations = [span.dur for span in spans.get(name, ())]
    if not durations:
        raise RuntimeError(f"the probe pass recorded no {name} span")
    return statistics.fmean(durations) / 1000.0, len(durations)


def _total(spans, name: str) -> int:
    return sum(span.dur for span in spans.get(name, ()))


class Probe:
    """One probe pass; each phase records its spans and derives metrics."""

    def __init__(self, tracer: Tracer, result: WorkloadResult, tmp) -> None:
        self.tracer = tracer
        self.result = result
        self.tmp = tmp

    def phase(self, run):
        mark = self.tracer.mark()
        value = run()
        return value, by_name(self.tracer.since(mark))

    def put_mean(self, spans, span_name: str, metric: str) -> None:
        value, n = _mean_us(spans, span_name)
        self.result.put(metric, value, "us", n)

    def run(self, texts: List[str], seed: int) -> None:
        from repro.litmus import RunConfig, parser, runner

        tests, spans = self.phase(lambda: [parser.parse_litmus(t) for t in texts])
        self.put_mean(spans, "litmus.parser.parse_litmus", "litmus.parser.us_per_test")
        config = RunConfig()
        results, spans = self.phase(lambda: [runner.decide(t, config) for t in tests])
        self.decide_metrics(tests, results, spans)
        self.session_metrics(tests, config)
        self.serialize_metrics(tests, results, config)
        self.serve_metrics(texts)
        self.compile_metrics(tests)
        self.fuzz_metrics(tests, results, seed)
        self.engine_metrics(tests)
        self.overhead_metric(tests, config)

    def decide_metrics(self, tests, results, spans) -> None:
        n = len(tests)
        decide = _total(spans, "litmus.runner.decide")
        search = _total(spans, "search.ptx_search.allowed_outcomes")
        put = self.result.put
        put("ptx.program.elaborate_us",
            _total(spans, "ptx.program.elaborate") / n / 1000, "us", n)
        put("ptx.model.build_env_us",
            _total(spans, "ptx.model.build_env") / n / 1000, "us", n)
        put("search.ptx_search.us_per_test", search / n / 1000, "us", n)
        put("search.ptx_search.share_of_decide", search / decide, "ratio", n)
        put("litmus.runner.overhead_us", (decide - search) / n / 1000, "us", n)
        totals: Dict[str, int] = defaultdict(int)
        for verdict in results:
            stats = verdict.enum_stats.as_dict()
            for name in ("rf_assignments", "rf_pruned", "pre_co_pruned",
                         "candidates_checked", "memo_hits", "memo_misses"):
                totals[name] += stats[name]
        for name, total in totals.items():
            put(f"search.ptx_search.{name}", total / n, "count/test", n)
        outcomes = sum(len(verdict.outcomes) for verdict in results)
        put("search.ptx_search.useful_ratio",
            outcomes / max(totals["candidates_checked"], 1), "ratio", n)

    def session_metrics(self, tests, config) -> None:
        from repro.litmus import Session

        def sweep():
            with Session(config) as session:
                session.run_tasks([(test, config) for test in tests])

        _, spans = self.phase(sweep)
        overhead = _total(spans, "litmus.session.Session.run_tasks") - _total(
            spans, "litmus.runner.decide")
        self.result.put("litmus.session.overhead_us_per_task",
                        overhead / len(tests) / 1000, "us", len(tests))

    def serialize_metrics(self, tests, results, config) -> None:
        from repro.litmus import ResultCache, cache, serialize

        def encode():
            for verdict in results:
                serialize.result_to_dict(verdict)
                serialize.verdict_digest(verdict)

        _, spans = self.phase(encode)
        self.put_mean(spans, "litmus.serialize.result_to_dict",
                      "litmus.serialize.result_to_dict_us")
        self.put_mean(spans, "litmus.serialize.verdict_digest",
                      "litmus.serialize.verdict_digest_us")
        disk = ResultCache(self.tmp / "cache")

        def roundtrip():
            keys = [
                cache.cache_key(test, config.model, config.engine,
                                dict(test.search_opts), kernel=config.kernel)
                for test in tests
            ]
            for key, verdict in zip(keys, results):
                disk.put(key, verdict)
            for key, test in zip(keys, tests):
                disk.get(key, test)

        _, spans = self.phase(roundtrip)
        self.put_mean(spans, "litmus.cache.cache_key", "litmus.cache.key_us")
        self.put_mean(spans, "litmus.cache.ResultCache.put", "litmus.cache.put_us")
        self.put_mean(spans, "litmus.cache.ResultCache.get", "litmus.cache.get_us")

    def serve_metrics(self, texts) -> None:
        from repro.serve import Client, ServeConfig, VerdictService, start_in_thread

        served = ServeConfig(port=0, jobs=1, cache_dir=str(self.tmp / "serve"))
        service = VerdictService(served)
        loop = asyncio.new_event_loop()
        try:
            def ask():
                for text in texts:
                    status, payload = loop.run_until_complete(
                        service.handle("POST", "/v1/run", {"litmus": text}))
                    if status != 200:
                        raise RuntimeError(f"probe request failed: {payload}")

            _, spans = self.phase(ask)
            _, hit_spans = self.phase(ask)
        finally:
            loop.close()
            service.close()
        handle = "serve.service.VerdictService.handle"
        self.put_mean(spans, handle, "serve.service.handle_novel_us")
        self.put_mean(hit_spans, handle, "serve.service.handle_hit_us")
        for name in ("request_key", "parse_test"):
            self.put_mean(spans, f"serve.protocol.{name}", f"serve.protocol.{name}_us")
        self.put_mean(hit_spans, "serve.store.VerdictStore.get", "serve.store.get_us")
        self.put_mean(spans, "serve.store.VerdictStore.put", "serve.store.put_us")

        # the same hits over HTTP: the round trip minus the handler
        server = start_in_thread(served)
        try:
            with Client(port=server.port, timeout=60.0, retries=0) as client:
                for text in texts:  # disk hits, promoted into memory
                    client.run(text)

                def hit_all():
                    for text in texts:
                        client.run(text)

                _, spans = self.phase(hit_all)
        finally:
            server.stop()
        client_us, n = _mean_us(spans, "serve.client.Client.run")
        handler_us, _ = _mean_us(spans, handle)
        self.result.put("serve.http.overhead_us", client_us - handler_us, "us", n)

    def compile_metrics(self, tests) -> None:
        from repro.lang import clear_compile_cache, compile_cache_stats
        from repro.litmus import RunConfig, runner

        compiled = RunConfig(kernel="compiled")
        clear_compile_cache()
        started = time.perf_counter()
        for test in tests:
            runner.decide(test, compiled)
        cold = time.perf_counter() - started
        for test in tests:
            runner.decide(test, compiled)
        stats = compile_cache_stats()
        put = self.result.put
        put("lang.compile.cold_us_per_test", 1e6 * cold / len(tests), "us", len(tests))
        put("lang.compile.cache_hits", stats["hits"], "count", 2 * len(tests))
        put("lang.compile.cache_misses", stats["instances"], "count", 2 * len(tests))

    def fuzz_metrics(self, tests, results, seed: int) -> None:
        from repro.fuzz import coverage, gen

        for index in range(GEN_CASES // 4):  # build the cycle pools first
            gen.generate_case(seed, index)

        def generate():
            for index in range(GEN_CASES):
                gen.generate_case(seed, GEN_CASES + index)

        _, spans = self.phase(generate)
        self.put_mean(spans, "fuzz.gen.generate_case", "fuzz.gen.us_per_case")
        started = time.perf_counter()
        for test, verdict in zip(tests, results):
            coverage.case_features(test) | coverage.result_features(verdict)
        self.result.put("fuzz.coverage.us_per_case",
                        1e6 * (time.perf_counter() - started) / len(tests),
                        "us", len(tests))

    def engine_metrics(self, tests) -> None:
        from repro.fuzz.oracle import default_checks
        from repro.litmus import RunConfig, runner

        sample = tests[:ENGINE_TESTS]
        plan: Dict[object, List] = {}
        for check in default_checks():
            for spec in (check.left, check.right):
                plan.setdefault(spec, [])
                for test in sample:
                    if check.applies(test) and test not in plan[spec]:
                        plan[spec].append(test)
        base = RunConfig(timeout=20.0)
        sat: Dict[str, int] = defaultdict(int)
        for spec, chosen in plan.items():
            elapsed = []
            for test in chosen:
                started = time.perf_counter()
                verdict = runner.decide(test, spec.config(base))
                elapsed.append(time.perf_counter() - started)
                if verdict.solver_stats is not None:
                    for name in ("conflicts", "decisions", "propagations"):
                        sat[name] += getattr(verdict.solver_stats, name)
            label = spec.label.replace("/", "-")
            self.result.put(f"engine.{label}.ms_per_case",
                            1000 * statistics.fmean(elapsed) if elapsed else 0.0,
                            "ms", len(elapsed))
        for name in ("conflicts", "decisions", "propagations"):
            self.result.put(f"sat.solver.{name}_per_case",
                            sat[name] / len(sample), "count", len(sample))

    def overhead_metric(self, tests, config) -> None:
        """The decide sweep with spans on versus no wrappers at all,
        fastest of a few alternating repeats each."""
        from repro.litmus import runner

        def sweep() -> float:
            started = time.perf_counter()
            for test in tests:
                runner.decide(test, config)
            return time.perf_counter() - started

        traced, untraced = [], []
        for _ in range(OVERHEAD_REPEATS):
            self.tracer.uninstall()
            untraced.append(sweep())
            self.tracer.install()
            traced.append(sweep())
        self.result.put("trace.overhead_pct",
                        100 * (min(traced) / min(untraced) - 1), "%",
                        OVERHEAD_REPEATS)


def per_layer(result: WorkloadResult, tracer: Tracer, texts: List[str],
              seed: int, tmp) -> None:
    """Fill every per-layer metric into ``result`` (after the traced run)."""
    counts = dict(tracer.counts)
    lookups = counts.get("litmus.cache.hits", 0) + counts.get("litmus.cache.misses", 0)
    result.put("litmus.cache.hit_ratio",
               counts.get("litmus.cache.hits", 0) / lookups if lookups else 0.0,
               "ratio", lookups)
    for name, unit in RUN_COUNTERS:
        if name not in result.metrics:
            result.put(name, 0, unit, 0)
    unique = list(dict.fromkeys(texts))
    random.Random(seed).shuffle(unique)
    Probe(tracer, result, tmp).run(unique[:PROBE_TESTS], seed)
    import_profile(result)
