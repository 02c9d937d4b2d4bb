"""Parallel suite execution with persistent result caching.

A :class:`Session` is the execution subsystem behind ``run_suite``,
``ptxmm suite`` and ``ptxmm compare``: it fans tasks out over a
``ProcessPoolExecutor`` (``jobs > 1``), applies the per-test wall-clock
timeout inside each worker, survives worker death with bounded retries,
consults the content-addressed result cache before solving anything, and
reassembles results in input order regardless of completion order.

Design notes:

* **IPC format** — workers receive serialized test payloads and return
  serialized results (:mod:`repro.litmus.serialize`), the same format
  the cache stores; nothing model-specific crosses the process
  boundary, so a worker crash cannot corrupt parent state.
* **Failure isolation** — a test that raises inside a worker (or after
  retries, one that keeps killing its worker) produces an ``ERROR``
  verdict; a test that exceeds the deadline produces ``TIMEOUT``.  One
  pathological test never takes down a sweep.
* **Determinism** — results are keyed by submission index; parallel,
  sequential, and cached runs of the same suite yield identical tuples
  (up to the ``elapsed`` timing field).
"""

from __future__ import annotations

import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sat.records import SolverStats
from ..schema import assert_schema
from ..search.records import EnumStats
from .cache import ResultCache, cache_key, default_cache_dir
from .config import RunConfig
from .runner import (
    LitmusResult,
    _warn_dropped,
    decide,
    decide_filtered,
    partition_opts,
)
from .serialize import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    test_from_dict,
    test_to_dict,
)
from .test import LitmusTest

# worker IPC payloads and cached results share one schema version; a
# half-bumped tree must fail here, not with mysterious worker errors
assert_schema("repro.litmus.session", cache=10)


@dataclass
class SessionStats:
    """Aggregate counters for everything a session has executed.

    Extends the per-solve :class:`SolverStats` reporting with the
    execution-subsystem view: cache traffic, timeouts, worker retries.
    """

    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    timeouts: int = 0
    errors: int = 0
    worker_retries: int = 0
    #: verdicts whose certificate passed the independent checker
    certified: int = 0
    #: verdicts whose certificate was REJECTED (each also counts an error:
    #: a failed check downgrades the verdict to ERROR)
    cert_failed: int = 0
    #: certify-mode verdicts with nothing checkable (enumerative fallback)
    cert_skipped: int = 0
    elapsed: float = 0.0
    #: summed SAT counters from every symbolic-engine result
    solver: SolverStats = field(default_factory=SolverStats)
    #: summed enumeration counters from every enumerative PTX result
    enum: EnumStats = field(default_factory=EnumStats)

    def format(self) -> str:
        """A compact one-line rendering for CLI/benchmark output."""
        line = (
            f"tasks={self.tasks} cache_hits={self.cache_hits} "
            f"cache_misses={self.cache_misses} timeouts={self.timeouts} "
            f"errors={self.errors} worker_retries={self.worker_retries} "
            f"certified={self.certified} cert_failed={self.cert_failed} "
            f"cert_skipped={self.cert_skipped} elapsed={self.elapsed:.3f}s"
        )
        if self.enum.rf_assignments:
            line += f"\nenum: {self.enum.format()}"
        return line


@functools.lru_cache(maxsize=64)
def _rebuild_test(text: str) -> LitmusTest:
    """A worker's copy of one serialized test, rebuilt once: the engine
    tasks of one test that land on the same worker share its program,
    and so its static pass (:func:`repro.ptx.static.static_pass`)."""
    return test_from_dict(json.loads(text))


def _execute_task(payload: Dict) -> Dict:
    """Worker-side entry point: one serialized task in, one result out.

    Must stay a module-level function (it is pickled by reference into
    worker processes).  All exceptions are folded into an ``error``
    result so the worker survives for the next task.
    """
    test = _rebuild_test(canonical_json(payload["test"]))
    # the payload carries the *whole* serialized config: rebuilding from
    # a hand-picked field subset used to silently drop any config field
    # the subset didn't know about (e.g. engine knobs added later)
    config = config_from_dict(payload["config"])
    try:
        result = decide_filtered(test, config, dict(payload["opts"]))
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        result = LitmusResult(
            test=test,
            model=config.model,
            observed=False,
            outcomes=frozenset(),
            status="error",
            detail=f"{type(exc).__name__}: {exc}",
        )
    return result.to_dict(include_test=False)


class Session:
    """A (re)usable execution context for litmus sweeps.

    Usage::

        with Session(RunConfig(jobs=4, timeout=10.0, use_cache=True)) as s:
            results = s.run_suite(SUITE)
            print(s.stats.format())

    The worker pool is created lazily on the first parallel call and
    reused across calls until :meth:`close` (or context exit).
    """

    def __init__(self, config: Optional[RunConfig] = None, **overrides):
        config = config if config is not None else RunConfig()
        if overrides:
            config = config.evolve(**overrides)
        self.config = config
        self.stats = SessionStats()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._warned: set = set()
        self.cache: Optional[ResultCache] = None
        if config.use_cache:
            directory = config.cache_dir or default_cache_dir()
            self.cache = ResultCache(directory)

    # -- lifecycle -----------------------------------------------------

    @property
    def jobs(self) -> int:
        """The resolved worker count (``jobs=0`` means one per CPU)."""
        return self.config.jobs or (os.cpu_count() or 1)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _discard_executor(self) -> None:
        """Drop a broken pool without waiting for it."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the worker pool down and wait for it (idempotent).

        Waiting joins the workers and the pool's management thread, so
        nothing is still writing to a worker pipe while the interpreter
        exits."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution core ------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[Tuple[LitmusTest, RunConfig]]
    ) -> List[LitmusResult]:
        """Run (test, config) tasks; results in input order.

        The scheduling pipeline per task: option validation (unknown
        options raise here, in the parent, before anything is
        submitted) → cache probe → local or pooled execution → cache
        store for completed results.
        """
        started = time.perf_counter()
        results: Dict[int, LitmusResult] = {}
        #: task index -> the search options it keeps, for cache misses
        misses: Dict[int, Dict] = {}
        keys: Dict[int, str] = {}
        for index, (test, config) in enumerate(tasks):
            merged = dict(test.search_opts)
            merged.update(config.opts)
            kept, dropped = partition_opts(config.model, merged)
            _warn_dropped(config.model, dropped, self._warned)
            self.stats.tasks += 1
            if self.cache is not None:
                key = cache_key(
                    test, config.model, config.engine, kept,
                    certify=config.certify, kernel=config.kernel,
                )
                cached = self.cache.get(key, test)
                if cached is not None:
                    self.stats.cache_hits += 1
                    results[index] = cached
                    continue
                self.stats.cache_misses += 1
                keys[index] = key
            misses[index] = kept
        if misses:
            if self.jobs <= 1:
                for index in misses:
                    test, config = tasks[index]
                    results[index] = self._run_local(test, config)
            else:
                tests = {index: tasks[index][0] for index in misses}
                # one serialization per test, however many engines run it
                serialized: Dict[int, Dict] = {}
                for test in tests.values():
                    if id(test) not in serialized:
                        serialized[id(test)] = test_to_dict(test)
                payloads = {
                    index: {
                        "test": serialized[id(tests[index])],
                        "config": config_to_dict(tasks[index][1]),
                        "opts": kept,
                    }
                    for index, kept in misses.items()
                }
                results.update(self._run_parallel(payloads, tests))
        for index in keys:
            result = results[index]
            if result.status == "ok":
                self.cache.put(keys[index], result)
        for result in results.values():
            if result.status == "timeout":
                self.stats.timeouts += 1
            elif result.status == "error":
                self.stats.errors += 1
            if result.solver_stats is not None:
                self.stats.solver = self.stats.solver + result.solver_stats
            if result.enum_stats is not None:
                self.stats.enum = self.stats.enum + result.enum_stats
            certificate = result.certificate
            if certificate is not None:
                if certificate.verified:
                    self.stats.certified += 1
                elif certificate.failed:
                    self.stats.cert_failed += 1
                else:
                    self.stats.cert_skipped += 1
        self.stats.elapsed += time.perf_counter() - started
        return [results[index] for index in range(len(tasks))]

    def _run_local(self, test: LitmusTest, config: RunConfig) -> LitmusResult:
        """In-process execution with the same failure isolation as workers."""
        try:
            return decide(test, config, warned=self._warned)
        except Exception as exc:  # noqa: BLE001
            return LitmusResult(
                test=test,
                model=config.model,
                observed=False,
                outcomes=frozenset(),
                status="error",
                detail=f"{type(exc).__name__}: {exc}",
            )

    def _run_parallel(
        self, payloads: Dict[int, Dict], tests: Dict[int, LitmusTest]
    ) -> Dict[int, LitmusResult]:
        """Pooled execution with bounded retry-on-worker-death.

        A dead worker breaks the whole pool (``BrokenProcessPool``); the
        pool is rebuilt and unfinished tasks resubmitted, each at most
        ``config.max_attempts`` times, after which the task gets an
        ``ERROR`` result and the sweep moves on.
        """
        out: Dict[int, LitmusResult] = {}
        remaining = dict(payloads)
        executor = self._ensure_executor()
        futures = {
            executor.submit(_execute_task, payload): index
            for index, payload in remaining.items()
        }
        broken = False
        for future in as_completed(futures):
            index = futures[future]
            try:
                payload = future.result()
            except BrokenProcessPool:
                broken = True
                break
            except Exception as exc:  # noqa: BLE001 — e.g. pickling
                out[index] = self._crash_result(tests[index], remaining[index], exc)
                remaining.pop(index)
                continue
            out[index] = result_from_dict(payload, test=tests[index])
            remaining.pop(index)
        if broken:
            # harvest tasks that finished before the pool broke, then run
            # the rest one per fresh single-worker pool: the pathological
            # task is the only one whose pool keeps dying, so innocent
            # tasks still complete and only the killer is charged retries
            for future, index in futures.items():
                if index in remaining and future.done():
                    try:
                        payload = future.result()
                    except Exception:  # noqa: BLE001 — also broken
                        continue
                    out[index] = result_from_dict(payload, test=tests[index])
                    remaining.pop(index)
            self._discard_executor()
            self.stats.worker_retries += 1
            for index in sorted(remaining):
                out[index] = self._run_isolated(tests[index], remaining[index])
        return out

    def _run_isolated(self, test: LitmusTest, payload: Dict) -> LitmusResult:
        """Run one task in its own single-worker pool, with bounded retries."""
        attempts = 1  # the shared-pool pass that broke counts as one
        while attempts < self.config.max_attempts:
            attempts += 1
            with ProcessPoolExecutor(max_workers=1) as executor:
                try:
                    result = executor.submit(_execute_task, payload).result()
                except BrokenProcessPool:
                    self.stats.worker_retries += 1
                    continue
                except Exception as exc:  # noqa: BLE001
                    return self._crash_result(test, payload, exc)
                return result_from_dict(result, test=test)
        return self._crash_result(
            test,
            payload,
            RuntimeError(f"worker died {attempts} time(s) running this test"),
        )

    def _crash_result(
        self, test: LitmusTest, payload: Dict, exc: Exception
    ) -> LitmusResult:
        return LitmusResult(
            test=test,
            model=payload["config"]["model"],
            observed=False,
            outcomes=frozenset(),
            status="error",
            detail=f"{type(exc).__name__}: {exc}",
        )

    # -- public surface ------------------------------------------------

    def run(
        self, test: LitmusTest, config: Optional[RunConfig] = None
    ) -> LitmusResult:
        """Run one test under this session's (or the given) config."""
        return self.run_tasks([(test, config or self.config)])[0]

    def run_suite(
        self,
        tests: Sequence[LitmusTest],
        config: Optional[RunConfig] = None,
    ) -> Tuple[LitmusResult, ...]:
        """Run many tests; results in input order."""
        effective = config or self.config
        return tuple(self.run_tasks([(test, effective) for test in tests]))

    def compare(self, model_a: str, model_b: str, **kw):
        """Model-comparison search executed through this session.

        See :func:`repro.litmus.compare.distinguishing_tests` for the
        keyword surface (``max_length``, ``variants``, ``vocabulary``,
        ``limit``).
        """
        from .compare import distinguishing_tests

        return distinguishing_tests(model_a, model_b, session=self, **kw)
