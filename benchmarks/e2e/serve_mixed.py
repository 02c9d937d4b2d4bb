"""serve-mixed: the verdict service under mixed read/compute traffic.

A ``python -m repro serve --jobs 1`` daemon with a fresh cache
directory.  After boot and ``/v1/warm`` the harness preloads a hot set
(the 41 suite names plus 200 seeded fuzz texts), then drives two
keep-alive connections:

* an open loop of Poisson arrivals at :data:`RATE` requests/s, each
  request timed from when it was due, 80% hot (Zipf-skewed over the hot
  set, memory-store hits) and 20% novel fuzz texts (a store miss, then
  parse, compute, and a memory plus disk put);
* a closed loop with the same mix, whose completion rate is the
  service's throughput.

The two loops alternate in :data:`CYCLES` stretches.  Windows are
half-second slices of the open loop's schedule, ranked by their hot
requests' median latency, and quarter-second slices of the closed
loop, ranked by completions.  The cold op is a novel request.

Store hits run beside compute and disk writes: a store, HTTP or
protocol change shows at p50, a compute-path change in the novel
requests' latency and the closed-loop rate.
"""

from __future__ import annotations

import itertools
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    MIXED_WORK_SHARE,
    ROOT,
    WorkloadResult,
    child_env,
    fastest,
    fuzz_texts,
    percentile,
    scratch,
    suite_texts,
)

NAME = "serve-mixed"
RATE = 200.0
CONNECTIONS = 2
HOT_FUZZ = 200
HOT_SHARE = 0.8
#: share of ``--seconds`` spent in the open loop; the rest is the closed loop
OPEN_SHARE = 0.7
#: the two loops alternate this many times, so that each one's windows
#: spread over the whole run rather than one stretch of it
CYCLES = 5
#: leading share of each closed-loop stretch left out while it ramps up
CLOSED_WARMUP = 0.1
#: window lengths (seconds) of the open loop and of the closed loop
OPEN_WINDOW = 0.25
CLOSED_SLICE = 0.5
BOOTS = 5
#: novel texts start far above the hot set's stream indices
NOVEL_BASE = 1_000_000
BOOT_TIMEOUT = 60.0
#: closed-loop requests/s to size the novel-text pool for (a pool that
#: runs dry generates on demand)
NOVEL_RATE_HINT = 2000.0


class Daemon:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.log_path = directory / "daemon.log"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> int:
        self.directory.mkdir(parents=True, exist_ok=True)
        log = open(self.log_path, "w")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--jobs", "1",
                 "--port", "0", "--cache-dir", str(self.directory / "cache")],
                cwd=str(ROOT), env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        finally:
            log.close()
        deadline = time.perf_counter() + BOOT_TIMEOUT
        marker = "listening on http://"
        while time.perf_counter() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"daemon did not start:\n{self.log_path.read_text()}")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def probe_texts(seed: int) -> List[str]:
    """A sample of the hot set (suite and fuzz texts) and of the novel texts."""
    return (
        suite_texts()[::2]
        + fuzz_texts(seed, 0, HOT_FUZZ)[::10]
        + fuzz_texts(seed, NOVEL_BASE, 24)
    )


def _expected_digests() -> Dict[str, str]:
    """In-process digests of the suite under the daemon's base config."""
    from repro.litmus import SUITE, RunConfig, decide
    from repro.litmus.serialize import verdict_digest
    from repro.serve import ServeConfig

    served = ServeConfig()
    config = RunConfig(timeout=served.timeout, jobs=1)
    return {test.name: verdict_digest(decide(test, config)) for test in SUITE}


class Traffic:
    """The request mix: hot items by Zipf rank, novel texts on demand."""

    def __init__(self, seed: int, hot: List[str], novel: int) -> None:
        self.hot = hot
        self.seed = seed
        weights = [1.0 / (rank + 1) for rank in range(len(hot))]
        self.cumulative = list(itertools.accumulate(weights))
        # generated ahead so that no request pays for its own generation
        self._pool = fuzz_texts(seed, NOVEL_BASE, novel)
        self._next = NOVEL_BASE + novel
        self._lock = threading.Lock()

    def novel(self) -> str:
        with self._lock:
            if self._pool:
                return self._pool.pop()
            index = self._next
            self._next += 1
        return fuzz_texts(self.seed, index, 1)[0]

    def draw(self, rng: random.Random) -> Tuple[str, int]:
        """("hot", rank) or ("novel", -1)."""
        if rng.random() < HOT_SHARE:
            rank = rng.choices(range(len(self.hot)), cum_weights=self.cumulative)[0]
            return "hot", rank
        return "novel", -1


class LoadGenerator:
    """Sends requests and checks every answer."""

    def __init__(self, port: int, traffic: Traffic, digests: Dict[str, str],
                 result: WorkloadResult, tracer=None) -> None:
        self.port = port
        self.traffic = traffic
        self.digests = digests
        self.result = result
        self.tracer = tracer
        self._lock = threading.Lock()

    def client(self):
        from repro.serve import Client

        return Client(port=self.port, timeout=60.0, retries=0)

    def send(self, client, kind: str, rank: int) -> bool:
        from repro.serve import ServiceError

        query = self.traffic.hot[rank] if kind == "hot" else self.traffic.novel()
        try:
            if self.tracer is not None:
                with self.tracer.span(f"op.{kind}"):
                    payload = client.run(query)
            else:
                payload = client.run(query)
        except (ServiceError, OSError) as exc:
            return self._fail(f"{kind} request failed: {exc}")
        if kind == "hot":
            if payload.get("digest") != self.digests.get(query):
                return self._fail(f"digest mismatch for {payload.get('test')}")
        elif payload.get("source") != "computed":
            return self._fail(f"novel request answered from {payload.get('source')}")
        with self._lock:
            self.result.attempted += 1
        return True

    def _fail(self, reason: str) -> bool:
        with self._lock:
            self.result.attempted += 1
            self.result.failed += 1
            if len(self.result.errors) < 10:
                self.result.errors.append(reason)
        return False

    def open_loop(self, rng: random.Random, seconds: float) -> List[List[tuple]]:
        """Poisson arrivals for ``seconds``; returns the answered requests
        as (latency from due, lateness, kind) rows, cut into windows of
        :data:`OPEN_WINDOW` seconds of the schedule."""
        schedule = []
        due = rng.expovariate(RATE)
        while due < seconds:
            schedule.append((due, *self.traffic.draw(rng)))
            due += rng.expovariate(RATE)
        windows: List[List[tuple]] = [[] for _ in range(int(seconds / OPEN_WINDOW) + 1)]
        cursor = iter(schedule)
        lock = threading.Lock()
        origin = time.perf_counter() + 0.05

        def worker():
            client = self.client()
            try:
                while True:
                    with lock:
                        entry = next(cursor, None)
                    if entry is None:
                        return
                    offset, kind, rank = entry
                    due_at = origin + offset
                    wait = due_at - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                    ok = self.send(client, kind, rank)
                    done = time.perf_counter()
                    if ok:
                        with lock:
                            windows[int(offset / OPEN_WINDOW)].append(
                                (done - due_at, sent - due_at, kind))
            finally:
                client.close()

        _join_all(worker)
        return [window for window in windows if window]

    def closed_loop(self, seeds: Sequence[int], seconds: float) -> List[float]:
        """Completions per second in each slice of about
        :data:`CLOSED_SLICE` seconds after the warm-up share; one
        connection per seed."""
        start = time.perf_counter()
        stop = start + seconds
        completions: List[float] = []
        lock = threading.Lock()
        pending = iter(seeds)

        def worker():
            with lock:
                rng = random.Random(next(pending))
            client = self.client()
            try:
                while time.perf_counter() < stop:
                    if self.send(client, *self.traffic.draw(rng)):
                        with lock:
                            completions.append(time.perf_counter())
            finally:
                client.close()

        _join_all(worker)
        first = start + CLOSED_WARMUP * seconds
        per_slice = [0] * max(1, round((stop - first) / CLOSED_SLICE))
        width = (stop - first) / len(per_slice)
        for moment in completions:
            index = int((moment - first) / width)
            if 0 <= index < len(per_slice):
                per_slice[index] += 1
        return [done / width for done in per_slice]


def _join_all(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _preload(port: int, seed: int) -> Tuple[List[str], Dict[str, str]]:
    """Warm the store with the hot set; returns it (suite names and
    litmus texts, seeded-shuffled into Zipf rank order) and the digests
    the texts were first answered with."""
    from repro.litmus import SUITE
    from repro.serve import Client

    texts = fuzz_texts(seed, 0, HOT_FUZZ)
    digests: Dict[str, str] = {}
    with Client(port=port, timeout=60.0, retries=0) as client:
        for text in texts:
            digests[text] = client.run(text)["digest"]
    hot = [test.name for test in SUITE] + texts
    random.Random(seed).shuffle(hot)
    return hot, digests


def run(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    from repro.serve import Client

    result = WorkloadResult()
    open_seconds = OPEN_SHARE * seconds
    closed_seconds = seconds - open_seconds
    setup: List[float] = []
    with scratch("serve-") as tmp:
        daemon = None
        handle = None
        try:
            if tracer is None:
                for boot in range(BOOTS):
                    if daemon is not None:
                        daemon.stop()
                    daemon = Daemon(tmp / f"boot{boot}")
                    started = time.perf_counter()
                    port = daemon.start()
                    with Client(port=port, timeout=60.0, retries=0) as client:
                        client.warm()
                    setup.append(time.perf_counter() - started)
            else:
                from repro.serve import ServeConfig, start_in_thread

                handle = start_in_thread(ServeConfig(
                    port=0, jobs=1, cache_dir=str(tmp / "cache"),
                ))
                port = handle.port
                with Client(port=port, timeout=60.0, retries=0) as client:
                    client.warm()
            hot, digests = _preload(port, seed)
            digests.update(_expected_digests())
            novel = int((RATE * open_seconds + NOVEL_RATE_HINT * closed_seconds)
                        * (1 - HOT_SHARE))
            traffic = Traffic(seed, hot, novel)
            load = LoadGenerator(port, traffic, digests, result, tracer)
            schedule_rng = random.Random(seed)
            windows: List[List[tuple]] = []
            throughput: List[float] = []
            for cycle in range(CYCLES):
                windows += load.open_loop(schedule_rng, open_seconds / CYCLES)
                throughput += load.closed_loop(
                    [seed * 1009 + CONNECTIONS * cycle + c for c in range(CONNECTIONS)],
                    closed_seconds / CYCLES)
            with Client(port=port, timeout=60.0, retries=0) as client:
                stats = client.stats()
        finally:
            if daemon is not None:
                daemon.stop()
            if handle is not None:
                handle.stop()
    result.check(stats["service"]["errors"] == 0,
                 f"service counted {stats['service']['errors']} errors")
    if tracer is not None:
        _put_counters(result, stats)
        return result
    # open-loop windows are ranked by their hot requests' median
    # latency: hot requests are uniform work
    kept = fastest(
        [w for w in windows if any(r[2] == "hot" for r in w)],
        key=lambda w: statistics.median([r[0] for r in w if r[2] == "hot"]),
        share=MIXED_WORK_SHARE,
    )
    latencies = [1000 * r[0] for w in kept for r in w]
    novel = [1000 * r[0] for w in kept for r in w if r[2] == "novel"]
    late = [1000 * r[1] for w in windows for r in w]
    slices = fastest(throughput, key=lambda rate: -rate)
    result.put("setup_s", statistics.median(setup), "s", len(setup))
    result.put("ops_per_s", statistics.fmean(slices), "1/s", len(slices))
    result.put("p50_ms", statistics.median(latencies), "ms", len(latencies))
    result.put("cold_ms", statistics.median(novel), "ms", len(novel))
    result.notes.append(
        f"{NAME} open loop {len(late)} requests at {RATE:.0f}/s, "
        f"{len(kept)} of {len(windows)} windows kept ({len(novel)} novel), "
        f"p90 {percentile(latencies, 90):.2f} ms, "
        f"p99 {percentile(latencies, 99):.2f} ms, "
        f"generator late p99 {percentile(late, 99):.2f} ms; closed loop "
        f"{len(slices)} of {len(throughput)} slices kept"
    )
    return result


def _put_counters(result: WorkloadResult, stats: Dict) -> None:
    """The service's own counters, as ``/v1/stats`` reports them."""
    store = stats["store"]
    lookups = store["mem_hits"] + store["disk_hits"] + store["misses"]
    for name in ("mem_hits", "misses", "stores", "evictions"):
        result.put(f"serve.store.{name}", store[name], "count", 1)
    result.put("serve.store.hit_ratio",
               store["mem_hits"] / lookups if lookups else 0.0, "ratio", lookups)
    for name in ("leaders", "followers"):
        result.put(f"serve.coalesce.{name}", stats["coalesce"][name], "count", 1)
    result.put("serve.service.computations", stats["service"]["computations"],
               "count", 1)
