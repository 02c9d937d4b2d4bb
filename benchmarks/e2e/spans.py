"""Spans around calls into the package's public functions.

The traced run patches a fixed list of public functions and methods
(:data:`TARGETS`) with timing wrappers; nothing under ``src/`` changes.
A function imported by name into other modules is replaced in every
module that holds it, so calls through any import path are seen.

Each span records its name, start, duration, parent span and op id.
The op id is the id of the outermost span of its context: every span
of one verdict or request shares it.  Parents follow a
``contextvars`` stack, so spans of interleaved asyncio requests nest
correctly; work handed to another thread starts a new op there.  Spans
stay in memory and are written once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

_STACK: contextvars.ContextVar = contextvars.ContextVar("bench_spans", default=())


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    name: str
    tid: int
    start: int
    dur: int


#: (module, class or None, attribute, observe) — the layer boundaries the
#: traced run records; the span name is ``<module minus "repro.">.<attr>``
#: (with the class for methods).  ``observe`` maps a call's return value
#: to a counter name, or None.
TARGETS: Tuple[Tuple[str, Optional[str], str, Optional[Callable]], ...] = (
    ("repro.litmus.parser", None, "parse_litmus", None),
    ("repro.ptx.program", None, "elaborate", None),
    ("repro.ptx.model", None, "build_env", None),
    ("repro.search.ptx_search", None, "allowed_outcomes", None),
    ("repro.search.rf_check", None, "rf_check_outcomes", None),
    ("repro.search.total_search", None, "allowed_outcomes_total", None),
    ("repro.zoo.engine", None, "zoo_outcomes", None),
    ("repro.operational", None, "sc_operational_outcomes", None),
    ("repro.operational", None, "tso_operational_outcomes", None),
    ("repro.kodkod.litmus", None, "symbolic_outcome_allowed", None),
    ("repro.kodkod.litmus", None, "symbolic_outcomes", None),
    ("repro.lang.compile", None, "compiled_model", None),
    ("repro.litmus.runner", None, "decide", None),
    ("repro.litmus.session", "Session", "run_tasks", None),
    ("repro.litmus.serialize", None, "result_to_dict", None),
    ("repro.litmus.serialize", None, "verdict_digest", None),
    ("repro.litmus.cache", None, "cache_key", None),
    ("repro.litmus.cache", "ResultCache", "get",
     lambda result: "litmus.cache.hits" if result is not None
     else "litmus.cache.misses"),
    ("repro.litmus.cache", "ResultCache", "put", None),
    ("repro.serve.protocol", None, "request_key", None),
    ("repro.serve.protocol", None, "parse_test", None),
    ("repro.serve.store", "VerdictStore", "get", None),
    ("repro.serve.store", "VerdictStore", "put", None),
    ("repro.serve.service", "VerdictService", "handle", None),
    ("repro.serve.client", "Client", "run", None),
    ("repro.fuzz.gen", None, "generate_case", None),
    ("repro.fuzz.coverage", None, "case_features", None),
    ("repro.fuzz.coverage", None, "result_features", None),
    ("repro.fuzz.oracle", "Oracle", "evaluate", None),
)


def layer_of(name: str) -> str:
    """The layer (module) a span name belongs to."""
    parts = name.split(".")
    if len(parts) > 2 and parts[-2][:1].isupper():
        return ".".join(parts[:-2])
    return ".".join(parts[:-1]) or name


class Tracer:
    """Collects spans in memory; patches and restores the targets."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _enter(self):
        stack = _STACK.get()
        sid = next(self._ids)
        if stack:
            parent, op = stack[-1][0], stack[-1][1]
        else:
            parent, op = 0, sid
        token = _STACK.set(stack + ((sid, op),))
        return token, sid, parent, op, time.perf_counter_ns()

    def _exit(self, name: str, entry) -> None:
        end = time.perf_counter_ns()
        token, sid, parent, op, start = entry
        _STACK.reset(token)
        self.spans.append(
            Span(sid, parent, op, name, threading.get_ident(), start, end - start)
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block (the harness's op roots)."""
        entry = self._enter()
        try:
            yield
        finally:
            self._exit(name, entry)

    def mark(self) -> int:
        return len(self.spans)

    def since(self, mark: int) -> List[Span]:
        return self.spans[mark:]

    # -- patching ------------------------------------------------------

    def _wrapper(self, original, name: str, observe):
        tracer = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                entry = tracer._enter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._exit(name, entry)
                return result
            return wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entry = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, entry)
            if observe is not None:
                key = observe(result)
                if key is not None:
                    tracer.counts[key] += 1
            return result
        return wrapper

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores them."""
        for module_name, cls_name, attr, observe in TARGETS:
            module = importlib.import_module(module_name)
            prefix = module_name[len("repro."):]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                name = f"{prefix}.{cls_name}.{attr}"
                self._patch(owner, attr, self._wrapper(original, name, observe))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, f"{prefix}.{attr}", observe)
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent:
            children[span.parent] += span.dur
    return {span.id: span.dur - children.get(span.id, 0) for span in spans}


def by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped


def layer_table(spans: List[Span]) -> List[Tuple[str, float, float, int]]:
    """Rows of (layer, self ms, share of traced time, calls), largest first.

    Traced time is the summed self time of every span on every thread,
    so shares add up to 100%.  The ``op`` layer is the harness's own
    part of each op; ``serve.client`` is the time a client waited on
    its connection, which the service's threads overlap.
    """
    own = self_times(spans)
    per_layer: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        layer = layer_of(span.name)
        per_layer[layer][0] += own[span.id]
        per_layer[layer][1] += 1
    total = sum(own_ns for own_ns, _ in per_layer.values()) or 1
    rows = [
        (layer, own_ns / 1e6, own_ns / total, int(calls))
        for layer, (own_ns, calls) in per_layer.items()
    ]
    return sorted(rows, key=lambda row: -row[1])


def format_table(rows) -> List[str]:
    lines = [f"{'layer':<24} {'self_ms':>10} {'share':>7} {'calls':>8}"]
    for layer, ms, share, calls in rows:
        lines.append(f"{layer:<24} {ms:>10.1f} {share:>7.1%} {calls:>8d}")
    return lines


def write_chrome(spans: List[Span], path: Path) -> None:
    """Spans as Chrome trace-event JSON (Perfetto opens it)."""
    origin = min((span.start for span in spans), default=0)
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": (span.start - origin) / 1000.0,
            "dur": span.dur / 1000.0,
            "pid": pid,
            "tid": span.tid,
            "args": {"id": span.id, "parent": span.parent, "op": span.op},
        }
        for span in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
