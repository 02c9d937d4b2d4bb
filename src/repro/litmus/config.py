"""Run configuration for the litmus execution subsystem.

A :class:`RunConfig` bundles every knob the runner, the parallel
:class:`~repro.litmus.session.Session`, and the on-disk result cache
understand — model, engine, search options, per-test timeout, worker
count, cache policy — into one frozen, hashable value.  It replaces the
ad-hoc ``**opts`` threading that used to flow through ``_filter_opts``:
the same object configures a single :func:`~repro.litmus.runner.run_litmus`
call, a whole suite sweep, and a model-comparison search.

The object is immutable so it can be shared between worker processes,
used as (part of) a cache key, and evolved with :meth:`RunConfig.evolve`
without aliasing surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple

from ..registry import (
    DEFAULT_KERNEL,
    engine_names,
    resolve_engine,
    resolve_kernel,
    resolve_model,
)

#: Engine names the runner knows how to drive (re-exported for
#: compatibility; the authoritative table with capability flags is
#: :data:`repro.registry.ENGINES`).
ENGINES: Tuple[str, ...] = engine_names()


def _freeze_value(value):
    """Normalize an option value to an immutable, comparable form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze_value(v) for v in value))
    return value


def freeze_opts(opts: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    """Search options as a sorted tuple of pairs (hashable, deterministic)."""
    return tuple(
        (name, _freeze_value(value)) for name, value in sorted(opts.items())
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines how litmus tests are executed.

    Parameters mirror the execution stack top to bottom:

    * ``model``/``engine``/``search_opts`` pick the decision procedure
      (what used to be ``run_litmus``'s keyword surface);
    * ``timeout`` bounds each test's wall clock (seconds; ``None`` = no
      bound).  A test exceeding it gets a ``TIMEOUT`` verdict instead of
      hanging the sweep;
    * ``jobs`` is the worker-process count (1 = in-process sequential,
      0 = one worker per CPU);
    * ``use_cache``/``cache_dir`` control the content-addressed result
      cache (``cache_dir=None`` with ``use_cache=True`` falls back to
      ``$PTXMM_CACHE_DIR`` or ``~/.cache/ptxmm``);
    * ``max_attempts`` bounds retry-on-worker-death per test;
    * ``certify`` asks for verdict certificates: tests decidable by one
      bounded SAT query are decided through the proof-logging path, the
      resulting DRAT trace or witness is validated by the independent
      checker (:mod:`repro.cert`), and the certificate rides on the
      result.  A verdict whose certificate fails the check is downgraded
      to ERROR; undecidable-by-SAT tests fall back to the enumerative
      engine with a ``skipped`` certificate;
    * ``kernel`` picks the relation kernel the enumerative searches
      run on (``compiled`` by default, or the ``set`` reference; see
      :data:`repro.registry.KERNELS`).  Outcomes are kernel-independent;
      models without a kernel surface ignore the knob.

    ``search_opts`` may be given as a mapping; it is normalized to a
    sorted tuple of pairs so configs hash and compare structurally.
    """

    model: str = "ptx"
    engine: str = "enumerative"
    search_opts: Tuple[Tuple[str, object], ...] = ()
    timeout: Optional[float] = None
    jobs: int = 1
    use_cache: bool = False
    cache_dir: Optional[str] = None
    max_attempts: int = 3
    certify: bool = False
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self):
        if isinstance(self.search_opts, Mapping):
            object.__setattr__(self, "search_opts", freeze_opts(self.search_opts))
        else:
            object.__setattr__(
                self, "search_opts", freeze_opts(dict(self.search_opts))
            )
        # uniform unknown-name errors, one place (repro.registry)
        resolve_model(self.model)
        resolve_engine(self.engine)
        resolve_kernel(self.kernel)
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def opts(self) -> Dict[str, object]:
        """The search options as a plain dict (a fresh copy)."""
        return dict(self.search_opts)

    def evolve(self, **changes) -> "RunConfig":
        """A copy with the given fields replaced (``replace`` analog)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return RunConfig(**current)

    def for_model(self, model: str) -> "RunConfig":
        """The same config pointed at a different model."""
        return self.evolve(model=model)
