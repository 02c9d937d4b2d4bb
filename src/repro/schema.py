"""The single source of truth for on-disk / on-wire schema versions.

Two version numbers govern whether stored artifacts are comparable with
freshly computed ones:

* :data:`CACHE_SCHEMA_VERSION` — bumped whenever cached *results* stop
  being comparable with fresh runs (new engines in keys, stats shape
  changes, outcome ordering changes).  It salts every content-addressed
  cache key, so pre-bump entries miss cleanly instead of serving stale
  verdicts.
* :data:`FORMAT_VERSION` — the JSON serialization shape of tests and
  results (:mod:`repro.litmus.serialize`); bumped on incompatible shape
  changes.

History of cache-schema bumps:

* v2 — results carry an optional verdict certificate and the key records
  whether the run certified;
* v3 — outcome registers sort by a natural (thread, name) key and
  results carry enumeration counters;
* v4 — the ``rf-check`` engine joins the runner and enumeration counters
  gain saturation/fallback fields;
* v5 — the serving layer's in-memory LRU tier joins the verdict store
  and results flow over HTTP: cache keys now also guard the wire
  payloads the service replays byte-for-byte;
* v6 — enumeration counters gain per-axiom failure counts
  (``axiom_failed``), the structural coverage signal the fuzzing farm
  steers on; stored stats change shape.
* v7 — the relation kernel (``set``/``bit``/``compiled``) becomes a
  first-class :class:`~repro.litmus.config.RunConfig` field and joins
  every verdict key: kernels agree on outcomes by construction, but a
  kernel-tagged key keeps a representation bug from silently serving one
  kernel's verdict for another's run.
* v8 — verdict digests hash semantic fields only (model, observed flag,
  outcome set, status, certificate polarity/status/digest); search and
  solver counters, timings and details become digest-invisible
  telemetry.
* v9 — the CNF translator folds constants and shares gates, so the same
  problem yields a smaller CNF; certificate digests (which cover the
  DRAT trace or witness over that CNF), and with them certified verdict
  digests, differ from v8 entries while polarity and status agree.
* v10 — the symbolic engines share one translation per (program,
  condition): the condition is a unit clause on its own Tseitin literal
  beside the asserted axioms, not one conjunct of them, so the CNF a
  certified verdict checks, and with it the certificate and verdict
  digests, differ from v9 entries while polarity and status agree.

Every consumer module pins the version it was written against via
:func:`assert_schema` at import time.  A schema bump that edits this
module but misses a consumer fails **at import**, loudly, instead of
half-applying: the stale module would otherwise keep writing entries
under the new salt with the old shape.
"""

from __future__ import annotations

#: Salts every content-addressed verdict key (cache, LRU tier, wire).
CACHE_SCHEMA_VERSION = 10

#: The JSON serialization shape of tests/results.
FORMAT_VERSION = 1


def assert_schema(module: str, cache: int, fmt: int = FORMAT_VERSION) -> None:
    """Pin ``module`` to the schema versions it was written against.

    Called at import time by every module that reads or writes
    schema-versioned payloads.  Raising :class:`ImportError` (not
    ``AssertionError``) means even ``python -O`` cannot skip the check.
    """
    if cache != CACHE_SCHEMA_VERSION:
        raise ImportError(
            f"{module} was written against cache schema v{cache}, but "
            f"repro.schema declares v{CACHE_SCHEMA_VERSION}: a schema bump "
            f"was half-applied — update {module} for the new schema"
        )
    if fmt != FORMAT_VERSION:
        raise ImportError(
            f"{module} was written against serialization format v{fmt}, "
            f"but repro.schema declares v{FORMAT_VERSION}: update {module} "
            f"for the new format"
        )
