"""Content-addressed on-disk cache for litmus results.

A suite sweep never has to re-solve a test it has already decided: the
cache key is a stable hash of the *canonicalized* test (program,
condition, expectations), the model and engine, the filtered search
options, and a code-version salt — so any change to the test, the
configuration, or the library itself misses cleanly instead of serving a
stale verdict.

Entries are one JSON file per result under ``<dir>/<k[:2]>/<k>.json``
(two-level fan-out keeps directories small on big sweeps).  Writes go
through a temp file + ``os.replace`` so concurrent CLI invocations never
observe a torn entry; a corrupt or unreadable entry counts as a miss and
is overwritten on the next store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..schema import CACHE_SCHEMA_VERSION, assert_schema
from .serialize import (
    canonical_json,
    result_from_dict,
    result_to_dict,
    test_to_dict,
    FORMAT_VERSION,
)

# CACHE_SCHEMA_VERSION lives in repro.schema (one place, re-exported
# here for compatibility); this module pins the version it was written
# against so a half-applied bump fails at import, not at cache time.
assert_schema("repro.litmus.cache", cache=10)


def code_salt() -> str:
    """The version salt baked into every cache key.

    Monkeypatch this (or bump any component) to invalidate the cache.
    """
    from .. import __version__  # late: the package may still be importing

    return f"{__version__}/s{CACHE_SCHEMA_VERSION}/f{FORMAT_VERSION}"


def default_cache_dir() -> Path:
    """``$PTXMM_CACHE_DIR``, else ``~/.cache/ptxmm``."""
    env = os.environ.get("PTXMM_CACHE_DIR")
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "ptxmm"


def cache_key(
    test,
    model: str,
    engine: str,
    opts: Dict[str, object],
    certify: bool = False,
    *,
    kernel: str,
) -> str:
    """The content address of one (test, model, engine, opts, certify,
    kernel) task.

    ``certify`` is part of the key: a certified sweep must never be served
    a certificate-less cached verdict, and vice versa.  ``kernel`` is part
    of the key for the same defensive reason: the relation kernels agree
    on outcomes by construction, but a representation bug must surface as
    a wrong *fresh* result, never as a silently shared cached one.
    """
    payload = {
        "salt": code_salt(),
        "test": test_to_dict(test),
        "model": model,
        "engine": engine,
        "certify": bool(certify),
        "kernel": kernel,
        "opts": {
            name: list(value) if isinstance(value, (tuple, list)) else value
            for name, value in sorted(opts.items())
        },
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def format(self) -> str:
        return f"hits={self.hits} misses={self.misses} stores={self.stores}"


@dataclass
class ResultCache:
    """A content-addressed store of :class:`LitmusResult` payloads."""

    directory: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.directory = Path(self.directory)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str, test) -> Optional[object]:
        """The cached :class:`LitmusResult` for ``key``, or None.

        ``test`` supplies the (not re-stored) test object the result is
        reattached to.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result = result_from_dict(payload, test=test)
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result) -> None:
        """Store a result (atomically; losers of a race are equivalent)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result_to_dict(result, include_test=False)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def __len__(self) -> int:
        """Number of entries on disk (walks the fan-out dirs)."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.json"))
