"""In-flight request coalescing: identical queries share one computation.

The verdict of a litmus query is a pure function of its content hash
(the same hash the on-disk cache keys on), so when eight clients ask the
same question while the first computation is still running, seven of
them should *wait for it*, not recompute it.  :class:`Coalescer` keeps a
keyed table of in-flight futures: the first caller for a key becomes the
leader and runs the computation; followers await the leader's future.

Consistency-checking queries are expensive in the worst case (the
NP-hardness results in "How Hard is Weak-Memory Testing?" apply to
exactly this workload), which is why deduplication sits *in front of*
the engines rather than relying on raw engine speed.

The primitive surface (:meth:`~Coalescer.join` / :meth:`~Coalescer.lead`
/ :meth:`~Coalescer.settle`) exists for batched callers: a suite request
joins the flights that already exist and opens one *batch* of flights
for the rest, settling them all from a single pooled computation.
Single-query callers use :meth:`~Coalescer.run`, which composes the
primitives.

Failure semantics: a leader failure propagates to every waiter of that
flight (they asked the identical question, so they get the identical
answer — even when that answer is an exception), but the key is removed
first, so the *next* request retries fresh rather than being pinned to a
poisoned future forever.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Optional

from ..core.counters import Counters


@dataclass
class CoalesceStats(Counters):
    """How many computations the future table saved."""

    leaders: int = 0
    followers: int = 0


class Coalescer:
    """A keyed single-flight table over one asyncio event loop.

    Not thread-safe by design: all calls happen on the service's event
    loop (the blocking compute work is what moves off-loop, via the
    service's executor), and the check-then-open sequence in callers is
    atomic as long as no ``await`` separates it.
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, asyncio.Future] = {}
        self.stats = CoalesceStats()

    def inflight(self) -> int:
        return len(self._inflight)

    def holds(self, key: str) -> bool:
        """True if a flight for ``key`` is already in the air."""
        return key in self._inflight

    # -- primitives (batched callers) ----------------------------------

    def join(self, key: str) -> Optional[asyncio.Future]:
        """The existing flight for ``key``, or None if the caller must lead.

        Await the returned future through :func:`asyncio.shield`: a
        follower dropping its HTTP connection must not cancel the
        computation other waiters (and the store) still want.
        """
        future = self._inflight.get(key)
        if future is None:
            return None
        self.stats.followers += 1
        return future

    def lead(self, key: str) -> asyncio.Future:
        """Open a new flight for ``key`` (caller promises to settle it)."""
        if key in self._inflight:
            raise RuntimeError(f"flight already open for {key}")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.stats.leaders += 1
        return future

    def settle(
        self,
        key: str,
        future: asyncio.Future,
        result=None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Close a flight: remove the key first, then wake the waiters.

        The ordering matters — once settled, a *new* request for the
        same key must start a fresh flight, not latch onto this one.
        """
        self._inflight.pop(key, None)
        if future.done():
            return
        if error is not None:
            future.set_exception(error)
            # mark retrieved: waiters consumed it via shield; nobody
            # should re-raise out of a destroyed future
            future.exception()
        else:
            future.set_result(result)

    # -- composed single-query path ------------------------------------

    async def run(self, key: str, compute: Callable[[], Awaitable]):
        """Return ``compute()``'s result, sharing one flight per key."""
        existing = self.join(key)
        if existing is not None:
            return await asyncio.shield(existing)
        future = self.lead(key)
        try:
            result = await compute()
        except BaseException as exc:
            self.settle(key, future, error=exc)
            raise
        self.settle(key, future, result=result)
        return result
