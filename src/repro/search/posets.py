"""Enumeration of the runtime-determined partial orders of the PTX model.

PTX departs from CPU models in making both coherence order (``co``, §8.8.6)
and Fence-SC order (``sc``, §8.8.3) *partial* orders "determined at
runtime".  Each is characterised by

* a set of **forced** directed edges (init writes precede everything;
  causality directs write pairs per Axiom 1), and
* a set of **required** unordered pairs that must be related one way or the
  other (morally strong pairs),

with transitivity closing over the choices.  :func:`oriented_orders`
enumerates exactly the strict partial orders arising this way: every
orientation of the required pairs, unioned with the forced edges,
transitively closed, keeping the irreflexive (acyclic) results.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from ..relation import BitRel, IncrementalClosure, Relation


def _undecided_pairs(required_pairs: Iterable[FrozenSet], forced_closed) -> List[Tuple]:
    """The deduplicated, not-yet-forced orientation decisions, in input
    order (shared by both enumerators so they branch identically)."""
    undecided: List[Tuple] = []
    seen = set()
    for pair in required_pairs:
        pair = frozenset(pair)
        if len(pair) != 2 or pair in seen:
            continue
        seen.add(pair)
        a, b = tuple(pair)
        if (a, b) in forced_closed or (b, a) in forced_closed:
            continue
        undecided.append((a, b))
    return undecided


def oriented_orders(
    required_pairs: Iterable[FrozenSet],
    forced,
) -> Iterator:
    """Yield all strict partial orders extending ``forced`` and relating
    every pair in ``required_pairs``.

    ``required_pairs`` is an iterable of 2-element frozensets {a, b}; each
    yields either a→b or b→a.  Pairs already decided by the transitive
    closure of ``forced`` are not branched on.  Results are transitively
    closed and irreflexive; orders that would induce a cycle are skipped.

    ``forced`` may be either relation kernel (:class:`Relation` or
    :class:`~repro.relation.bitrel.BitRel`); the yielded orders share its
    representation (built via ``same_kind``).
    """
    forced_closed = forced.closure()
    if not forced_closed.is_irreflexive():
        return
    undecided = _undecided_pairs(required_pairs, forced_closed)

    for choice in itertools.product((False, True), repeat=len(undecided)):
        extra = [
            (b, a) if flip else (a, b)
            for (a, b), flip in zip(undecided, choice)
        ]
        candidate = (forced | forced.same_kind(extra)).closure()
        if candidate.is_irreflexive():
            yield candidate


def oriented_orders_incremental(
    required_pairs: Iterable[FrozenSet],
    forced: BitRel,
) -> Iterator[BitRel]:
    """:func:`oriented_orders` as a depth-first search over an
    :class:`~repro.relation.IncrementalClosure`.

    Yields the identical sequence of orders (same orientations, same
    order: each pair tries a→b before b→a, last pair varies fastest),
    but maintains the transitive closure incrementally across prefix
    extensions instead of re-running Warshall per leaf, and prunes a
    whole subtree as soon as a prefix edge closes a cycle.  Requires the
    bitset relations (``forced`` must be a :class:`BitRel`); the compiled
    kernel selects this variant.
    """
    forced_closed = forced.closure()
    if not forced_closed.is_irreflexive():
        return
    undecided = _undecided_pairs(required_pairs, forced_closed)
    if not undecided:
        yield forced_closed
        return
    u = forced_closed.u
    index = u.index
    edges = [(index[a], index[b]) for a, b in undecided]
    inc = IncrementalClosure(u.n, forced_closed.rows)
    depth_max = len(edges)

    def descend(depth: int) -> Iterator[BitRel]:
        if depth == depth_max:
            yield BitRel._make(u, tuple(inc.rows))
            return
        i, j = edges[depth]
        for a, b in ((i, j), (j, i)):
            inc.push()
            if inc.add(a, b):
                yield from descend(depth + 1)
            inc.pop()

    yield from descend(0)


def total_orders(atoms: Iterable) -> Iterator[Relation]:
    """Yield every strict total order over ``atoms`` (RC11 ``mo`` needs
    per-location total orders)."""
    atoms = list(atoms)
    for perm in itertools.permutations(atoms):
        yield Relation.total_order(perm)


def total_orders_with_first(first, rest: Iterable) -> Iterator[Relation]:
    """Total orders over ``[first] + rest`` in which ``first`` is minimal
    (used to pin init writes at the bottom of ``mo``)."""
    rest = list(rest)
    for perm in itertools.permutations(rest):
        yield Relation.total_order([first, *perm])


def total_coherence_orders(
    init_events: Iterable, writes_by_loc: Dict[str, Sequence]
) -> Iterator[Relation]:
    """Every coherence witness of a total-co model: per location (in name
    order), a total order of its writes with the init write first, all
    unioned into one relation (TSO/SC ``co``, RC11 ``mo``)."""
    init_of = {init.loc: init for init in init_events}
    per_loc = [
        list(total_orders_with_first(
            init_of[loc], [w for w in writes if w is not init_of[loc]]
        ))
        for loc, writes in sorted(writes_by_loc.items())
    ]
    for combo in itertools.product(*per_loc):
        yield functools.reduce(operator.or_, combo, Relation.empty(2))
