"""Candidate executions: events plus named base relations.

An axiomatic memory model judges *candidate executions* (paper §2.2): a set
of events together with base relations (``po``, ``rf``, ``co``, ``sc``,
``rmw``, ``dep``, ...).  The model's derived relations and axioms are then
relational expressions over those names — evaluated via
:mod:`repro.lang.eval`.

:class:`Execution` is deliberately model-agnostic: PTX, scoped RC11, and TSO
all reuse it with their own event types and relation vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..lang import Env
from ..relation import Relation


@dataclass(frozen=True)
class Execution:
    """An immutable candidate execution.

    ``events`` are model-specific event objects (hashable atoms); every
    relation in ``relations`` ranges over those events.
    """

    events: Tuple = ()
    relations: Mapping[str, Relation] = field(default_factory=dict)

    def relation(self, name: str) -> Relation:
        """Fetch a base relation, defaulting to empty."""
        found = self.relations.get(name)
        return Relation.empty(2) if found is None else found

    def with_relations(self, **updates: Relation) -> "Execution":
        """A copy with the given relations added or replaced."""
        merged: Dict[str, Relation] = dict(self.relations)
        merged.update(updates)
        return replace(self, relations=merged)

    def env(self, extra: Mapping[str, Relation] | None = None) -> Env:
        """An evaluation environment over this execution's events."""
        bindings: Dict[str, Relation] = dict(self.relations)
        if extra:
            bindings.update(extra)
        return Env(universe=Relation.set_of(self.events), bindings=bindings)

    def events_of_thread(self, thread) -> Tuple:
        """Events executed by ``thread``, in program order."""
        po = self.relation("po")
        mine = [e for e in self.events if getattr(e, "thread", None) == thread]

        def po_key(event):
            return sum(1 for other in mine if (other, event) in po)

        return tuple(sorted(mine, key=po_key))


def program_order(threads: Sequence[Sequence]) -> Relation:
    """Build ``po`` from per-thread event sequences.

    Program order relates every event to all later events of the same thread
    (the fully unrolled straight-line execution, per §2.2).
    """
    pairs = []
    for events in threads:
        events = list(events)
        for i, a in enumerate(events):
            for b in events[i + 1 :]:
                pairs.append((a, b))
    return Relation(pairs)


def by_location(events: Iterable) -> Dict[str, List]:
    """Events grouped by their (non-None) location, in input order."""
    groups: Dict[str, List] = {}
    for event in events:
        loc = getattr(event, "loc", None)
        if loc is not None:
            groups.setdefault(loc, []).append(event)
    return groups


def same_location(events: Iterable) -> Relation:
    """All pairs of memory events accessing the same (non-None) location."""
    return Relation(
        (a, b)
        for group in by_location(events).values()
        for a in group
        for b in group
        if a != b
    )
