"""One base for every counters record: serialization and merging by field.

Each ``*Stats`` class of the package (:class:`~repro.sat.records.SolverStats`,
:class:`~repro.search.records.EnumStats`, the session, cache, store,
service and fuzzing counters, ...) is a dataclass deriving from
:class:`Counters`.  A record declares only its fields; this base reads
them once per class and gives every record the same surface:

* :meth:`~Counters.as_dict` — field order, dict fields sorted by key,
  nested records as nested dicts (the JSON form of the cache, the farm
  checkpoints and ``/v1/stats``);
* :meth:`~Counters.from_dict` — its inverse: unknown keys are ignored,
  absent keys keep the field's default, values are coerced to the
  field's type;
* ``+`` (a new record) and ``+=`` (in place, so a record passed in as a
  sink sees the merge): numbers add, flags or, dict fields add per key,
  nested records recurse;
* ``-`` (per-field deltas, e.g. ``after - before`` around one solve) and
  :meth:`~Counters.copy`;
* a default ``name=value`` :meth:`~Counters.format`.

A field's kind is read from its default: ``default_factory=dict`` is a
name -> count map, a :class:`Counters` factory a nested record, and a
plain default's type (``int``, ``float``, ``bool``) the type values are
coerced to.  Stdlib only, so every record module stays import-light.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Dict, Mapping, Tuple, TypeVar

C = TypeVar("C", bound="Counters")

# field kinds
_NUMBER, _FLAG, _MAP, _NESTED = range(4)


class Counters:
    """Mixin for ``@dataclass`` counters records (see the module doc)."""

    @classmethod
    def _counter_fields(cls) -> Tuple[Tuple[str, int, type], ...]:
        """``(name, kind, type)`` per field, read once per class."""
        spec = cls.__dict__.get("_counters_spec")
        if spec is None:
            spec = tuple(_field_spec(f) for f in fields(cls))
            cls._counters_spec = spec
        return spec

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name, kind, _ in self._counter_fields():
            value = getattr(self, name)
            if kind == _MAP:
                value = dict(sorted(value.items()))
            elif kind == _NESTED:
                value = value.as_dict()
            out[name] = value
        return out

    @classmethod
    def from_dict(cls: type, data: Mapping[str, object]) -> C:
        kwargs: Dict[str, object] = {}
        for name, kind, type_ in cls._counter_fields():
            if name not in data:
                continue
            value = data[name]
            if kind == _MAP:
                value = {str(k): int(v) for k, v in dict(value).items()}
            elif kind == _NESTED:
                value = type_.from_dict(value)
            else:
                value = type_(value)
            kwargs[name] = value
        return cls(**kwargs)

    def copy(self: C) -> C:
        """An independent snapshot (dict and nested fields copied too)."""
        kwargs: Dict[str, object] = {}
        for name, kind, _ in self._counter_fields():
            value = getattr(self, name)
            if kind == _MAP:
                value = dict(value)
            elif kind == _NESTED:
                value = value.copy()
            kwargs[name] = value
        return type(self)(**kwargs)

    def __iadd__(self: C, other: C) -> C:
        if type(other) is not type(self):
            return NotImplemented
        for name, kind, _ in self._counter_fields():
            theirs = getattr(other, name)
            if kind == _NUMBER:
                setattr(self, name, getattr(self, name) + theirs)
            elif kind == _FLAG:
                setattr(self, name, getattr(self, name) or theirs)
            elif kind == _MAP:
                mine = getattr(self, name)
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                getattr(self, name).__iadd__(theirs)
        return self

    def __add__(self: C, other: C) -> C:
        if type(other) is not type(self):
            return NotImplemented
        return self.copy().__iadd__(other)

    def __sub__(self: C, other: C) -> C:
        if type(other) is not type(self):
            return NotImplemented
        kwargs: Dict[str, object] = {}
        for name, kind, _ in self._counter_fields():
            mine, theirs = getattr(self, name), getattr(other, name)
            if kind == _NUMBER:
                mine = mine - theirs
            elif kind == _MAP:
                mine = {
                    key: mine.get(key, 0) - theirs.get(key, 0)
                    for key in {**mine, **theirs}
                }
            elif kind == _NESTED:
                mine = mine - theirs
            kwargs[name] = mine
        return type(self)(**kwargs)

    def format(self) -> str:
        """A one-line ``name=value`` rendering, in field order."""
        return " ".join(
            f"{name}={value}" for name, value in self.as_dict().items()
        )


def _field_spec(f) -> Tuple[str, int, type]:
    factory = f.default_factory
    if factory is dict:
        return f.name, _MAP, dict
    if isinstance(factory, type) and issubclass(factory, Counters):
        return f.name, _NESTED, factory
    if f.default is MISSING:
        raise TypeError(f"counter field {f.name!r} needs a default")
    if isinstance(f.default, bool):
        return f.name, _FLAG, bool
    return f.name, _NUMBER, type(f.default)
