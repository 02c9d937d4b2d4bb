"""Finite relational algebra: the substrate under every axiomatic model."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".bitrel": ("BitRel", "BitSet", "Universe"),
    ".fixpoint": ("least_fixpoint", "recursive_union"),
    ".incremental": ("IncrementalClosure",),
    ".relation": ("Relation", "acyclic", "iden_over", "irreflexive"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BitRel",
    "BitSet",
    "IncrementalClosure",
    "Relation",
    "Universe",
    "acyclic",
    "iden_over",
    "irreflexive",
    "least_fixpoint",
    "recursive_union",
]
