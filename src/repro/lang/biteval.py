"""Bitset evaluation environments, and the one representation switch.

:class:`BitEnv` is an :class:`~repro.lang.eval.Env` whose values live in
dense bitsets (:mod:`repro.relation.bitrel`) instead of frozenset-backed
:class:`~repro.relation.Relation` objects.  The interpreter
(:func:`~repro.lang.eval.eval_expr` / :func:`~repro.lang.eval.eval_formula`)
is unchanged — only the value factory methods differ — so both
representations evaluate the very same spec ASTs and, by the property
tests, agree on every operator.

No search interprets candidates over a :class:`BitEnv`: the compiled
kernel (:mod:`repro.lang.compile`) folds its constants in one, and the
symbolic-enum decoder and the reference checkers evaluate in one.
:func:`relation_env` is the one place a model or engine picks between the
two representations; the converters are lossless, so verdicts are
identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..relation import BitRel, BitSet, Relation, Universe
from .eval import Env


@dataclass
class BitEnv(Env):
    """An evaluation environment over dense bitsets.

    ``universe`` holds the full :class:`BitSet` (what the ``univ`` AST
    node evaluates to); ``space`` is the shared frozen atom universe all
    kernel values index into.
    """

    space: Optional[Universe] = None

    def _derive(self, bindings, cache) -> "BitEnv":
        return BitEnv(
            universe=self.universe, bindings=bindings, cache=cache,
            stats=self.stats, space=self.space,
        )

    def atoms(self) -> list:
        return list(self.space.atoms)

    # -- kernel factory methods ---------------------------------------
    def iden_value(self) -> BitRel:
        return BitRel.identity(self.space)

    def empty_value(self, arity: Optional[int]):
        if arity == 1:
            return BitSet(self.space)
        return BitRel(self.space)

    def bracket_value(self, inner: BitSet) -> BitRel:
        return inner.diag()

    def make_relation(self, pairs: Iterable[tuple]) -> BitRel:
        return BitRel.from_pairs(self.space, pairs)

    def make_set(self, atoms: Iterable) -> BitSet:
        return BitSet.from_atoms(self.space, atoms)

    def to_kernel(self, rel, arity: int = 2):
        if isinstance(rel, (BitRel, BitSet)):
            return rel
        if arity == 1:
            return BitSet.from_relation(self.space, rel)
        return BitRel.from_relation(self.space, rel)


def relation_env(
    atoms: Iterable,
    bindings: Dict[str, Relation],
    sets: Iterable[str] = (),
    bitset: bool = False,
) -> Env:
    """An evaluation environment over ``atoms`` from ``Relation`` bindings.

    ``bitset=False`` keeps the frozenset values of the ``set`` reference
    kernel.  ``bitset=True`` converts them to a :class:`BitEnv`: ``sets``
    names the bindings represented as :class:`BitSet` (arity 1), and
    everything else becomes a :class:`BitRel`.
    """
    if not bitset:
        return Env(universe=Relation.set_of(atoms), bindings=dict(bindings))
    space = Universe(atoms)
    env = BitEnv(universe=BitSet(space, space.full), bindings={}, space=space)
    set_names = frozenset(sets)
    for name, rel in bindings.items():
        arity = 1 if name in set_names or rel.arity == 1 else 2
        env.bindings[name] = env.to_kernel(rel, arity=arity)
    return env
