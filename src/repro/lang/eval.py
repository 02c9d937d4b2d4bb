"""Concrete evaluation of relational ASTs over finite environments.

An :class:`Env` binds relation-variable names to concrete
:class:`~repro.relation.Relation` values and fixes the universe of atoms.
:func:`eval_expr` / :func:`eval_formula` then interpret ASTs from
:mod:`repro.lang.ast` directly — this is the execution-checking path of the
toolflow (the analog of asking Alloy to evaluate a fixed instance).

Two properties matter for the enumerative engines, which evaluate the same
spec over thousands of (rf, sc, co) witness choices:

* **Kernel polymorphism** — every value construction goes through an
  overridable factory method on :class:`Env`, so
  :class:`~repro.lang.biteval.BitEnv` can run the identical interpreter
  over the dense bitset kernel (:mod:`repro.relation.bitrel`).
* **Dependency-aware memoisation** — the per-environment cache is keyed by
  node *identity* (spec modules share subexpression objects, so identity
  hits exactly where structural equality would, without re-hashing deep
  ASTs), and :meth:`Env.bind` keeps every cached entry whose free
  relation variables don't include the rebound name.  Rebinding ``co``
  therefore preserves ``cause``, ``obs`` and friends for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..relation import Relation
from . import ast


class UnboundRelation(KeyError):
    """A relation variable had no binding in the evaluation environment."""


#: node id -> (node, names of its free relation variables).  Keeping the
#: node reference pins its id for the lifetime of the cache entry.
_DEPS: Dict[int, Tuple[object, FrozenSet[str]]] = {}


def var_deps(node) -> FrozenSet[str]:
    """The free relation-variable names of an expression or formula.

    Memoised by node identity — spec modules build their axiom trees once
    at import time, so the analysis runs once per distinct subtree.
    """
    key = id(node)
    hit = _DEPS.get(key)
    if hit is not None:
        return hit[1]
    names = frozenset(v.name for v in ast.free_vars(node))
    _DEPS[key] = (node, names)
    return names


@dataclass
class Env:
    """A concrete interpretation: universe of atoms + named relations.

    ``cache`` memoises composite-expression values for this binding,
    keyed by expression identity (the value tuple keeps the node alive so
    its id cannot be recycled).  :meth:`bind` returns a fresh environment
    that *retains* every cached entry not depending on the rebound name —
    staleness is impossible because retention is decided by the free-
    variable analysis, and the enumeration loops exploit it by rebinding
    only the innermost witness (``co``) per candidate.

    ``stats``, when set, receives ``hit()``/``miss()`` callbacks from
    :func:`eval_expr` (the engines pass their
    :class:`~repro.search.ptx_search.EnumStats`); binds share the same
    stats object.
    """

    universe: Relation
    bindings: Dict[str, Relation] = field(default_factory=dict)
    cache: Dict[int, Tuple[object, Relation]] = field(default_factory=dict)
    stats: Optional[object] = None

    @classmethod
    def over(cls, atoms: Iterable, **bindings: Relation) -> "Env":
        """Build an environment over the given atoms."""
        return cls(universe=Relation.set_of(atoms), bindings=dict(bindings))

    def bind(self, name: str, value) -> "Env":
        """Return a copy with one extra/overridden binding.

        Cached values whose expressions don't mention ``name`` carry over.
        """
        new = dict(self.bindings)
        new[name] = value
        cache = {
            key: entry
            for key, entry in self.cache.items()
            if name not in var_deps(entry[0])
        }
        return self._derive(new, cache)

    def _derive(self, bindings: Dict[str, Relation], cache) -> "Env":
        """Construct the post-``bind`` environment (kernel subclass hook)."""
        return Env(
            universe=self.universe, bindings=bindings, cache=cache,
            stats=self.stats,
        )

    def lookup(self, name: str):
        """Fetch a binding, raising :class:`UnboundRelation` if missing."""
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundRelation(name) from None

    def atoms(self) -> list:
        """The universe as a list of atoms."""
        return [t[0] for t in self.universe.tuples]

    # -- kernel factory methods ---------------------------------------
    # The interpreter constructs values only through these, so a subclass
    # can swap in a different relation representation wholesale.

    def iden_value(self):
        """The identity relation over the universe."""
        return Relation.identity(self.atoms())

    def empty_value(self, arity: Optional[int]):
        """The empty relation of the given arity."""
        return Relation.empty(arity)

    def bracket_value(self, inner):
        """The ``[s]`` bracket: identity restricted to a set value."""
        return Relation((t[0], t[0]) for t in inner)

    def make_relation(self, pairs: Iterable[tuple]):
        """A kernel-native binary relation from explicit pairs."""
        return Relation(pairs, arity=2)

    def make_set(self, atoms: Iterable):
        """A kernel-native set from explicit atoms."""
        return Relation.set_of(atoms)

    def to_kernel(self, rel: Relation, arity: int = 2):
        """Convert a plain :class:`Relation` to this kernel's representation."""
        return rel

    # -- evaluation entry points --------------------------------------
    # The enumeration engines go through these instead of calling
    # eval_formula/eval_expr/warm_independent directly, so a compiled
    # environment (repro.lang.compile) can dispatch to its generated
    # functions while interpreted environments keep the interpreter.

    def formula(self, node) -> bool:
        """Evaluate a formula in this environment."""
        return eval_formula(node, self)

    def expr(self, node):
        """Evaluate an expression in this environment."""
        return eval_expr(node, self)

    def warm(self, node, names: FrozenSet[str]) -> None:
        """Pre-evaluate the ``names``-independent parts of ``node``."""
        warm_independent(node, self, names)


def eval_expr(expr: ast.Expr, env: Env):
    """Evaluate an expression to a concrete relation (memoised per Env)."""
    if type(expr) is ast.Var:
        value = env.lookup(expr.name)
        if value.arity is not None and value.arity != expr.arity:
            raise ValueError(
                f"binding for {expr.name!r} has arity {value.arity}, "
                f"expected {expr.arity}"
            )
        return value
    cached = env.cache.get(id(expr))
    if cached is not None:
        if env.stats is not None:
            env.stats.hit()
        return cached[1]
    if env.stats is not None:
        env.stats.miss()
    result = _eval_composite(expr, env)
    env.cache[id(expr)] = (expr, result)
    return result


#: (id(node), names) -> (node, maximal independent subexpressions).  The
#: node reference pins the id, like ``_DEPS``; the subtree structure is
#: immutable, so the root list is computed once per (axiom, names) pair
#: rather than re-walking the AST on every warm call (a measured hotspot
#: in the enumeration loop).
_WARM_ROOTS: Dict[Tuple[int, FrozenSet[str]], Tuple[object, Tuple[ast.Expr, ...]]] = {}


def _independent_roots(
    node, names: FrozenSet[str], out: List[ast.Expr]
) -> None:
    if isinstance(node, ast.Expr) and not isinstance(node, ast.Var):
        if not (var_deps(node) & names):
            out.append(node)
            return
    for attr in ("left", "right", "inner", "expr"):
        child = getattr(node, attr, None)
        if isinstance(child, (ast.Expr, ast.Formula)):
            _independent_roots(child, names, out)


def warm_independent(node, env: Env, names: FrozenSet[str]) -> None:
    """Pre-evaluate every maximal subexpression of ``node`` that does not
    depend on any relation variable in ``names``.

    The staged enumeration calls this on the co-dependent axioms before
    entering the co loop: the co-independent parts (e.g. the causality
    left-hand sides) land in the *outer* cache once, and every subsequent
    ``bind("co", ...)`` inherits them instead of recomputing per
    candidate.
    """
    key = (id(node), names)
    entry = _WARM_ROOTS.get(key)
    if entry is None:
        roots: List[ast.Expr] = []
        _independent_roots(node, names, roots)
        entry = (node, tuple(roots))
        _WARM_ROOTS[key] = entry
    for root in entry[1]:
        eval_expr(root, env)


# Node-type dispatch tables: the evaluator is the enumeration hot path,
# and a dict lookup on the concrete type beats a dozen isinstance checks.
_EXPR_EVAL = {
    ast.Iden: lambda expr, env: env.iden_value(),
    ast.Univ: lambda expr, env: env.universe,
    ast.Empty: lambda expr, env: env.empty_value(expr.arity),
    ast.Union_: lambda expr, env: (
        eval_expr(expr.left, env) | eval_expr(expr.right, env)
    ),
    ast.Inter: lambda expr, env: (
        eval_expr(expr.left, env) & eval_expr(expr.right, env)
    ),
    ast.Diff: lambda expr, env: (
        eval_expr(expr.left, env) - eval_expr(expr.right, env)
    ),
    ast.Join: lambda expr, env: (
        eval_expr(expr.left, env).join(eval_expr(expr.right, env))
    ),
    ast.Product: lambda expr, env: (
        eval_expr(expr.left, env).product(eval_expr(expr.right, env))
    ),
    ast.Transpose: lambda expr, env: eval_expr(expr.inner, env).transpose(),
    ast.TClosure: lambda expr, env: eval_expr(expr.inner, env).closure(),
    ast.RTClosure: lambda expr, env: (
        eval_expr(expr.inner, env).reflexive_transitive_closure(env.atoms())
    ),
    ast.Optional_: lambda expr, env: (
        eval_expr(expr.inner, env).reflexive_closure(env.atoms())
    ),
    ast.Bracket: lambda expr, env: (
        env.bracket_value(eval_expr(expr.inner, env))
    ),
}


def _eval_composite(expr: ast.Expr, env: Env):
    handler = _EXPR_EVAL.get(type(expr))
    if handler is None:
        raise TypeError(f"unknown expression node: {expr!r}")
    return handler(expr, env)


_FORMULA_EVAL = {
    ast.Subset: lambda f, env: (
        eval_expr(f.left, env).issubset(eval_expr(f.right, env))
    ),
    ast.Equal: lambda f, env: (
        eval_expr(f.left, env) == eval_expr(f.right, env)
    ),
    ast.NoF: lambda f, env: eval_expr(f.expr, env).is_empty(),
    ast.SomeF: lambda f, env: not eval_expr(f.expr, env).is_empty(),
    ast.Acyclic: lambda f, env: eval_expr(f.expr, env).is_acyclic(),
    ast.Irreflexive: lambda f, env: eval_expr(f.expr, env).is_irreflexive(),
    ast.And: lambda f, env: (
        eval_formula(f.left, env) and eval_formula(f.right, env)
    ),
    ast.Or: lambda f, env: (
        eval_formula(f.left, env) or eval_formula(f.right, env)
    ),
    ast.Not: lambda f, env: not eval_formula(f.inner, env),
    ast.TrueF: lambda f, env: True,
}


def eval_formula(formula: ast.Formula, env: Env) -> bool:
    """Evaluate a formula to a boolean."""
    handler = _FORMULA_EVAL.get(type(formula))
    if handler is None:
        raise TypeError(f"unknown formula node: {formula!r}")
    return handler(formula, env)
