"""Compiled axiom kernels: per-(model, test) specialized evaluators.

Bitset relations (:mod:`repro.relation.bitrel`) make each relational
operation word-parallel, but interpreting an axiom still walks the cat
AST through :func:`~repro.lang.eval.eval_expr`'s type dispatch,
memo-dict probes, and per-``bind`` cache filtering.  This module keeps
the interpreter off the enumeration hot path: it compiles each model's
axiom ASTs once into plain Python functions specialized to one concrete
test, then reuses the compiled instance across every candidate, every
suite member with the same program, and every farm round.

Three layers:

* **Template** (per model): generated source code keyed by the identity
  of the axiom ASTs and the dynamic-variable staging.  Each composite
  AST node that depends on an enumerated rf/sc/co witness becomes a
  *slot* in a flat list, read through an inline cache probe at each
  reference site.  Static subtrees — everything independent of the
  witnesses — fold to constants closed over the generated functions;
  the generated factory computes them too, as straight-line code over
  the raw static bindings.
* **Instance** (per model × test signature): the template's factory run
  over the concrete execution's bitset environment, cached in an LRU so
  suites and the fuzz farm compile once per distinct program.
* **Frame**: the per-search mutable state — one slot list plus the
  dynamic bindings — with ``bind`` forking for outer stages (rf, sc)
  and mutating in place for the innermost witness (co), mirroring
  :meth:`~repro.lang.eval.Env.bind`'s copy-and-filter cache semantics.

**Identical outcomes are the contract.**  The engines count their
search work (rf assignments, prunes, candidates, axiom failures) outside
the kernel, so those counters agree with the ``set`` reference kernel.
The generated code keeps no memo counters: ``EnumStats.memo_hits`` and
``memo_misses`` are telemetry from the interpreted ``set`` kernel only
and stay zero here.  No counter is part of the verdict digest.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..core.counters import Counters
from ..relation import BitRel, BitSet
from . import ast
from .eval import UnboundRelation, _independent_roots, var_deps

__all__ = [
    "CompileStats",
    "CompiledEnv",
    "CompiledModel",
    "compile_cache_stats",
    "clear_compile_cache",
    "compiled_model",
    "program_signature",
]


# ----------------------------------------------------------------------
# runtime helpers closed over the generated code
#
# Generated code works on *raw* kernel values — an arity-1 set is a
# plain int mask, an arity-2 relation a tuple of per-row successor
# masks — so the hot path never allocates BitSet/BitRel wrappers or
# pays their isinstance/universe checks.  Wrapping happens only at the
# engine boundary (set_binding / lookup / expr).
# ----------------------------------------------------------------------

def _acyclic(rows) -> bool:
    """Acyclicity with early exit: abort the Warshall sweep the moment
    any diagonal bit appears (every intermediate row is a subset of the
    closure, so a diagonal bit already proves a cycle)."""
    rows = list(rows)
    n = len(rows)
    for i in range(n):
        if rows[i] >> i & 1:
            return False
    for k in range(n):
        rk = rows[k]
        if not rk:
            continue
        kbit = 1 << k
        for i in range(n):
            if rows[i] & kbit:
                ri = rows[i] | rk
                if ri >> i & 1:
                    return False
                rows[i] = ri
    return True


def _irr_join(arows, brows) -> bool:
    """``(a ; b)`` irreflexive, without materializing the join."""
    for i, arow in enumerate(arows):
        while arow:
            low = arow & -arow
            arow ^= low
            if brows[low.bit_length() - 1] >> i & 1:
                return False
    return True


def _no_inter(arows, brows) -> bool:
    """``(a & b)`` empty, without materializing the intersection."""
    for ra, rb in zip(arows, brows):
        if ra & rb:
            return False
    return True


def _no_join_inter(arows, brows, crows) -> bool:
    """``((a ; b) & c)`` empty, without materializing the join."""
    for i, crow in enumerate(crows):
        if not crow:
            continue
        arow = arows[i]
        while arow:
            low = arow & -arow
            arow ^= low
            if brows[low.bit_length() - 1] & crow:
                return False
    return True


def _jrr(arows, brows) -> tuple:
    """``a ; b`` for two relations."""
    out = []
    append = out.append
    for row in arows:
        acc = 0
        while row:
            low = row & -row
            acc |= brows[low.bit_length() - 1]
            row ^= low
        append(acc)
    return tuple(out)


def _jrs(arows, bmask) -> int:
    """``a ; s`` — the preimage of set ``s`` under relation ``a``."""
    out = 0
    bit = 1
    for row in arows:
        if row & bmask:
            out |= bit
        bit <<= 1
    return out


def _jsr(amask, brows) -> int:
    """``s ; a`` — the image of set ``s`` under relation ``a``."""
    acc = 0
    while amask:
        low = amask & -amask
        acc |= brows[low.bit_length() - 1]
        amask ^= low
    return acc


def _tc(rows) -> tuple:
    """Transitive closure by Warshall over bitrows."""
    rows = list(rows)
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        if not rk:
            continue
        kbit = 1 << k
        for i in range(n):
            if rows[i] & kbit:
                rows[i] |= rk
    return tuple(rows)


def _opt(rows) -> tuple:
    """Reflexive closure ``r ∪ iden``."""
    return tuple(row | (1 << i) for i, row in enumerate(rows))


def _rtc(rows) -> tuple:
    """Reflexive-transitive closure."""
    return tuple(row | (1 << i) for i, row in enumerate(_tc(rows)))


def _trans(rows) -> tuple:
    """Transpose."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def _diag(mask, n) -> tuple:
    """The ``[s]`` bracket: identity restricted to ``mask``."""
    return tuple((1 << i) if mask >> i & 1 else 0 for i in range(n))


def _prod(amask, bmask, n) -> tuple:
    """Cartesian product of two sets as a relation."""
    return tuple(bmask if amask >> i & 1 else 0 for i in range(n))


def _u2(a, b) -> tuple:
    return tuple(map(int.__or__, a, b))


def _i2(a, b) -> tuple:
    return tuple(map(int.__and__, a, b))


def _d2(a, b) -> tuple:
    return tuple(x & ~y for x, y in zip(a, b))


def _sub2(a, b) -> bool:
    return all(not (x & ~y) for x, y in zip(a, b))


def _irr(rows) -> bool:
    return all(not (row >> i & 1) for i, row in enumerate(rows))


_HELPERS = {
    "acyclic": _acyclic,
    "irr_join": _irr_join,
    "no_inter": _no_inter,
    "no_join_inter": _no_join_inter,
    "jrr": _jrr,
    "jrs": _jrs,
    "jsr": _jsr,
    "tc": _tc,
    "opt": _opt,
    "rtc": _rtc,
    "trans": _trans,
    "diag": _diag,
    "prod": _prod,
    "u2": _u2,
    "i2": _i2,
    "d2": _d2,
    "sub2": _sub2,
    "irr": _irr,
}


# ----------------------------------------------------------------------
# template construction (codegen)
# ----------------------------------------------------------------------

#: fused-check plans: id(inner expr node) -> (kind, the helper's
#: argument expressions in order)
_Fused = Tuple[str, Tuple[ast.Expr, ...]]


class _TemplateBuilder:
    """Walks the axiom/expression ASTs once and emits the module source."""

    def __init__(
        self,
        formulas: Tuple[Tuple[str, ast.Formula], ...],
        exprs: Tuple[ast.Expr, ...],
        dyn_names: Tuple[str, ...],
        warm_names: FrozenSet[str],
    ):
        self.formulas = formulas
        self.exprs = exprs
        self.dyn_names = dyn_names
        self.dyn_index = {name: i for i, name in enumerate(dyn_names)}
        self.dynset = frozenset(dyn_names)
        self.warm_names = warm_names
        # syntactic reference (path) counts decide which nodes are safe
        # to fuse into non-materializing checks
        self.refs: Dict[int, int] = {}
        for _, f in formulas:
            self._count(f)
        for e in exprs:
            self._count(e)
        self.fused: Dict[int, _Fused] = {}
        for _, f in formulas:
            self._plan_fused(f)
        self.slot_of: Dict[int, int] = {}
        self.slot_nodes: List[ast.Expr] = []
        self.const_of: Dict[int, int] = {}
        self.const_nodes: List[ast.Expr] = []
        self.fn_sources: List[str] = []

    # -- analysis ------------------------------------------------------

    def _count(self, node) -> None:
        if isinstance(node, ast.Var):
            return
        if isinstance(node, ast.Expr):
            self.refs[id(node)] = self.refs.get(id(node), 0) + 1
        for attr in ("left", "right", "inner", "expr"):
            child = getattr(node, attr, None)
            if isinstance(child, (ast.Expr, ast.Formula)):
                self._count(child)

    def is_static(self, node) -> bool:
        return not (var_deps(node) & self.dynset)

    def _single(self, node) -> bool:
        return self.refs.get(id(node)) == 1

    def _plan_fused(self, f) -> None:
        t = type(f)
        if t in (ast.And, ast.Or):
            self._plan_fused(f.left)
            self._plan_fused(f.right)
            return
        if t is ast.Not:
            self._plan_fused(f.inner)
            return
        if t is ast.Irreflexive:
            e = f.expr
            if (
                type(e) is ast.Join
                and self._single(e)
                and not self.is_static(e)
                and e.left.arity == 2
                and e.right.arity == 2
            ):
                self.fused[id(e)] = ("irr_join", (e.left, e.right))
            return
        if t is not ast.NoF:
            return
        e = f.expr
        if (
            type(e) is not ast.Inter
            or not self._single(e)
            or self.is_static(e)
            or e.arity != 2
        ):
            return
        for join, other in ((e.left, e.right), (e.right, e.left)):
            if (
                type(join) is ast.Join
                and self._single(join)
                and join.left.arity == 2
                and join.right.arity == 2
            ):
                self.fused[id(e)] = (
                    "no_join_inter", (join.left, join.right, other)
                )
                return
        self.fused[id(e)] = ("no_inter", (e.left, e.right))

    # -- node bookkeeping ----------------------------------------------

    def slot(self, node) -> int:
        key = id(node)
        idx = self.slot_of.get(key)
        if idx is None:
            idx = len(self.slot_nodes)
            self.slot_of[key] = idx
            self.slot_nodes.append(node)
        return idx

    def const(self, node) -> int:
        key = id(node)
        idx = self.const_of.get(key)
        if idx is None:
            idx = len(self.const_nodes)
            self.const_of[key] = idx
            self.const_nodes.append(node)
        return idx

    # -- emission ------------------------------------------------------

    def build(self) -> "_Template":
        f_names = []
        w_names = []
        e_names = []
        for i, (_, formula) in enumerate(self.formulas):
            name = f"f_{i}"
            f_names.append(name)
            self.fn_sources.append(_FnEmitter(self).formula_fn(name, formula))
            wname = f"w_{i}"
            w_names.append(wname)
            roots: List[ast.Expr] = []
            _independent_roots(formula, self.warm_names, roots)
            self.fn_sources.append(
                _FnEmitter(self).warm_fn(wname, tuple(roots))
            )
        for i, expr in enumerate(self.exprs):
            name = f"e_{i}"
            e_names.append(name)
            self.fn_sources.append(_FnEmitter(self).expr_fn(name, expr))

        lines = ["def _make(E, H, N):"]
        for key in (
            "acyclic", "irr_join", "no_inter", "no_join_inter",
            "jrr", "jrs", "jsr", "tc", "opt", "rtc", "trans",
            "diag", "prod", "u2", "i2", "d2", "sub2", "irr",
        ):
            lines.append(f"    _{key} = H[{key!r}]")
        consts = _ConstEmitter(self)
        lines.extend(consts.emit())
        for src in self.fn_sources:
            for line in src.splitlines():
                lines.append("    " + line if line else line)
        pack = ", ".join(f_names) + ("," if len(f_names) == 1 else "")
        lines.append(f"    _formulas = ({pack})" if f_names else "    _formulas = ()")
        pack = ", ".join(w_names) + ("," if len(w_names) == 1 else "")
        lines.append(f"    _warms = ({pack})" if w_names else "    _warms = ()")
        pack = ", ".join(e_names) + ("," if len(e_names) == 1 else "")
        lines.append(f"    _exprs = ({pack})" if e_names else "    _exprs = ()")
        lines.append("    return _formulas, _warms, _exprs")
        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        exec(compile(source, "<ptxmm-compiled-kernel>", "exec"), namespace)
        return _Template(
            factory=namespace["_make"],
            formulas=self.formulas,
            exprs=self.exprs,
            const_nodes=tuple(self.const_nodes),
            static_vars=tuple(consts.static_vars.items()),
            slot_nodes=tuple(self.slot_nodes),
            dyn_names=self.dyn_names,
            warm_names=self.warm_names,
            source=source,
            binding_index=dict(self.dyn_index),
            # per dynamic name, the slots a rebinding must invalidate
            reset_slots={
                name: tuple(
                    i
                    for i, node in enumerate(self.slot_nodes)
                    if name in var_deps(node)
                )
                for name in self.dyn_names
            },
        )


class _FnEmitter:
    """Emits one generated function; carries the per-function site
    counter so repeated references to a node get distinct locals."""

    def __init__(self, builder: _TemplateBuilder):
        self.b = builder
        self.sites = 0

    def _site(self) -> int:
        self.sites += 1
        return self.sites

    def _indent(self, depth: int) -> str:
        return "    " * depth

    def expr(self, node, lines: List[str], depth: int) -> str:
        b = self.b
        if type(node) is ast.Var:
            idx = b.dyn_index.get(node.name)
            if idx is not None:
                return f"B[{idx}]"
        if b.is_static(node):
            return f"C[{b.const(node)}]"
        if id(node) in b.fused:
            return self.fused(node, lines, depth)
        slot = b.slot(node)
        v = f"v{slot}_{self._site()}"
        pad = self._indent(depth)
        lines.append(f"{pad}{v} = S[{slot}]")
        lines.append(f"{pad}if {v} is None:")
        value = self.compute(node, lines, depth + 1)
        inner = self._indent(depth + 1)
        lines.append(f"{inner}{v} = {value}")
        lines.append(f"{inner}S[{slot}] = {v}")
        return v

    def compute(self, node, lines: List[str], depth: int) -> str:
        t = type(node)
        if t in (ast.Union_, ast.Inter, ast.Diff):
            left = self.expr(node.left, lines, depth)
            right = self.expr(node.right, lines, depth)
            if node.arity == 1:
                op = {
                    ast.Union_: f"({left} | {right})",
                    ast.Inter: f"({left} & {right})",
                    ast.Diff: f"({left} & ~{right})",
                }
                return op[t]
            helper = {ast.Union_: "_u2", ast.Inter: "_i2", ast.Diff: "_d2"}[t]
            return f"{helper}({left}, {right})"
        if t is ast.Join:
            left = self.expr(node.left, lines, depth)
            right = self.expr(node.right, lines, depth)
            helper = {
                (2, 2): "_jrr", (2, 1): "_jrs", (1, 2): "_jsr",
            }.get((node.left.arity, node.right.arity))
            if helper is None:
                raise TypeError(f"cannot compile join arities of {node!r}")
            return f"{helper}({left}, {right})"
        if t is ast.Product:
            if node.arity != 2:
                raise TypeError(f"cannot compile product arity of {node!r}")
            left = self.expr(node.left, lines, depth)
            right = self.expr(node.right, lines, depth)
            return f"_prod({left}, {right}, N)"
        if t is ast.Transpose:
            return f"_trans({self.expr(node.inner, lines, depth)})"
        if t is ast.TClosure:
            return f"_tc({self.expr(node.inner, lines, depth)})"
        if t is ast.RTClosure:
            return f"_rtc({self.expr(node.inner, lines, depth)})"
        if t is ast.Optional_:
            return f"_opt({self.expr(node.inner, lines, depth)})"
        if t is ast.Bracket:
            return f"_diag({self.expr(node.inner, lines, depth)}, N)"
        raise TypeError(f"cannot compile expression node: {node!r}")

    def fused(self, node, lines: List[str], depth: int) -> str:
        """A fused boolean check: the node's slot holds the *verdict*
        (it has exactly one reference site, so nothing reads a value)."""
        b = self.b
        kind, children = b.fused[id(node)]
        slot = b.slot(node)
        v = f"v{slot}_{self._site()}"
        pad = self._indent(depth)
        inner = self._indent(depth + 1)
        lines.append(f"{pad}{v} = S[{slot}]")
        lines.append(f"{pad}if {v} is None:")
        args = ", ".join(
            self.expr(child, lines, depth + 1) for child in children
        )
        helper = {
            "irr_join": "_irr_join",
            "no_inter": "_no_inter",
            "no_join_inter": "_no_join_inter",
        }[kind]
        lines.append(f"{inner}{v} = {helper}({args})")
        lines.append(f"{inner}S[{slot}] = {v}")
        return v

    # -- formulas ------------------------------------------------------

    def formula_stmt(
        self, node, lines: List[str], depth: int, target: str
    ) -> None:
        t = type(node)
        pad = self._indent(depth)
        if t is ast.And:
            self.formula_stmt(node.left, lines, depth, target)
            lines.append(f"{pad}if {target}:")
            self.formula_stmt(node.right, lines, depth + 1, target)
            return
        if t is ast.Or:
            self.formula_stmt(node.left, lines, depth, target)
            lines.append(f"{pad}if not {target}:")
            self.formula_stmt(node.right, lines, depth + 1, target)
            return
        if t is ast.Not:
            self.formula_stmt(node.inner, lines, depth, target)
            lines.append(f"{pad}{target} = not {target}")
            return
        if t is ast.TrueF:
            lines.append(f"{pad}{target} = True")
            return
        value = self.comparator(node, lines, depth)
        lines.append(f"{pad}{target} = {value}")

    def comparator(self, node, lines: List[str], depth: int) -> str:
        t = type(node)
        if t is ast.Subset:
            left = self.expr(node.left, lines, depth)
            right = self.expr(node.right, lines, depth)
            if node.left.arity == 1:
                return f"(not ({left} & ~{right}))"
            return f"_sub2({left}, {right})"
        if t is ast.Equal:
            left = self.expr(node.left, lines, depth)
            right = self.expr(node.right, lines, depth)
            return f"({left} == {right})"
        if t is ast.NoF:
            if id(node.expr) in self.b.fused:
                return self.expr(node.expr, lines, depth)
            value = self.expr(node.expr, lines, depth)
            if node.expr.arity == 1:
                return f"(not {value})"
            return f"(not any({value}))"
        if t is ast.SomeF:
            value = self.expr(node.expr, lines, depth)
            if node.expr.arity == 1:
                return f"({value} != 0)"
            return f"any({value})"
        if t is ast.Acyclic:
            return f"_acyclic({self.expr(node.expr, lines, depth)})"
        if t is ast.Irreflexive:
            if id(node.expr) in self.b.fused:
                return self.expr(node.expr, lines, depth)
            return f"_irr({self.expr(node.expr, lines, depth)})"
        raise TypeError(f"cannot compile formula node: {node!r}")

    # -- function shells -----------------------------------------------

    def _shell(self, name: str, body: List[str], result: str) -> str:
        lines = [f"def {name}(S, B):"]
        lines.extend(body)
        lines.append(f"    return {result}")
        return "\n".join(lines)

    def formula_fn(self, name: str, formula) -> str:
        body: List[str] = []
        self.formula_stmt(formula, body, 1, "r")
        return self._shell(name, body, "r")

    def warm_fn(self, name: str, roots: Tuple[ast.Expr, ...]) -> str:
        body: List[str] = []
        for root in roots:
            self.expr(root, body, 1)
        return self._shell(name, body, "None")

    def expr_fn(self, name: str, expr) -> str:
        body: List[str] = []
        value = self.expr(expr, body, 1)
        body.append(f"    r = {value}")
        return self._shell(name, body, "r")


class _ConstEmitter(_FnEmitter):
    """Emits the template constants as straight-line code at the top of
    ``_make``: one local per distinct static expression, computed from
    its children with the helpers the witness-dependent code uses, then
    packed into ``C`` in constant order.  The leaves are the raw static
    bindings ``E`` (in :attr:`static_vars` order) and the universe-sized
    literals (``univ``, ``iden``, ``none``)."""

    def __init__(self, builder: _TemplateBuilder):
        super().__init__(builder)
        #: id(static node) -> the local holding its value
        self.local: Dict[int, str] = {}
        #: generated value expression -> the local holding it
        self.by_value: Dict[str, str] = {}
        #: static variable name -> its arity, in ``E`` order
        self.static_vars: Dict[str, int] = {}
        self.lines: List[str] = []

    def emit(self) -> List[str]:
        values = [
            self.expr(node, self.lines, 1) for node in self.b.const_nodes
        ]
        pack = ", ".join(values) + ("," if len(values) == 1 else "")
        self.lines.append(f"    C = ({pack})")
        return self.lines

    def expr(self, node, lines: List[str], depth: int) -> str:
        name = self.local.get(id(node))
        if name is not None:
            return name
        t = type(node)
        if t is ast.Var:
            if node.name not in self.static_vars:
                self.static_vars[node.name] = node.arity
            value = f"E[{list(self.static_vars).index(node.name)}]"
        elif t is ast.Univ:
            value = "((1 << N) - 1)"
        elif t is ast.Iden:
            value = "tuple(1 << i for i in range(N))"
        elif t is ast.Empty:
            value = "0" if node.arity == 1 else "(0,) * N"
        else:
            value = self.compute(node, lines, depth)
        # structurally equal static nodes (distinct objects) share a local
        name = self.by_value.get(value)
        if name is None:
            name = self.by_value[value] = f"k{len(self.by_value)}"
            lines.append(f"    {name} = {value}")
        self.local[id(node)] = name
        return name


@dataclass(frozen=True)
class _Template:
    """A compiled model shape, independent of any concrete test."""

    factory: Callable
    formulas: Tuple[Tuple[str, ast.Formula], ...]
    exprs: Tuple[ast.Expr, ...]
    const_nodes: Tuple[ast.Expr, ...]
    #: the static variables the constants read, ``(name, arity)`` in the
    #: order the generated ``_make`` takes their raw values
    static_vars: Tuple[Tuple[str, int], ...]
    slot_nodes: Tuple[ast.Expr, ...]
    dyn_names: Tuple[str, ...]
    warm_names: FrozenSet[str]
    source: str
    binding_index: Dict[str, int]
    reset_slots: Dict[str, Tuple[int, ...]]


#: template cache: keyed by AST identity + staging; the stored template
#: holds the node references, pinning their ids.
_TEMPLATES: Dict[tuple, _Template] = {}


def _template_for(
    formulas: Tuple[Tuple[str, ast.Formula], ...],
    exprs: Tuple[ast.Expr, ...],
    dyn_names: Tuple[str, ...],
    warm_names: FrozenSet[str],
) -> _Template:
    key = (
        tuple(id(f) for _, f in formulas),
        tuple(id(e) for e in exprs),
        dyn_names,
        warm_names,
    )
    template = _TEMPLATES.get(key)
    if template is None:
        template = _TemplateBuilder(
            formulas, exprs, dyn_names, warm_names
        ).build()
        _TEMPLATES[key] = template
        COMPILE_STATS.templates += 1
    return template


# ----------------------------------------------------------------------
# instances and frames
# ----------------------------------------------------------------------

def _raw(value):
    """The raw kernel form generated code computes on: row tuples for
    relations, int masks for sets; anything else passes through."""
    if isinstance(value, BitRel):
        return value.rows
    if isinstance(value, BitSet):
        return value.mask
    return value


class Frame:
    """Per-search mutable state: slot values + dynamic bindings."""

    __slots__ = ("slots", "bindings")

    def __init__(self, slots: List, bindings: List):
        self.slots = slots
        self.bindings = bindings

    def fork(self) -> "Frame":
        return Frame(self.slots[:], self.bindings[:])


class CompiledModel:
    """One model compiled against one concrete test's environment."""

    __slots__ = (
        "template", "env", "formulas", "exprs", "warms",
        "binding_index", "reset_slots", "initial_bindings",
        "mutate_names", "nslots",
    )

    def __init__(self, template: _Template, env, mutate_names: FrozenSet[str]):
        self.template = template
        self.env = env
        static = []
        for name, arity in template.static_vars:
            try:
                value = env.bindings[name]
            except KeyError:
                raise UnboundRelation(name) from None
            if value.arity is not None and value.arity != arity:
                raise ValueError(
                    f"binding for {name!r} has arity {value.arity}, "
                    f"expected {arity}"
                )
            static.append(_raw(value))
        # the generated factory folds the template constants over the raw
        # static bindings before closing the checkers over them
        f_fns, w_fns, e_fns = template.factory(
            static, _HELPERS, env.space.n
        )
        self.formulas = {
            id(node): fn
            for (_, node), fn in zip(template.formulas, f_fns)
        }
        self.warms = {
            (id(node), template.warm_names): fn
            for (_, node), fn in zip(template.formulas, w_fns)
        }
        self.exprs = {
            id(node): fn for node, fn in zip(template.exprs, e_fns)
        }
        self.binding_index = template.binding_index
        self.reset_slots = template.reset_slots
        empty = env.empty_value(2)
        self.initial_bindings = tuple(
            _raw(env.bindings.get(name, empty))
            for name in template.dyn_names
        )
        self.mutate_names = frozenset(mutate_names)
        self.nslots = len(template.slot_nodes)

    def new_frame(self) -> Frame:
        return Frame([None] * self.nslots, list(self.initial_bindings))

    def set_binding(self, frame: Frame, name: str, value) -> None:
        idx = self.binding_index.get(name)
        if idx is None:
            raise UnboundRelation(
                f"{name!r} is not a dynamic variable of this compiled model"
            )
        frame.bindings[idx] = _raw(value)
        slots = frame.slots
        for i in self.reset_slots[name]:
            slots[i] = None


class CompiledEnv:
    """The engine-facing environment over a compiled model.

    Presents the same surface as :class:`~repro.lang.eval.Env` (bind /
    lookup / formula / expr / warm / value factories) so the staged
    enumeration loops are kernel-agnostic.  ``bind`` on an outer-stage
    name forks the frame (mirroring the interpreter's cache
    copy-and-filter); on an innermost ``mutate`` name it resets that
    name's slots in place and returns ``self`` — sound because the
    engines warm every co-independent subexpression before the co loop,
    so retained slots are exactly the ones the interpreter's outer cache
    would have supplied.
    """

    __slots__ = ("model", "frame")

    def __init__(self, model: CompiledModel, frame: Optional[Frame] = None):
        self.model = model
        self.frame = frame if frame is not None else model.new_frame()

    def bind(self, name: str, value) -> "CompiledEnv":
        model = self.model
        if name in model.mutate_names:
            model.set_binding(self.frame, name, value)
            return self
        frame = self.frame.fork()
        model.set_binding(frame, name, value)
        return CompiledEnv(model, frame)

    def _wrap(self, raw):
        """Re-wrap a raw in-frame value for the engine boundary."""
        if isinstance(raw, tuple):
            return BitRel._make(self.model.env.space, raw)
        if isinstance(raw, int):
            return BitSet(self.model.env.space, raw)
        return raw

    def lookup(self, name: str):
        idx = self.model.binding_index.get(name)
        if idx is not None:
            return self._wrap(self.frame.bindings[idx])
        try:
            return self.model.env.bindings[name]
        except KeyError:
            raise UnboundRelation(name) from None

    # -- compiled evaluation -------------------------------------------

    def formula(self, node) -> bool:
        frame = self.frame
        return self.model.formulas[id(node)](frame.slots, frame.bindings)

    def expr(self, node):
        frame = self.frame
        return self._wrap(
            self.model.exprs[id(node)](frame.slots, frame.bindings)
        )

    def warm(self, node, names: FrozenSet[str]) -> None:
        frame = self.frame
        self.model.warms[(id(node), names)](frame.slots, frame.bindings)

    # -- value factories (delegated to the instance's bit environment) --

    @property
    def universe(self):
        return self.model.env.universe

    def atoms(self) -> list:
        return self.model.env.atoms()

    def empty_value(self, arity):
        return self.model.env.empty_value(arity)

    def make_relation(self, pairs):
        return self.model.env.make_relation(pairs)

    def make_set(self, atoms):
        return self.model.env.make_set(atoms)

    def to_kernel(self, rel, arity: int = 2):
        return self.model.env.to_kernel(rel, arity)


# ----------------------------------------------------------------------
# instance cache
# ----------------------------------------------------------------------

@dataclass
class CompileStats(Counters):
    """Counters for the template/instance caches (observable in tests)."""

    templates: int = 0
    instances: int = 0
    hits: int = 0


COMPILE_STATS = CompileStats()

_INSTANCES: "OrderedDict[tuple, CompiledModel]" = OrderedDict()
_INSTANCE_CAP = 256


def compiled_model(
    key: tuple,
    formulas: Tuple[Tuple[str, ast.Formula], ...],
    exprs: Tuple[ast.Expr, ...],
    dynamic: Tuple[str, ...],
    mutate: FrozenSet[str],
    warm_names: FrozenSet[str],
    env_factory: Callable[[], object],
) -> CompiledModel:
    """The compiled instance for ``key``, building template + instance
    on first use.

    ``key`` must determine the static environment: the engines use
    ``(model name, program signature)``, so every candidate enumeration
    over the same program — across a suite, the farm, or repeated
    service queries — reuses one compilation.  ``env_factory`` is only
    called on an instance miss.
    """
    inst = _INSTANCES.get(key)
    if inst is not None:
        _INSTANCES.move_to_end(key)
        COMPILE_STATS.hits += 1
        return inst
    template = _template_for(formulas, exprs, tuple(dynamic), warm_names)
    inst = CompiledModel(template, env_factory(), frozenset(mutate))
    COMPILE_STATS.instances += 1
    _INSTANCES[key] = inst
    while len(_INSTANCES) > _INSTANCE_CAP:
        _INSTANCES.popitem(last=False)
    return inst


def compile_cache_stats() -> Dict[str, int]:
    """A snapshot of the compile-cache counters."""
    return COMPILE_STATS.as_dict()


def clear_compile_cache() -> None:
    """Drop compiled instances and templates (test isolation hook)."""
    _INSTANCES.clear()
    _TEMPLATES.clear()
    COMPILE_STATS.__init__()  # every counter back to 0, in place


_SIGNATURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def program_signature(program) -> str:
    """A stable content hash of a litmus program (the instance-cache
    key component shared by ptx_search, rf_check, and the zoo).

    Programs are frozen, so the hash is memoized per object — the
    engines recompute it on every enumeration of the same test."""
    cached = _SIGNATURES.get(program)
    if cached is not None:
        return cached
    from ..litmus.serialize import canonical_json, program_to_dict

    payload = canonical_json(program_to_dict(program))
    signature = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    _SIGNATURES[program] = signature
    return signature
