"""Unparsing relational ASTs back to cat text.

Completes the surface-syntax triangle: a model defined as Python ASTs can
be emitted as Alloy (:mod:`repro.lang.export`), as Coq (ditto), or — here —
as a herd-style ``.cat`` file that :func:`repro.cat.parse_cat` reads back.
The round-trip property (unparse → parse → identical semantics) is tested
in ``tests/test_cat_unparse.py``.

Only emptiness/acyclicity/irreflexivity axioms translate directly (cat has
no inclusion constraints); :func:`catmodel_to_cat` rewrites ``a ⊆ b`` as
``empty a \\ b``, which is equivalent.
"""

from __future__ import annotations

from ..lang import ast


def expr_to_cat(expr: ast.Expr) -> str:
    """Render an expression in cat concrete syntax."""
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Iden):
        return "iden"
    if isinstance(expr, ast.Univ):
        raise ValueError("cat has no universe literal; bind a set instead")
    if isinstance(expr, ast.Empty):
        return "emptyset"
    if isinstance(expr, ast.Union_):
        return f"({expr_to_cat(expr.left)} | {expr_to_cat(expr.right)})"
    if isinstance(expr, ast.Inter):
        return f"({expr_to_cat(expr.left)} & {expr_to_cat(expr.right)})"
    if isinstance(expr, ast.Diff):
        return f"({expr_to_cat(expr.left)} \\ {expr_to_cat(expr.right)})"
    if isinstance(expr, ast.Join):
        return f"({expr_to_cat(expr.left)} ; {expr_to_cat(expr.right)})"
    if isinstance(expr, ast.Transpose):
        return f"{expr_to_cat(expr.inner)}^-1"
    if isinstance(expr, ast.TClosure):
        return f"{expr_to_cat(expr.inner)}+"
    if isinstance(expr, ast.RTClosure):
        return f"{expr_to_cat(expr.inner)}*"
    if isinstance(expr, ast.Optional_):
        return f"{expr_to_cat(expr.inner)}?"
    if isinstance(expr, ast.Bracket):
        inner = expr.inner
        if not isinstance(inner, ast.Var):
            raise ValueError("cat brackets only name set variables")
        return f"[{inner.name}]"
    if isinstance(expr, ast.Product):
        raise ValueError("cat has no product operator")
    raise TypeError(f"unknown expression node: {expr!r}")


def _constraint_to_cat(label: str, formula: ast.Formula) -> str:
    """One constraint as a cat line, label preserved verbatim."""
    if isinstance(formula, ast.Acyclic):
        return f"acyclic {expr_to_cat(formula.expr)} as {label}"
    if isinstance(formula, ast.Irreflexive):
        return f"irreflexive {expr_to_cat(formula.expr)} as {label}"
    if isinstance(formula, ast.NoF):
        return f"empty {expr_to_cat(formula.expr)} as {label}"
    if isinstance(formula, ast.Subset):
        # a ⊆ b  ⟺  empty (a \ b)
        difference = ast.Diff(formula.left, formula.right)
        return f"empty {expr_to_cat(difference)} as {label}"
    raise ValueError(
        f"constraint {label!r} has no cat rendering: {formula!r}"
    )


def catmodel_to_cat(model) -> str:
    """Unparse a :class:`~repro.cat.parser.CatModel` to cat source.

    Definition and constraint names are kept verbatim, so
    ``unparse → parse → unparse`` is byte-identical.  Each ``let``
    prints its fully inlined expression (spec ASTs and parsed models
    are both inlined), so it references only base names.
    """
    lines = [f'"{model.name}"', ""]
    for defined, expr in model.definitions:
        lines.append(f"let {defined} = {expr_to_cat(expr)}")
    lines.append("")
    for label, formula in model.constraints:
        lines.append(_constraint_to_cat(label, formula))
    return "\n".join(lines) + "\n"

