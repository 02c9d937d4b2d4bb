"""A herd-style ``cat`` model-definition language.

The paper's ecosystem expresses axiomatic models in herd's ``cat`` DSL
(the diy suite, [2, 9]); its own Figure 13 shows the equivalent Alloy
encoding.  This module parses a practical subset of cat into the shared
relational AST, so a memory model can be *written as text* and then run
through every tool in this repository (concrete checking, bounded model
finding, export):

.. code-block:: text

    "SC" (* model name *)
    let fr = rf^-1 ; co
    let com = rf | co | fr
    acyclic com | po as sc

Supported syntax:

* ``let name = expr`` — define a relation (later definitions may use it;
  the builtins ``iden``/``id``/``emptyset`` cannot be rebound);
* ``acyclic expr as name`` / ``irreflexive expr as name`` /
  ``empty expr as name`` — constraints, each label used once;
* expressions: ``|`` (union), ``&`` (intersection), ``\\`` (difference),
  ``;`` (composition), ``^-1`` (converse), postfix ``+``/``*``/``?``
  (closures), ``[S]`` (bracket/identity-restriction), ``( )``;
* comments ``(* ... *)`` and line comments ``//``; an optional leading
  quoted model name.

Precedence (loosest to tightest): ``|``, ``\\``, ``&``, ``;``, postfix.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang import ast


class CatSyntaxError(ValueError):
    """Malformed cat source.

    Messages locate the failure as ``line L, column C`` (1-based) and
    name the offending token, so a broken ``.cat`` file points at its
    own defect instead of a bare character offset.
    """


def _line_col(source: str, position: int) -> Tuple[int, int]:
    """1-based (line, column) of a character offset in ``source``."""
    line = source.count("\n", 0, position) + 1
    column = position - source.rfind("\n", 0, position)
    return line, column


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\(\*.*?\*\))
  | (?P<line_comment>//[^\n]*)
  | (?P<string>"[^"]*")
  | (?P<converse>\^-1)
  | (?P<name>[A-Za-z_][\w.-]*)
  | (?P<op>[|&\\;+*?()\[\]=])
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = frozenset({"let", "acyclic", "irreflexive", "empty", "as", "and"})

#: names the parser resolves itself; a ``let`` may not rebind them
_BUILTINS = frozenset({"iden", "id", "emptyset"})


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int
    #: 1-based source location (defaults keep hand-built tokens valid)
    line: int = 1
    column: int = 1

    @property
    def location(self) -> str:
        return f"line {self.line}, column {self.column}"


def tokenize(source: str) -> List[Token]:
    """Tokenize cat source, dropping whitespace and comments."""
    tokens: List[Token] = []
    position = 0
    while position < len(source):
        match = _TOKEN.match(source, position)
        if not match:
            line, column = _line_col(source, position)
            raise CatSyntaxError(
                f"unexpected character {source[position]!r} at "
                f"line {line}, column {column}"
            )
        position = match.end()
        if match.lastgroup in ("ws", "comment", "line_comment"):
            continue
        kind = match.lastgroup
        text = match.group()
        if kind == "name" and text in _KEYWORDS:
            kind = "keyword"
        line, column = _line_col(source, match.start())
        tokens.append(
            Token(
                kind=kind,
                text=text,
                position=match.start(),
                line=line,
                column=column,
            )
        )
    return tokens


@dataclass(frozen=True)
class CatModel:
    """A parsed cat model: ordered definitions plus named constraints."""

    name: str
    definitions: Tuple[Tuple[str, ast.Expr], ...]
    constraints: Tuple[Tuple[str, ast.Formula], ...]

    def definition(self, name: str) -> ast.Expr:
        """Look up a ``let`` definition by name."""
        for defined, expr in self.definitions:
            if defined == name:
                return expr
        raise KeyError(name)

    def constraint(self, name: str) -> ast.Formula:
        """Look up a constraint by name."""
        for defined, formula in self.constraints:
            if defined == name:
                return formula
        raise KeyError(name)

    @functools.cached_property
    def free_names(self) -> Tuple[str, ...]:
        """Base relation/set names the model expects the environment to bind.

        Computed once per model: the walk covers the whole AST, and
        engines consult it on every test.
        """
        defined = {name for name, _ in self.definitions}
        seen: Dict[str, None] = {}
        for _, expr in self.definitions:
            for var in ast.free_vars(expr):
                if var.name not in defined:
                    seen.setdefault(var.name, None)
        for _, formula in self.constraints:
            for var in ast.free_vars(formula):
                if var.name not in defined:
                    seen.setdefault(var.name, None)
        return tuple(seen)


class _Parser:
    def __init__(self, tokens: List[Token], set_names: frozenset):
        self.tokens = tokens
        self.index = 0
        self.set_names = set_names
        self.definitions: Dict[str, ast.Expr] = {}

    # -- token helpers ----------------------------------------------------
    def peek(self) -> Optional[Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            if self.tokens:
                last = self.tokens[-1]
                raise CatSyntaxError(
                    f"unexpected end of input after {last.text!r} at "
                    f"{last.location}"
                )
            raise CatSyntaxError("unexpected end of input (empty source)")
        self.index += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            raise CatSyntaxError(
                f"expected {text or kind}, found {token.text!r} at "
                f"{token.location}"
            )
        return token

    # -- expressions -------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self._union()

    def _union(self) -> ast.Expr:
        left = self._difference()
        while self.peek() and self.peek().text == "|":
            self.next()
            left = ast.Union_(left, self._difference())
        return left

    def _difference(self) -> ast.Expr:
        left = self._intersection()
        while self.peek() and self.peek().text == "\\":
            self.next()
            left = ast.Diff(left, self._intersection())
        return left

    def _intersection(self) -> ast.Expr:
        left = self._sequence()
        while self.peek() and self.peek().text == "&":
            self.next()
            left = ast.Inter(left, self._sequence())
        return left

    def _sequence(self) -> ast.Expr:
        left = self._postfix()
        while self.peek() and self.peek().text == ";":
            self.next()
            left = ast.Join(left, self._postfix())
        return left

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            token = self.peek()
            if token is None:
                return expr
            if token.kind == "converse":
                self.next()
                expr = ast.Transpose(expr)
            elif token.text == "+" and token.kind == "op":
                self.next()
                expr = ast.TClosure(expr)
            elif token.text == "*" and token.kind == "op":
                self.next()
                expr = ast.RTClosure(expr)
            elif token.text == "?" and token.kind == "op":
                self.next()
                expr = ast.Optional_(expr)
            else:
                return expr

    def _primary(self) -> ast.Expr:
        token = self.next()
        if token.text == "(":
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if token.text == "[":
            name = self.expect("name")
            self.expect("op", "]")
            inner = self._name_to_expr(name.text, arity=1)
            if inner.arity != 1:
                raise CatSyntaxError(
                    f"[{name.text}] needs a set, but {name.text!r} is a "
                    f"relation, at {name.location}"
                )
            return ast.Bracket(inner)
        if token.kind == "name":
            return self._name_to_expr(token.text, arity=2)
        raise CatSyntaxError(
            f"unexpected token {token.text!r} at {token.location}"
        )

    def _name_to_expr(self, name: str, arity: int) -> ast.Expr:
        if name == "iden" or name == "id":
            return ast.Iden()
        if name == "emptyset" or name == "0":
            return ast.Empty(arity)
        if name in self.definitions:
            return self.definitions[name]
        if arity == 1 or name in self.set_names:
            return ast.Var(name, arity=1)
        return ast.Var(name, arity=2)

    # -- statements ---------------------------------------------------------
    def parse_model(self) -> CatModel:
        name = "anonymous"
        token = self.peek()
        if token is not None and token.kind == "string":
            name = self.next().text.strip('"')
        definitions: List[Tuple[str, ast.Expr]] = []
        constraints: List[Tuple[str, ast.Formula]] = []
        while self.peek() is not None:
            token = self.next()
            if token.kind != "keyword":
                raise CatSyntaxError(
                    f"expected a statement, found {token.text!r} at "
                    f"{token.location}"
                )
            if token.text == "let":
                defined_token = self.expect("name")
                defined = defined_token.text
                if defined in _BUILTINS:
                    raise CatSyntaxError(
                        f"cannot redefine builtin {defined!r} at "
                        f"{defined_token.location}"
                    )
                self.expect("op", "=")
                expr = self.parse_expr()
                self.definitions[defined] = expr
                definitions.append((defined, expr))
            elif token.text in ("acyclic", "irreflexive", "empty"):
                expr = self.parse_expr()
                label = f"{token.text}-{len(constraints)}"
                label_token = token
                nxt = self.peek()
                if nxt is not None and nxt.kind == "keyword" and nxt.text == "as":
                    self.next()
                    label_token = self.expect("name")
                    label = label_token.text
                if any(label == seen for seen, _ in constraints):
                    raise CatSyntaxError(
                        f"duplicate constraint label {label!r} at "
                        f"{label_token.location}"
                    )
                if token.text == "acyclic":
                    formula: ast.Formula = ast.Acyclic(expr)
                elif token.text == "irreflexive":
                    formula = ast.Irreflexive(expr)
                else:
                    formula = ast.NoF(expr)
                constraints.append((label, formula))
            else:
                raise CatSyntaxError(
                    f"unexpected keyword {token.text!r} at {token.location}"
                )
        return CatModel(
            name=name,
            definitions=tuple(definitions),
            constraints=tuple(constraints),
        )


def parse_cat(source: str, set_names=()) -> CatModel:
    """Parse cat source into a :class:`CatModel`.

    ``set_names`` lists identifiers to treat as sets (arity 1) when used
    outside ``[...]`` brackets; bracketed uses are inferred automatically.
    """
    parser = _Parser(tokenize(source), frozenset(set_names))
    return parser.parse_model()
