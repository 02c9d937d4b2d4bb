"""Final-state conditions for litmus tests.

A litmus test names an interesting final state — register values and/or
final memory contents — and asks whether any consistent execution produces
it.  Conditions are small boolean ASTs over register and memory atoms, with
a herd-style concrete syntax::

    1:r1=1 & 1:r2=0          # thread 1's r1 is 1 and its r2 is 0
    [x]=2 & ~(0:r1=1 | 0:r2=1)

``N:`` prefixes index the program's thread list.  Memory atoms ``[x]=v`` are
*existential* over the final values a location may settle to: under PTX's
partial coherence order a racy location can have several co-maximal writes,
any of which may be the final value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from ..core.scopes import ThreadId
from ..search.records import Outcome


class Condition:
    """Base class for final-state conditions."""

    def __and__(self, other: "Condition") -> "Condition":
        return AndC(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return OrC(self, other)

    def __invert__(self) -> "Condition":
        return NotC(self)

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        """Whether the outcome satisfies this condition."""
        raise NotImplementedError


@dataclass(frozen=True)
class RegEq(Condition):
    """``thread_index:reg = value``."""

    thread_index: int
    reg: str
    value: int

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        return outcome.register(threads[self.thread_index], self.reg) == self.value

    def __repr__(self) -> str:
        return f"{self.thread_index}:{self.reg}={self.value}"


@dataclass(frozen=True)
class MemEq(Condition):
    """``[loc] = value`` — some co-maximal write left this value."""

    loc: str
    value: int

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        return self.value in outcome.memory_values(self.loc)

    def __repr__(self) -> str:
        return f"[{self.loc}]={self.value}"


@dataclass(frozen=True)
class AndC(Condition):
    """Conjunction."""

    left: Condition
    right: Condition

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        return self.left.holds(outcome, threads) and self.right.holds(outcome, threads)

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class OrC(Condition):
    """Disjunction."""

    left: Condition
    right: Condition

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        return self.left.holds(outcome, threads) or self.right.holds(outcome, threads)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@dataclass(frozen=True)
class NotC(Condition):
    """Negation."""

    inner: Condition

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        return not self.inner.holds(outcome, threads)

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


@dataclass(frozen=True)
class TrueC(Condition):
    """Trivially true (matches every outcome)."""

    def holds(self, outcome: Outcome, threads: Sequence[ThreadId]) -> bool:
        return True

    def __repr__(self) -> str:
        return "true"


class ConditionSyntaxError(ValueError):
    """Raised on malformed condition text."""


_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<and>&)|(?P<or>\|)|(?P<not>~)"
    r"|(?P<reg>(?P<ti>\d+):(?P<rn>[A-Za-z_]\w*)\s*==?\s*(?P<rv>-?\d+))"
    r"|(?P<mem>\[(?P<ml>[A-Za-z_]\w*)\]\s*==?\s*(?P<mv>-?\d+)))"
)


def parse_condition(text: str) -> Condition:
    """Parse the herd-style condition syntax into a :class:`Condition`.

    Grammar (``~`` binds tightest, then ``&``, then ``|``)::

        cond  := term ('|' term)*
        term  := factor ('&' factor)*
        factor:= '~' factor | '(' cond ')' | atom
        atom  := N:reg=val | [loc]=val
    """
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ConditionSyntaxError(f"bad condition near {text[pos:]!r}")
            break
        pos = match.end()
        if match.group("lpar"):
            tokens.append(("(", None))
        elif match.group("rpar"):
            tokens.append((")", None))
        elif match.group("and"):
            tokens.append(("&", None))
        elif match.group("or"):
            tokens.append(("|", None))
        elif match.group("not"):
            tokens.append(("~", None))
        elif match.group("reg"):
            tokens.append(
                ("atom", RegEq(int(match.group("ti")), match.group("rn"), int(match.group("rv"))))
            )
        elif match.group("mem"):
            tokens.append(("atom", MemEq(match.group("ml"), int(match.group("mv")))))

    index = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def parse_or() -> Condition:
        nonlocal index
        left = parse_and()
        while peek() == "|":
            index += 1
            left = OrC(left, parse_and())
        return left

    def parse_and() -> Condition:
        nonlocal index
        left = parse_factor()
        while peek() == "&":
            index += 1
            left = AndC(left, parse_factor())
        return left

    def parse_factor() -> Condition:
        nonlocal index
        kind = peek()
        if kind == "~":
            index += 1
            return NotC(parse_factor())
        if kind == "(":
            index += 1
            inner = parse_or()
            if peek() != ")":
                raise ConditionSyntaxError("unbalanced parentheses")
            index += 1
            return inner
        if kind == "atom":
            atom = tokens[index][1]
            index += 1
            return atom
        raise ConditionSyntaxError(f"unexpected token in {text!r}")

    if not tokens:
        raise ConditionSyntaxError("empty condition")
    result = parse_or()
    if index != len(tokens):
        raise ConditionSyntaxError(f"trailing tokens in {text!r}")
    return result
