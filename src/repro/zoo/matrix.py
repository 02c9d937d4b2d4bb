"""The N×N cross-model conformance matrix.

Every registered zoo model runs the full litmus corpus (the hand-written
suite plus the length-4 generated corpus); each ordered model pair is
then classified by comparing *concrete observations* test by test:

* ``equivalent`` — identical observations on every corpus test;
* ``stronger`` — the row model's observations are contained in the
  column model's on every test, strictly on at least one (the row
  allows less: it sits below the column in the weakness order);
* ``weaker`` — the mirror image;
* ``incomparable`` — each side allows an observation the other forbids.

Strict-containment and incomparability cells carry **witness tests**:
the first corpus test (in corpus order) exhibiting an observation one
side allows and the other does not, so every off-diagonal verdict in the
table is backed by a concrete litmus test.

Determinism: the corpus order is fixed, model names are sorted, cells
are emitted in sorted ``(left, right)`` order, and witnesses are
first-in-corpus-order — two runs of ``ptxmm matrix`` produce
byte-identical JSON (the CI golden relies on this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..litmus.config import RunConfig
from ..litmus.test import LitmusTest
from .engine import concrete_observations
from .models import resolve_zoo, zoo_names

#: bumped when the matrix JSON layout changes incompatibly
MATRIX_SCHEMA = 1

_RELATIONS = ("equivalent", "stronger", "weaker", "incomparable")

_SYMBOLS = {
    "equivalent": "≡",
    "stronger": "⊏",
    "weaker": "⊐",
    "incomparable": "≠≠",
}


class MatrixError(RuntimeError):
    """A matrix build failed (a corpus run did not complete cleanly)."""


@dataclass(frozen=True)
class MatrixCell:
    """One ordered model pair's verdict, with witnesses.

    ``witness_left_only`` names the first corpus test on which ``left``
    allows an observation ``right`` forbids (present for ``weaker`` and
    ``incomparable``); ``witness_right_only`` is the mirror (present for
    ``stronger`` and ``incomparable``).
    """

    left: str
    right: str
    relation: str
    witness_left_only: Optional[str] = None
    witness_right_only: Optional[str] = None

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown cell relation {self.relation!r}")

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "left": self.left,
            "right": self.right,
            "relation": self.relation,
        }
        if self.witness_left_only is not None:
            payload["witness_left_only"] = self.witness_left_only
        if self.witness_right_only is not None:
            payload["witness_right_only"] = self.witness_right_only
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MatrixCell":
        return cls(
            left=payload["left"],
            right=payload["right"],
            relation=payload["relation"],
            witness_left_only=payload.get("witness_left_only"),
            witness_right_only=payload.get("witness_right_only"),
        )


@dataclass(frozen=True)
class ModelMatrix:
    """The full conformance matrix over one corpus."""

    models: Tuple[str, ...]
    tests: Tuple[str, ...]
    cells: Tuple[MatrixCell, ...]

    def cell(self, left: str, right: str) -> MatrixCell:
        for cell in self.cells:
            if cell.left == left and cell.right == right:
                return cell
        raise KeyError((left, right))

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MATRIX_SCHEMA,
            "models": list(self.models),
            "tests": list(self.tests),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ModelMatrix":
        schema = payload.get("schema")
        if schema != MATRIX_SCHEMA:
            raise MatrixError(
                f"matrix schema {schema!r} is not the supported "
                f"{MATRIX_SCHEMA}"
            )
        return cls(
            models=tuple(payload["models"]),
            tests=tuple(payload["tests"]),
            cells=tuple(
                MatrixCell.from_dict(cell) for cell in payload["cells"]
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelMatrix":
        return cls.from_dict(json.loads(text))

    def diff(self, other: "ModelMatrix") -> List[str]:
        """Human-readable cell flips between two matrices (``--check``).

        Reports model-set changes and relation flips; witness drift on an
        unchanged relation is reported too (it signals a corpus or
        enumeration-order change the golden should track).
        """
        problems: List[str] = []
        if self.models != other.models:
            problems.append(
                f"model set changed: {list(other.models)} -> "
                f"{list(self.models)}"
            )
            return problems
        theirs = {(c.left, c.right): c for c in other.cells}
        for cell in self.cells:
            old = theirs.get((cell.left, cell.right))
            if old is None:
                problems.append(f"new cell {cell.left} × {cell.right}")
            elif cell.relation != old.relation:
                problems.append(
                    f"{cell.left} × {cell.right}: {old.relation} -> "
                    f"{cell.relation}"
                )
            elif cell != old:
                problems.append(
                    f"{cell.left} × {cell.right}: witness changed "
                    f"({old.witness_left_only!r}/{old.witness_right_only!r} "
                    f"-> {cell.witness_left_only!r}/"
                    f"{cell.witness_right_only!r})"
                )
        return problems

    def format_table(self) -> str:
        """The matrix as a text table (row relation vs. column model).

        ``⊏`` means the row model is strictly stronger (its behaviours
        are a strict subset of the column's), ``⊐`` strictly weaker,
        ``≡`` equivalent, ``≠≠`` incomparable.
        """
        header = [""] + list(self.models)
        rows = [header]
        for left in self.models:
            row = [left]
            for right in self.models:
                if left == right:
                    row.append("·")
                else:
                    row.append(_SYMBOLS[self.cell(left, right).relation])
            rows.append(row)
        widths = [
            max(len(row[col]) for row in rows)
            for col in range(len(header))
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(
                    text.ljust(width) for text, width in zip(row, widths)
                ).rstrip()
            )
            if index == 0:
                lines.append(
                    "  ".join("-" * width for width in widths)
                )
        return "\n".join(lines)

    def format_witnesses(self) -> str:
        """One line per strict/incomparable cell, naming its witnesses."""
        lines = []
        for cell in self.cells:
            if cell.relation == "stronger":
                lines.append(
                    f"{cell.left} ⊏ {cell.right}: "
                    f"{cell.right} additionally allows "
                    f"{cell.witness_right_only}"
                )
            elif cell.relation == "incomparable":
                lines.append(
                    f"{cell.left} ≠≠ {cell.right}: "
                    f"{cell.left} alone allows {cell.witness_left_only}; "
                    f"{cell.right} alone allows {cell.witness_right_only}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------

def matrix_corpus(fast: bool = False) -> Tuple[Tuple[str, LitmusTest], ...]:
    """The ``(name, test)`` corpus the matrix runs: the hand-written
    suite, plus (unless ``fast``) the length-4 generated corpus."""
    from ..litmus.corpus import corpus_length4
    from ..litmus.suite import SUITE

    entries: List[Tuple[str, LitmusTest]] = [
        (test.name, test) for test in SUITE
    ]
    if not fast:
        entries.extend(
            (f"{name}@{variant}", generated.test)
            for name, variant, generated in corpus_length4()
        )
    return tuple(entries)


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------

Observation = Tuple[tuple, tuple]
ObservationTable = Dict[Tuple[str, str], FrozenSet[Observation]]


def observation_table(
    models: Sequence[str],
    corpus: Sequence[Tuple[str, LitmusTest]],
    session=None,
    timeout: Optional[float] = None,
) -> ObservationTable:
    """Concrete observations for every ``(model, test)`` pair.

    All model×test tasks go through one batched ``run_tasks`` call of
    ``session`` (worker-pool parallelism plus result caching) or,
    without one, of an in-process session.  The decision path is the
    standard runner (per-model option filtering included), so the
    matrix sees exactly the outcomes ``ptxmm run`` would report.
    """
    from ..litmus.session import batch_session

    configs = {
        model: RunConfig(model=model, engine="enumerative", timeout=timeout)
        for model in models
    }
    keys = [
        (model, name) for model in models for name, _ in corpus
    ]
    tasks = [
        (test, configs[model])
        for model in models
        for _, test in corpus
    ]
    with batch_session(session) as runner:
        results = runner.run_tasks(tasks)
    table: ObservationTable = {}
    for (model, name), result in zip(keys, results):
        if result.status != "ok":
            raise MatrixError(
                f"{name} under {model} did not complete: "
                f"{result.status} ({result.detail or 'no detail'})"
            )
        table[(model, name)] = concrete_observations(result.outcomes)
    return table


def assemble_matrix(
    models: Sequence[str],
    corpus_names: Sequence[str],
    table: Mapping[Tuple[str, str], FrozenSet[Observation]],
) -> ModelMatrix:
    """Classify every ordered model pair from an observation table."""
    models = tuple(sorted(models))
    cells = []
    for left in models:
        for right in models:
            if left == right:
                continue
            left_only = None
            right_only = None
            for name in corpus_names:
                left_obs = table[(left, name)]
                right_obs = table[(right, name)]
                if left_only is None and left_obs - right_obs:
                    left_only = name
                if right_only is None and right_obs - left_obs:
                    right_only = name
                if left_only and right_only:
                    break
            if left_only is None and right_only is None:
                relation = "equivalent"
            elif left_only is None:
                relation = "stronger"
            elif right_only is None:
                relation = "weaker"
            else:
                relation = "incomparable"
            cells.append(
                MatrixCell(
                    left=left,
                    right=right,
                    relation=relation,
                    witness_left_only=left_only,
                    witness_right_only=right_only,
                )
            )
    cells.sort(key=lambda cell: (cell.left, cell.right))
    return ModelMatrix(
        models=models, tests=tuple(corpus_names), cells=tuple(cells)
    )


def build_matrix(
    models: Optional[Sequence[str]] = None,
    fast: bool = False,
    session=None,
    timeout: Optional[float] = None,
) -> ModelMatrix:
    """Run the corpus through every model and classify all pairs."""
    if models is None:
        models = zoo_names()
    else:
        for name in models:
            resolve_zoo(name)
        models = tuple(sorted(set(models)))
    corpus = matrix_corpus(fast=fast)
    table = observation_table(
        models, corpus, session=session, timeout=timeout
    )
    return assemble_matrix(models, [name for name, _ in corpus], table)


def verify_claims(matrix: ModelMatrix) -> List[str]:
    """Check every declared containment claim against a built matrix.

    Returns human-readable violations (empty = all claims hold).  A
    claim ``A ⊑ B`` is confirmed by a ``stronger`` or ``equivalent``
    cell; a ``weaker`` or ``incomparable`` cell refutes it and the
    witness test names the refuting behaviour.
    """
    from .models import containment_claims

    problems = []
    present = set(matrix.models)
    for claim in containment_claims():
        if claim.stronger not in present or claim.weaker not in present:
            continue
        cell = matrix.cell(claim.stronger, claim.weaker)
        if cell.relation not in ("stronger", "equivalent"):
            problems.append(
                f"declared {claim.stronger} ⊑ {claim.weaker} refuted: "
                f"cell is {cell.relation} (witness: "
                f"{cell.witness_left_only})"
            )
    return problems
