"""Litmus test structure and verdicts."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple, Union

from ..ptx.program import Program
from ..search.records import Outcome
from .conditions import Condition, parse_condition


class Expect(enum.Enum):
    """The documented verdict of a test's condition under a model.

    ``TIMEOUT``/``ERROR`` never appear as *documented* expectations;
    they are the verdicts of runs the execution subsystem cut short
    (per-test deadline exceeded, or a worker failure), so sweeps report
    them in the same column instead of raising.
    """

    FORBIDDEN = "forbidden"
    ALLOWED = "allowed"
    TIMEOUT = "timeout"
    ERROR = "error"

    def __repr__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LitmusTest:
    """A named program plus a final-state condition and expected verdicts.

    ``expect`` records the verdict under the reference PTX model;
    ``expect_other`` optionally records verdicts under other models
    (``"tso"``, ``"sc"``) for cross-model comparison.
    """

    name: str
    program: Program
    condition: Condition
    expect: Expect
    description: str = ""
    expect_other: Dict[str, Expect] = field(default_factory=dict)
    figure: Optional[str] = None  # which paper figure this test comes from
    #: extra search options (e.g. speculation_values for thin-air tests)
    search_opts: Dict[str, object] = field(default_factory=dict)

    @property
    def threads(self) -> Tuple:
        """The thread ids of the program, in declaration order."""
        return tuple(t.tid for t in self.program.threads)

    def expected(self, model: str = "ptx") -> Optional[Expect]:
        """The documented verdict under ``model`` (None if unrecorded)."""
        if model == "ptx":
            return self.expect
        return self.expect_other.get(model)

    def condition_observed(self, outcomes: FrozenSet[Outcome]) -> bool:
        """Whether any outcome satisfies the test condition."""
        threads = self.threads
        return any(self.condition.holds(outcome, threads) for outcome in outcomes)

    def to_dict(self) -> Dict:
        """Serialize (see :mod:`repro.litmus.serialize`)."""
        from .serialize import test_to_dict

        return test_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "LitmusTest":
        """Rebuild from :meth:`to_dict` output."""
        from .serialize import test_from_dict

        return test_from_dict(payload)


def make_test(
    name: str,
    program: Program,
    condition: Union[str, Condition],
    expect: Union[str, Expect],
    description: str = "",
    figure: Optional[str] = None,
    search_opts: Optional[Dict[str, object]] = None,
    **expect_other: Union[str, Expect],
) -> LitmusTest:
    """Convenience constructor accepting string conditions and verdicts."""
    if isinstance(condition, str):
        condition = parse_condition(condition)
    if isinstance(expect, str):
        expect = Expect(expect)
    others = {
        model: verdict if isinstance(verdict, Expect) else Expect(verdict)
        for model, verdict in expect_other.items()
    }
    return LitmusTest(
        name=name,
        program=program,
        condition=condition,
        expect=expect,
        description=description,
        expect_other=others,
        figure=figure,
        search_opts=dict(search_opts or {}),
    )
