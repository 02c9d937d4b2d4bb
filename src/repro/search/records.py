"""Plain data records of the enumerative search: outcomes and counters.

:class:`Outcome` (what one execution leaves in registers and memory),
:class:`EnumStats` (the search's telemetry) and
:func:`register_sort_key` are what the litmus layer stores, compares,
prints and serializes.  They live apart from the engine
(:mod:`repro.search.ptx_search`) and import only the standard library,
so a process that only reads, caches or reports verdicts never loads the
model, the relational language or the compiled kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from ..core.scopes import ThreadId


def _thread_sort_key(thread: ThreadId) -> Tuple[bool, int, int, int]:
    """A total order over thread ids: device threads by coordinates, then
    host threads by index (``gpu``/``cta`` are None for hosts, so the raw
    dataclass order would raise on mixed programs)."""
    return (
        thread.is_host,
        -1 if thread.gpu is None else thread.gpu,
        -1 if thread.cta is None else thread.cta,
        thread.thread,
    )


def register_sort_key(item) -> Tuple[Tuple[bool, int, int, int], str]:
    """Sort key for ``((thread, name), value)`` register items: the natural
    (thread, register-name) order rather than ``repr`` text."""
    (thread, name), _value = item
    return (_thread_sort_key(thread), name)


@dataclass
class EnumStats:
    """Observability counters for one enumerative search.

    ``rf_assignments`` counts reads-from choices visited; ``rf_pruned``
    those discarded by the per-location coherence-conflict pre-check;
    ``pre_co_pruned`` the (rf, sc) prefixes whose co-independent axioms
    already failed (skipping the whole co loop); ``candidates_checked``
    the fully axiom-checked candidates; ``memo_hits``/``memo_misses`` the
    closure-evaluation cache behaviour of the interpreted ``set`` kernel
    (an :class:`~repro.lang.Env` stats sink; the compiled kernel keeps no
    memo counters and leaves them at 0); ``axiom_failed`` how
    often each named axiom rejected a candidate (or, for SC-per-Location,
    doomed an rf assignment in the pre-check) — the coverage signal the
    fuzzing farm steers on.

    Every counter is telemetry: none of them is part of the verdict
    digest (:func:`~repro.litmus.serialize.verdict_payload`).
    """

    rf_assignments: int = 0
    rf_pruned: int = 0
    pre_co_pruned: int = 0
    candidates_checked: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: coherence-edge orientations forced by unit propagation (the
    #: rf-check engine's saturation loop; zero for plain enumeration)
    saturation_steps: int = 0
    #: rf-check requests answered by the enumerative engine instead —
    #: out-of-fragment options or a defensive internal fallback
    fallbacks: int = 0
    #: per-axiom rejection counts (axiom name -> times it failed)
    axiom_failed: Dict[str, int] = field(default_factory=dict)

    def record_axiom_failure(self, name: str, count: int = 1) -> None:
        self.axiom_failed[name] = self.axiom_failed.get(name, 0) + count

    # Env.stats protocol: eval_expr reports cache hits/misses here.
    def hit(self) -> None:
        self.memo_hits += 1

    def miss(self) -> None:
        self.memo_misses += 1

    def __add__(self, other: "EnumStats") -> "EnumStats":
        if not isinstance(other, EnumStats):
            return NotImplemented
        merged = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "axiom_failed":
                combined = dict(mine)
                for name, count in theirs.items():
                    combined[name] = combined.get(name, 0) + count
                merged[f.name] = combined
            else:
                merged[f.name] = mine + theirs
        return EnumStats(**merged)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = (
                dict(sorted(value.items())) if f.name == "axiom_failed"
                else value
            )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EnumStats":
        known = {f.name for f in fields(cls)}
        kwargs: Dict[str, object] = {}
        for key, value in data.items():
            if key not in known:
                continue
            if key == "axiom_failed":
                kwargs[key] = {str(k): int(v) for k, v in dict(value).items()}
            else:
                kwargs[key] = int(value)
        return cls(**kwargs)

    def format(self) -> str:
        text = (
            f"rf={self.rf_assignments} rf-pruned={self.rf_pruned} "
            f"pre-co-pruned={self.pre_co_pruned} "
            f"checked={self.candidates_checked} "
            f"memo-hits={self.memo_hits} memo-misses={self.memo_misses}"
        )
        if self.saturation_steps or self.fallbacks:
            text += (
                f" sat-steps={self.saturation_steps}"
                f" fallbacks={self.fallbacks}"
            )
        if self.axiom_failed:
            failed = " ".join(
                f"{name}={count}"
                for name, count in sorted(self.axiom_failed.items())
            )
            text += f" axiom-failed[{failed}]"
        return text


@dataclass(frozen=True)
class Outcome:
    """The observable result of one execution: final registers and memory.

    ``memory`` maps each location to the set of values of its co-maximal
    writes — a *set* because racy programs can leave several writes
    unordered at the top of the partial coherence order, in which case the
    final value is not guaranteed (§8.8.6).
    """

    registers: Tuple[Tuple[Tuple[ThreadId, str], int], ...]
    memory: Tuple[Tuple[str, FrozenSet[int]], ...]

    def register(self, thread: ThreadId, name: str) -> Optional[int]:
        """Final value of a register, or None if never written."""
        return dict(self.registers).get((thread, name))

    def memory_values(self, loc: str) -> FrozenSet[int]:
        """Possible final values of a location."""
        return dict(self.memory).get(loc, frozenset())

    def __repr__(self) -> str:
        regs = ", ".join(
            f"{thread}:{name}={value}" for (thread, name), value in self.registers
        )
        mem = ", ".join(
            f"[{loc}]={set(values)}" for loc, values in self.memory
        )
        return f"<Outcome {regs} | {mem}>"
