"""Automatically comparing memory models (after Wickerson et al. [58]).

The paper builds on POPL'17's "Automatically Comparing Memory Consistency
Models": enumerate programs and search for one that two models *disagree*
on.  With the critical-cycle generator in hand this becomes a pipeline:
enumerate closing cycles → synthesise a litmus test per annotation variant
→ classify under both models → report the distinguishing tests.

Classification is the expensive leg, and each (candidate, model) pair is
independent — so the search runs through a
:class:`~repro.litmus.session.Session` (``session=`` / ``ptxmm compare
--jobs N``, or an in-process one by default): candidates are classified
in batches while the distinctions still stream out in deterministic
enumeration order.

Typical findings this surfaces (see ``tests/test_compare_models.py``):

* PTX vs TSO — load buffering (``PodRW Rfe PodRW Rfe``) and IRIW separate
  them: PTX allows, TSO forbids;
* PTX-relaxed vs PTX-release/acquire — MP-shaped cycles separate the
  annotation strengths within one model;
* TSO vs SC — store buffering, and nothing shorter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..core.scopes import Scope
from ..ptx.events import Sem
from .generator import EDGE_NAMES, GeneratedTest, enumerate_cycles, generate
from ..registry import resolve_model
from .session import batch_session
from .test import Expect

#: Annotation variants applied to every generated cycle.
VARIANTS: Dict[str, Dict] = {
    "weak": {"write_sem": Sem.WEAK, "read_sem": Sem.WEAK, "scope": None},
    "relaxed.gpu": {
        "write_sem": Sem.RELAXED, "read_sem": Sem.RELAXED, "scope": Scope.GPU
    },
    "rel_acq.gpu": {
        "write_sem": Sem.RELEASE, "read_sem": Sem.ACQUIRE, "scope": Scope.GPU
    },
    "fence.sc.gpu": {
        "write_sem": Sem.RELAXED, "read_sem": Sem.RELAXED,
        "scope": Scope.GPU, "fence_po": (Sem.SC, Scope.GPU),
    },
}


@dataclass(frozen=True)
class Distinction:
    """A synthesised program two models disagree on."""

    generated: GeneratedTest
    variant: str
    verdicts: Dict[str, Expect]

    @property
    def name(self) -> str:
        return f"{self.generated.test.name}@{self.variant}"

    def __repr__(self) -> str:
        verdicts = ", ".join(
            f"{model}={verdict.value}" for model, verdict in self.verdicts.items()
        )
        return f"<Distinction {self.name}: {verdicts}>"


def compare_on(
    generated: GeneratedTest,
    models: Sequence[str],
    session=None,
) -> Dict[str, Expect]:
    """Classify one generated test under several models."""
    with batch_session(session) as runner:
        results = runner.run_tasks(
            [(generated.test, runner.config.for_model(m)) for m in models]
        )
    return {m: r.verdict for m, r in zip(models, results)}


def _candidates(
    max_length: int,
    variants: Dict[str, Dict],
    vocabulary: Sequence[str],
) -> Iterator[Tuple[GeneratedTest, str]]:
    """All (generated test, variant name) pairs, in deterministic order."""
    for length in range(2, max_length + 1):
        for cycle in enumerate_cycles(length, vocabulary):
            for variant_name, kwargs in variants.items():
                try:
                    yield generate(cycle, **kwargs), variant_name
                except ValueError:
                    continue


def distinguishing_tests(
    model_a: str,
    model_b: str,
    max_length: int = 4,
    variants: Optional[Dict[str, Dict]] = None,
    vocabulary: Sequence[str] = EDGE_NAMES,
    limit: Optional[int] = None,
    session=None,
) -> Iterator[Distinction]:
    """Search cycles of length ≤ ``max_length`` for model-separating tests.

    Both model names must come from :data:`repro.registry.MODELS`.
    Variants that a model cannot express (e.g. scope annotations are
    meaningless to SC — it ignores them) still run; the comparison is
    behavioural.

    Candidates are classified in batches through ``session`` (its worker
    pool and result cache) or, without one, an in-process session; the
    distinctions stream out in enumeration order either way.
    """
    for model in (model_a, model_b):
        resolve_model(model)
    variants = VARIANTS if variants is None else variants
    candidates = _candidates(max_length, variants, vocabulary)
    found = 0
    decided = (Expect.ALLOWED, Expect.FORBIDDEN)
    with batch_session(session) as runner:
        batch_size = max(1, runner.jobs) * 8
        config_a = runner.config.for_model(model_a)
        config_b = runner.config.for_model(model_b)
        while True:
            batch = list(itertools.islice(candidates, batch_size))
            if not batch:
                return
            tasks = []
            for generated, _ in batch:
                tasks.append((generated.test, config_a))
                tasks.append((generated.test, config_b))
            results = runner.run_tasks(tasks)
            for pair_index, (generated, variant_name) in enumerate(batch):
                verdict_a = results[2 * pair_index].verdict
                verdict_b = results[2 * pair_index + 1].verdict
                if verdict_a not in decided or verdict_b not in decided:
                    continue  # timeout/error is not a behavioural distinction
                if verdict_a is not verdict_b:
                    yield Distinction(
                        generated=generated,
                        variant=variant_name,
                        verdicts={model_a: verdict_a, model_b: verdict_b},
                    )
                    found += 1
                    if limit is not None and found >= limit:
                        return


def first_distinction(
    model_a: str, model_b: str, **kw
) -> Optional[Distinction]:
    """The shortest-cycle distinction between two models, or None."""
    for distinction in distinguishing_tests(model_a, model_b, **kw):
        return distinction
    return None
