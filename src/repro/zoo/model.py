"""The ``Model`` protocol: a memory model as pure data.

A zoo model is three declarations and nothing else:

* an **event signature** — how PTX execution events are classified into
  the model's event sets, and which base relations the model's axioms
  read (each relation names a builder from the shared vocabulary in
  :mod:`repro.ptx.static`);
* a **witness spec** — which relations the model existentially
  quantifies over (the coherence-order style and name, and whether a
  runtime ``fence.sc`` order is enumerated);
* the **axioms** — a spec module's ``DERIVED``/``AXIOMS`` tables,
  referenced by name through :func:`repro.cat.models.load_model`, which
  views them as a :class:`~repro.cat.parser.CatModel` (cat is the
  model's text form: ``ptxmm export`` prints it, ``parse_cat`` reads
  it back).

Given those, the generic engine (:func:`repro.zoo.engine.zoo_outcomes`)
runs the model on the staged enumeration
(:mod:`repro.search.staged`) and filters candidates through the
model's constraints: adding a model to the repository means writing
its spec and one :class:`ZooModel` declaration — no new engine code.
A model may also declare an :class:`RfDoom` prune its axioms justify.

Models additionally declare **containment claims**: ``A ⊑ B`` asserts
that every behaviour ``A`` allows, ``B`` allows too (``A`` is the
*stronger* model).  Claims are consumed twice — the conformance matrix
(:mod:`repro.zoo.matrix`) verifies them cell-by-cell with witness
tests, and the fuzz oracle derives a cross-model containment check from
every claim (:func:`repro.fuzz.oracle.containment_checks`), so each
declared edge is fuzzed continuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class EventSignature:
    """How a model reads a PTX candidate execution.

    ``sets`` maps cat set names to event predicates; ``relations`` maps
    cat relation names to base-relation builders.  Both name entries in
    the shared vocabulary (:data:`repro.ptx.static.PREDICATES` /
    :data:`repro.ptx.static.BUILDERS`); the names on the left are
    whatever the model's axioms expect to find bound.
    """

    #: ``(cat set name, predicate name)`` pairs
    sets: Tuple[Tuple[str, str], ...] = ()
    #: ``(cat relation name, builder name)`` pairs
    relations: Tuple[Tuple[str, str], ...] = ()

    @property
    def set_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.sets)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.relations)


@dataclass(frozen=True)
class WitnessSpec:
    """The existentially quantified relations of a model.

    ``co_style`` picks the coherence-order witness space:

    * ``"total"`` — a total order over the writes to each location with
      the init write pinned first (CPU-style: TSO, SC, RC11's ``mo``);
    * ``"partial-ms"`` — orientations of the *morally strong* write
      pairs only (the PTX partial coherence order, §3.2), seeded with
      init-first edges and, when ``co_forced_from`` names a cat
      definition, the same-location write pairs that definition forces
      (PTX Axiom 1 forces ``cause`` edges into ``co``).

    ``forced_released_by`` names the constraint whose content the forced
    edges are (PTX: Coherence, Axiom 1): skipping that constraint drops
    them, so its ablation enumerates the orientations it would forbid.

    ``sc_fences`` additionally enumerates a runtime order over morally
    strong ``fence.sc`` pairs, bound as ``sc`` (PTX §3.4).  The
    ``partial-ms`` and ``sc_fences`` witnesses read the signature's
    ``morally_strong`` relation.
    """

    co_style: str = "total"
    co_name: str = "co"
    sc_fences: bool = False
    co_forced_from: Optional[str] = None
    forced_released_by: Optional[str] = None

    def __post_init__(self):
        if self.co_style not in ("total", "partial-ms"):
            raise ValueError(
                f"unknown coherence witness style {self.co_style!r}; "
                "expected 'total' or 'partial-ms'"
            )
        if self.co_forced_from is not None and self.co_style != "partial-ms":
            raise ValueError(
                "co_forced_from only applies to the 'partial-ms' style "
                "(total orders have no orientation left to force)"
            )
        if self.forced_released_by is not None and self.co_forced_from is None:
            raise ValueError(
                "forced_released_by needs co_forced_from (there are no "
                "forced edges to release)"
            )


@dataclass(frozen=True)
class RfDoom:
    """A reads-from prune: choices no completion can make consistent.

    A read that takes its value from a po-later write to its own
    location closes an ``rf ; po_loc`` 2-cycle.  When every such cycle
    violates ``constraint`` whatever the sc and co witnesses are, the
    enumeration drops the rf assignment before evaluating anything.
    ``restrict`` names the bound relation the read/write pair must lie in
    for the cycle to count (PTX: only morally strong pairs, Axiom 5), or
    None when every pair counts.
    """

    constraint: str
    restrict: Optional[str] = None


@dataclass(frozen=True)
class Claim:
    """A declared behavioural containment: ``stronger ⊑ weaker``.

    Every outcome the *stronger* model allows, the *weaker* model must
    allow too (outcomes are compared after concretizing racy final
    memory — see :func:`repro.zoo.engine.concrete_observations`).

    ``basis`` records why the claim is believed: ``"structural"`` claims
    follow from axiom implication over a shared witness space (they hold
    for *every* program); ``"empirical"`` claims are validated by the
    conformance matrix over the corpus and fuzzed continuously.
    """

    stronger: str
    weaker: str
    rationale: str = ""
    basis: str = "structural"

    def __post_init__(self):
        if self.basis not in ("structural", "empirical"):
            raise ValueError(f"unknown claim basis {self.basis!r}")


@dataclass(frozen=True)
class ZooModel:
    """One registered memory model, declared entirely as data."""

    name: str
    #: the model's name in :func:`repro.cat.models.load_model` (the axioms)
    cat: str
    signature: EventSignature
    witnesses: WitnessSpec
    #: containment claims in which this model is the *stronger* side
    claims: Tuple[Claim, ...] = ()
    #: search options the model's enumeration understands
    opts: FrozenSet[str] = frozenset()
    #: options tolerated and dropped (e.g. PTX-only annotations)
    ignored_opts: FrozenSet[str] = frozenset()
    description: str = ""
    #: the declared rf-stage prune, if the axioms admit one
    rf_doom: Optional[RfDoom] = None

    def __post_init__(self):
        for claim in self.claims:
            if claim.stronger != self.name:
                raise ValueError(
                    f"model {self.name!r} may only declare claims in "
                    f"which it is the stronger side, got "
                    f"{claim.stronger!r} ⊑ {claim.weaker!r}"
                )

    def bound_names(self) -> FrozenSet[str]:
        """Every name the engine will bind before evaluating the cat
        constraints: signature sets/relations plus the witnesses."""
        names = set(self.signature.set_names)
        names.update(self.signature.relation_names)
        names.add("rf")
        names.add(self.witnesses.co_name)
        if self.witnesses.sc_fences:
            names.add("sc")
        return frozenset(names)
