"""Reads-from consistency checking by constraint saturation.

The enumerative engine (:mod:`.ptx_search`) explores every ``(rf, sc,
co)`` completion — superexponential in test size, because the number of
coherence orders is the product of ``2^p_L`` over the undecided morally
strong write pairs ``p_L`` of every location.  Following the
reads-from-centric consistency checkers of Tunç et al. (*Optimal
Reads-From Consistency Checking*) and Chakraborty et al. (*How Hard is
Weak-Memory Testing?*), this engine enumerates only the reads-from
choices (plus PTX's runtime ``sc`` orders, which are usually trivial)
and decides each prefix by **saturation** over per-location coherence
constraints:

1. PTX coherence order never crosses locations — forced edges (init
   writes, Axiom-1 causality) and morally strong write pairs are all
   same-location, and transitive closure stays inside a location.  Every
   remaining axiom's violation witness is likewise confined to a single
   location's ``co`` (each of ``rf``/``co``/``fr``/``po_loc`` relates
   same-location events), so global consistency is the *conjunction* of
   independent per-location problems: ``Σ_L 2^(p_L)`` work replaces
   ``Π_L 2^(p_L)``.
2. Per location, sound **forbidden edges** are derived up front:
   orientations that necessarily break Causality (a read of ``w`` is
   causally after ``w'``, so ``co(w, w')`` creates a forbidden
   ``fr``-into-``cause`` loop) or SC-per-Location (the orientation
   closes a cycle with the co-free skeleton ``(ms∩rf) ∪ po_loc``).
3. **Unit propagation** then saturates: an orientation whose closure is
   cyclic or touches a forbidden edge is doomed, forcing the opposite
   orientation; both doomed means the location — hence the whole
   prefix — is inconsistent.  Only the pairs still open after the
   fixpoint are enumerated, and each survivor is certified by evaluating
   the co-dependent axioms themselves, so the forbidden-edge analysis
   only ever *prunes*; it is never trusted for a positive verdict.

The rf and (rf, sc) stages — rf choices, doom prune, sc orders,
co-independent pre-check, forced co edges — are the staged loop's
shared prefix (:func:`~.staged.rf_sc_prefixes`); only the co stage is
this module's.

Coherence (Axiom 1) needs no per-candidate check at all: its left-hand
side is exactly the causality-forced same-location write pairs, which
are seeded into every candidate's forced set — the axiom holds by
construction (or the forced closure is cyclic and the location has no
coherence order, which is the same verdict enumeration would reach).

Out-of-fragment requests — axiom ablations (``skip_axioms``) and
out-of-thin-air speculation (``speculation_values``) invalidate both the
rf prune and the forbidden-edge derivations — fall back to the
enumerative engine, as does any unexpected internal failure, so the
engine is *sound by construction*: every answer is either certified by
the axiom evaluations or produced by the reference engine.  Fallbacks
are counted in :class:`~.records.EnumStats`.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.deadline import TimeoutExceeded, check_deadline
from ..ptx.events import Event
from ..ptx.program import Program
from ..registry import DEFAULT_KERNEL
from .ptx_search import PTX_STAGED, allowed_outcomes
from .records import EnumStats, Outcome
from .staged import Staging, register_assignment, rf_sc_prefixes
from .values import valuations

logger = logging.getLogger("repro.search.rf_check")

#: the PTX model with :data:`~repro.zoo.engine.RF_CAUSALITY` checked as a
#: co-independent constraint, once per (rf, sc) prefix.  Its formula list
#: is :data:`~.ptx_search.PTX_STAGED`'s (constraints + extra formulas), so
#: both engines share one compiled instance per program signature.
RF_CHECK_STAGED = replace(
    PTX_STAGED,
    constraints=PTX_STAGED.constraints + PTX_STAGED.extra_formulas,
    extra_formulas=(),
)

#: co-dependent axioms that still need a per-candidate evaluation once a
#: location's coherence order is chosen.  Coherence is excluded: its
#: required edges are seeded into the forced set, so it holds by
#: construction (see module docstring).
_PER_CANDIDATE = [
    axiom
    for label, axiom in RF_CHECK_STAGED.constraints
    if label in RF_CHECK_STAGED.co_dependent and label != "Coherence"
]


def _hits(relation, forbidden: Set[Tuple[Event, Event]]) -> bool:
    """Whether any forbidden edge is present in ``relation``."""
    return any(edge in relation for edge in forbidden)


def _forbidden_edges(
    writes: Sequence[Event],
    cause,
    b_closed,
    ms,
    reads_of: Dict[int, List[Event]],
) -> Set[Tuple[Event, Event]]:
    """Coherence-edge orientations no consistent execution can contain.

    Each returned edge ``(a, b)`` is *monotonically* forbidden — any
    coherence order including it violates an axiom no matter which other
    edges are chosen — which is what makes forcing the opposite
    orientation sound:

    * **Causality** (exact): some read of ``a`` is causally after ``b``,
      so ``co(a, b)`` yields ``fr(r, b)`` with ``(b, r) ∈ cause``.
    * **SC-per-Location** (single-co-edge cycles): the edge itself, or
      an ``fr`` edge it induces through a morally strong read of ``a``,
      closes a cycle with ``b_closed`` — the transitively closed co-free
      skeleton ``(ms ∩ rf) ∪ po_loc`` of the axiom's relation.  Cycles
      threading *multiple* undecided co edges are not derived here; the
      per-candidate axiom evaluation catches them.
    """
    forbidden: Set[Tuple[Event, Event]] = set()
    for a in writes:
        a_reads = reads_of.get(a.eid, ())
        for b in writes:
            if a is b:
                continue
            if any((b, read) in cause for read in a_reads):
                forbidden.add((a, b))
                continue
            if (a, b) in ms and (b, a) in b_closed:
                forbidden.add((a, b))
                continue
            if any(
                (read, b) in ms and (b, read) in b_closed
                for read in a_reads
            ):
                forbidden.add((a, b))
    return forbidden


def _saturate(
    forced,
    pairs: Sequence[Tuple[Event, Event]],
    forbidden: Set[Tuple[Event, Event]],
    stats: EnumStats,
):
    """Unit-propagate one location's coherence constraints to a fixpoint.

    An orientation is *doomed* when adding it to the forced closure
    creates a cycle or a forbidden edge; a doomed orientation forces its
    opposite, and both doomed means the location is inconsistent.
    Returns ``(forced_closure, still_open_pairs)`` or ``None`` when
    inconsistent.
    """
    forced = forced.closure()
    if not forced.is_irreflexive() or _hits(forced, forbidden):
        return None
    pending = list(pairs)
    changed = True
    while changed:
        changed = False
        still: List[Tuple[Event, Event]] = []
        for a, b in pending:
            check_deadline()
            if (a, b) in forced or (b, a) in forced:
                continue  # decided transitively by an earlier forcing
            ab = (forced | forced.same_kind(((a, b),))).closure()
            ab_ok = ab.is_irreflexive() and not _hits(ab, forbidden)
            ba = (forced | forced.same_kind(((b, a),))).closure()
            ba_ok = ba.is_irreflexive() and not _hits(ba, forbidden)
            if not ab_ok and not ba_ok:
                return None
            if ab_ok and ba_ok:
                still.append((a, b))
                continue
            forced = ab if ab_ok else ba
            stats.saturation_steps += 1
            changed = True
        pending = still
    return forced, pending


def _location_families(
    st: Staging,
    locations,
    env,
    forced,
    b_closed,
    reads_of: Dict[int, List[Event]],
    stats: EnumStats,
) -> Optional[List[Set[FrozenSet[int]]]]:
    """Per location (in ``locations`` order), the *families* of
    co-maximal write eids over that location's consistent coherence
    orders — or ``None`` when some location admits no consistent order,
    killing the whole (rf, sc) prefix.  Each location's saturation is
    seeded with its share of the prefix's ``forced`` co edges."""
    ms = st.env.lookup("morally_strong")
    cause = env.expr(RF_CHECK_STAGED.forced)
    result: List[Set[FrozenSet[int]]] = []
    for writes, same_loc, pairs in locations:
        forbidden = _forbidden_edges(writes, cause, b_closed, ms, reads_of)
        saturated = _saturate(forced & same_loc, pairs, forbidden, stats)
        if saturated is None:
            return None
        loc_forced, open_pairs = saturated
        families: Set[FrozenSet[int]] = set()
        for co_order in st.orders(
            [frozenset(pair) for pair in open_pairs], loc_forced
        ):
            check_deadline()
            # combined orientations can close a forbidden transitive
            # edge even though each was individually survivable
            if _hits(co_order, forbidden):
                continue
            co_env = env.bind("co", co_order)
            stats.candidates_checked += 1
            if all(co_env.formula(axiom) for axiom in _PER_CANDIDATE):
                families.add(
                    frozenset(
                        w.eid
                        for w in writes
                        if not any((w, other) in co_order for other in writes)
                    )
                )
        if not families:
            return None
        result.append(families)
    return result


def _saturation_outcomes(
    program: Program, kernel: str, stats: EnumStats
) -> FrozenSet[Outcome]:
    """The in-fragment engine: all six axioms enforced, no speculation.

    Iterates the staged loop's prefixes of :data:`RF_CHECK_STAGED` and
    decides each by saturation per location.
    """
    st = Staging(program, RF_CHECK_STAGED, kernel, stats)
    elab, reads, static_env = st.elab, st.reads, st.env
    locs = sorted(st.writes_by_loc)
    #: per location: its writes, its write pairs (which cut its share out
    #: of the forced edges) and its undecided morally strong pairs
    locations = [
        (writes, static_env.make_relation(itertools.product(writes, repeat=2)),
         [p for p in st.ms_write_pairs if p[0].loc == loc])
        for loc, writes in sorted(st.writes_by_loc.items())
    ]
    ms = static_env.lookup("morally_strong")
    po_loc = static_env.lookup("po_loc")

    outcomes: Set[Outcome] = set()
    for rf_assignment, rf_value, sc_variants in rf_sc_prefixes(st):
        reads_of: Dict[int, List[Event]] = {}
        for read, write in zip(reads, rf_assignment):
            reads_of.setdefault(write.eid, []).append(read)
        # SC-per-Location's co-free skeleton, shared by every sc variant
        b_closed = ((ms & rf_value) | po_loc).closure()

        #: all observable (co-maximal eids per location) tuples over the
        #: prefix's consistent executions, deduplicated across sc orders
        memory_families: Set[Tuple[FrozenSet[int], ...]] = set()
        for env, forced, _, _, _, _ in sc_variants:
            families = _location_families(
                st, locations, env, forced, b_closed, reads_of, stats
            )
            if families is not None:
                memory_families.update(itertools.product(*families))

        if not memory_families:
            continue
        rf_source = {
            read.eid: write.eid for read, write in zip(reads, rf_assignment)
        }
        for valuation in valuations(
            elab, rf_source, st.base_values, eids=st.val_eids
        ):
            registers = register_assignment(elab, valuation)
            for combo in memory_families:
                memory = tuple(
                    sorted(
                        (loc, frozenset(valuation[eid] for eid in family))
                        for loc, family in zip(locs, combo)
                    )
                )
                outcomes.add(Outcome(registers=registers, memory=memory))
    return frozenset(outcomes)


def rf_check_outcomes(
    program: Program,
    skip_axioms: Tuple[str, ...] = (),
    speculation_values: Sequence[int] = (),
    kernel: str = DEFAULT_KERNEL,
    stats: Optional[EnumStats] = None,
) -> FrozenSet[Outcome]:
    """All outcomes of axiom-consistent executions of ``program``,
    decided by reads-from saturation where possible.

    Guaranteed sound: requests outside the saturation fragment — axiom
    ablations or out-of-thin-air speculation — and any internal failure
    fall back to :func:`~.ptx_search.allowed_outcomes`, counted in
    ``stats.fallbacks``.  The result is always identical to the
    enumerative engine's.
    """
    stats = stats if stats is not None else EnumStats()
    if not skip_axioms and not speculation_values:
        try:
            return _saturation_outcomes(program, kernel, stats)
        except TimeoutExceeded:
            raise
        except Exception:  # noqa: BLE001 — soundness net: defer to the reference engine
            logger.exception(
                "rf-check saturation failed; falling back to the "
                "enumerative engine (the verdict is unaffected)"
            )
    stats.fallbacks += 1
    return allowed_outcomes(
        program,
        skip_axioms=skip_axioms,
        speculation_values=speculation_values,
        kernel=kernel,
        stats=stats,
    )
