"""The scope-extended RC11 memory model (paper §4.1, Figure 10).

This is the paper's "scoped C++": the Repaired C11 model of Lahav et al.
with two changes (§4.1):

1. **Scopes.**  The ``incl`` relation (mutually inclusive scopes) gates
   synchronization: ``sw`` communicates only over ``incl ∩ rf`` edges,
   ``hb`` only absorbs ``incl ∩ sw``, and the SC axiom constrains only
   ``incl ∩ psc``.
2. **No-Thin-Air is dropped** — its blanket load-to-store ordering ban
   contradicts current GPU behaviour.  (It remains available behind a flag
   for experimentation.)

Base relations expected in the environment: ``sb`` (sequenced-before),
``sloc``, ``rf``, ``mo`` (per-location total modification order), ``incl``,
``rmw`` (the identity on single-event RMWs).  Sets: ``R``, ``W``, ``F``,
plus the order-qualified sets listed below.

Two models extend this one at the bottom of the module, reusing its
relation objects: IMM (``IMM_DERIVED``/``IMM_AXIOMS``) and repaired SC
atomics (``REPAIRED_SC_DERIVED``/``REPAIRED_SC_AXIOMS``).

Note on ``mo``: Figure 10 glosses it as "total order over atomic writes to
each address"; following the RC11 development itself we totalise over *all*
writes per address — for race-free programs the difference is unobservable,
and it keeps non-atomic same-thread write-write coherence inside the model.
"""

from __future__ import annotations

from typing import Dict

from ..lang.ast import (
    Acyclic,
    Expr,
    Formula,
    Iden,
    Irreflexive,
    NoF,
    bracket,
    rel,
    seq,
    set_,
)

sb = rel("sb")
sloc = rel("sloc")
rf = rel("rf")
mo = rel("mo")
incl = rel("incl")
rmw = rel("rmw")

R = set_("R")
W = set_("W")
F = set_("F")
E_rel = set_("E_rel")    # events with memory order ⊒ REL
E_acq = set_("E_acq")    # events with memory order ⊒ ACQ
W_rlx = set_("W_rlx")    # writes with memory order ⊒ RLX (atomic writes)
R_rlx = set_("R_rlx")    # reads with memory order ⊒ RLX (atomic reads)
E_sc = set_("E_sc")      # SC events (memory accesses)
F_sc = set_("F_sc")      # SC fences

BASE_RELATIONS = ("sb", "sloc", "rf", "mo", "incl", "rmw")
BASE_SETS = ("R", "W", "F", "E_rel", "E_acq", "W_rlx", "R_rlx", "E_sc", "F_sc")

# ---------------------------------------------------------------------------
# derived relations (Figure 10b)
# ---------------------------------------------------------------------------

#: sequenced-before restricted to / excluding same-location pairs.
sb_loc: Expr = sb & sloc
sb_nloc: Expr = sb - sb_loc

#: reads-before: rb := rf⁻¹ ; mo (minus identity — an RMW reads before the
#: writes mo-after it, but not before itself).
rb: Expr = ((~rf) @ mo) - Iden()

#: extended communication order.
eco: Expr = (rf | mo | rb).plus()

#: release sequence: a write, optionally followed by a same-location atomic
#: write of the same thread, extended through scope-inclusive RMW chains.
rs: Expr = seq(bracket(W), sb_loc.opt(), bracket(W_rlx), ((incl & rf) @ rmw).star())

#: synchronizes-with: a ⊒REL event (possibly a fence before the releasing
#: write), a release sequence, a scope-inclusive rf into a ⊒RLX read
#: (possibly followed by a fence), ending at a ⊒ACQ event.
sw: Expr = seq(
    bracket(E_rel),
    (bracket(F) @ sb).opt(),
    rs,
    incl & rf,
    bracket(R_rlx),
    (sb @ bracket(F)).opt(),
    bracket(E_acq),
)

#: happens-before (scoped: only inclusive sw edges synchronize).
hb: Expr = (sb | (incl & sw)).plus()

hb_loc: Expr = hb & sloc

#: SC base order ingredients (Figure 10b).
scb: Expr = sb | seq(sb_nloc, hb, sb_nloc) | hb_loc | mo | rb


def _psc_base(base: Expr) -> Expr:
    """The partial-SC order over an SC base order (SC accesses, or SC
    fences extended by hb, at both ends)."""
    return seq(
        bracket(E_sc) | (bracket(F_sc) @ hb.opt()),
        base,
        bracket(E_sc) | (hb.opt() @ bracket(F_sc)),
    )


psc_base: Expr = _psc_base(scb)

psc_f: Expr = seq(bracket(F_sc), hb | seq(hb, eco, hb), bracket(F_sc))

psc: Expr = psc_base | psc_f

DERIVED: Dict[str, Expr] = {
    "sb_loc": sb_loc,
    "sb_nloc": sb_nloc,
    "rb": rb,
    "eco": eco,
    "rs": rs,
    "sw": sw,
    "hb": hb,
    "scb": scb,
    "psc_base": psc_base,
    "psc_f": psc_f,
    "psc": psc,
}

# ---------------------------------------------------------------------------
# axioms (Figure 10c)
# ---------------------------------------------------------------------------

coherence: Formula = Irreflexive(hb @ eco.opt())

atomicity: Formula = NoF(rmw & (rb @ mo))

sc_axiom: Formula = Acyclic(incl & psc)

#: Excluded by default (§4.1); kept for ablation experiments.
no_thin_air: Formula = Acyclic(sb | rf)

AXIOMS: Dict[str, Formula] = {
    "Coherence": coherence,
    "Atomicity": atomicity,
    "SC": sc_axiom,
}

AXIOMS_WITH_THIN_AIR: Dict[str, Formula] = {
    **AXIOMS,
    "No-Thin-Air": no_thin_air,
}

# ---------------------------------------------------------------------------
# IMM (Podkopaev, Lahav, Vafeiadis, POPL 2019), scoped adaptation
# ---------------------------------------------------------------------------
# The RC11 relations and axioms above, plus an acyclicity condition over
# preserved program order (syntactic dependencies and internal
# reads-from), barrier-ordered-before and external reads-from: the
# hardware-checkable no-thin-air guarantee that replaces RC11's dropped
# (sb | rf) axiom.  Extra base relations: ``dep`` (syntactic
# dependencies) and ``int`` (same-thread pairs).

dep = rel("dep")
internal = rel("int")

rfi: Expr = rf & internal
rfe: Expr = rf - internal

#: preserved program order: a read ordered before a write by a chain of
#: dependencies and internal reads-from.
ppo: Expr = seq(bracket(R), (dep | rfi).plus(), bracket(W))

#: barrier-ordered-before: fences and release/acquire accesses.
bob: Expr = (
    (sb @ bracket(F))
    | (bracket(F) @ sb)
    | (bracket(E_acq) @ sb)
    | (sb @ bracket(E_rel))
    | (bracket(E_rel) @ sb_loc)
)

ar: Expr = rfe | bob | ppo

IMM_DERIVED: Dict[str, Expr] = {
    **DERIVED, "rfi": rfi, "rfe": rfe, "ppo": ppo, "bob": bob, "ar": ar,
}

IMM_AXIOMS: Dict[str, Formula] = {**AXIOMS, "No-Thin-Air": Acyclic(ar)}

# ---------------------------------------------------------------------------
# repaired SC atomics (Batty, Donaldson, Wickerson: Overhauling SC Atomics)
# ---------------------------------------------------------------------------
# The SC base order is the whole of hb | mo | rb rather than RC11's
# carved scb (which it contains term by term): a simpler, stronger SC
# axiom.  Everything before scb is scoped RC11 verbatim.

repaired_scb: Expr = hb | mo | rb

repaired_psc_base: Expr = _psc_base(repaired_scb)

repaired_psc: Expr = repaired_psc_base | psc_f

REPAIRED_SC_DERIVED: Dict[str, Expr] = {
    **DERIVED,
    "scb": repaired_scb,
    "psc_base": repaired_psc_base,
    "psc": repaired_psc,
}

REPAIRED_SC_AXIOMS: Dict[str, Formula] = {
    **AXIOMS, "SC": Acyclic(incl & repaired_psc),
}
