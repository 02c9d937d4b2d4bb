"""The shipped cat model library.

Textual definitions of every model in the repository, in the herd-style
DSL of :mod:`repro.cat.parser`.  Tests verify that each cat model agrees
verdict-for-verdict with its Python-AST twin on candidate executions —
the same single-source-of-truth discipline the paper applies between its
Alloy and Coq artifacts.

One phrasing difference from :mod:`repro.ptx.spec`: cat constraints are
``acyclic``/``irreflexive``/``empty`` only (no inclusion assertions), so
PTX Axiom 1 (Coherence, ``[W];cause;[W] ∩ sloc ⊆ co``) is stated as the
emptiness of the set difference instead — equivalent by definition.
"""

from __future__ import annotations

import functools

from .parser import CatModel, parse_cat

PTX_CAT = """
"PTX"  (* paper §3: Figures 4 and 7 *)

let ms_rf = morally_strong & rf
let obs = ms_rf ; (rmw ; ms_rf)*
let pattern_rel = ([W_rel] ; po_loc? ; [W_strong]) | ([F_rel] ; po ; [W_strong])
let pattern_acq = ([R_strong] ; po_loc? ; [R_acq]) | ([R_strong] ; po ; [F_acq])
let sw = (morally_strong & (pattern_rel ; obs ; pattern_acq)) | syncbarrier | sc
let cause_base = (po? ; sw ; po?)+
let cause = cause_base | (obs ; (cause_base | po_loc))
let fr = rf^-1 ; co
let com = rf | co | fr

empty ((([W] ; cause ; [W]) & sloc) \\ co) as Coherence
irreflexive sc ; cause as FenceSC
empty ((morally_strong & fr) ; (morally_strong & co)) & rmw as Atomicity
acyclic rf | dep as No-Thin-Air
acyclic (morally_strong & com) | po_loc as SC-per-Location
irreflexive (rf | fr) ; cause as Causality
"""

TSO_CAT = """
"TSO"  (* paper Figure 2, plus RMW atomicity *)

let fr = rf^-1 ; co

acyclic rf | co | fr | po_loc as sc_per_location
acyclic rfe | co | fr | ppo | fence as causality
empty (fr ; co) & rmw as atomicity
"""

SC_CAT = """
"SC"  (* Lamport sequential consistency *)

let fr = rf^-1 ; co

acyclic rf | co | fr | po as sc
empty (fr ; co) & rmw as atomicity
"""

SCOPED_RC11_CAT = """
"scoped-RC11"  (* paper §4.1, Figure 10 *)

let sb_loc = sb & sloc
let sb_nloc = sb \\ sb_loc
let rb = (rf^-1 ; mo) \\ iden
let eco = (rf | mo | rb)+
let rs = [W] ; sb_loc? ; [W_rlx] ; ((incl & rf) ; rmw)*
let sw = [E_rel] ; ([F] ; sb)? ; rs ; (incl & rf) ; [R_rlx] ; (sb ; [F])? ; [E_acq]
let hb = (sb | (incl & sw))+
let hb_loc = hb & sloc
let scb = sb | (sb_nloc ; hb ; sb_nloc) | hb_loc | mo | rb
let psc_base = ([E_sc] | ([F_sc] ; hb?)) ; scb ; ([E_sc] | (hb? ; [F_sc]))
let psc_f = [F_sc] ; (hb | (hb ; eco ; hb)) ; [F_sc]
let psc = psc_base | psc_f

irreflexive hb ; eco? as coherence
empty rmw & (rb ; mo) as atomicity
acyclic incl & psc as sc
"""

IMM_CAT = """
"IMM"  (* Podkopaev, Lahav, Vafeiadis (POPL 2019), scoped adaptation *)

(* The RC11 fragment: same derived relations as scoped-RC11. *)
let sb_loc = sb & sloc
let sb_nloc = sb \\ sb_loc
let rb = (rf^-1 ; mo) \\ iden
let eco = (rf | mo | rb)+
let rs = [W] ; sb_loc? ; [W_rlx] ; ((incl & rf) ; rmw)*
let sw = [E_rel] ; ([F] ; sb)? ; rs ; (incl & rf) ; [R_rlx] ; (sb ; [F])? ; [E_acq]
let hb = (sb | (incl & sw))+
let hb_loc = hb & sloc
let scb = sb | (sb_nloc ; hb ; sb_nloc) | hb_loc | mo | rb
let psc_base = ([E_sc] | ([F_sc] ; hb?)) ; scb ; ([E_sc] | (hb? ; [F_sc]))
let psc_f = [F_sc] ; (hb | (hb ; eco ; hb)) ; [F_sc]
let psc = psc_base | psc_f

(* The IMM acyclicity condition: preserved program order (syntactic
   dependencies and internal reads-from), barrier-ordered-before, and
   external reads-from must not form a cycle — the hardware-checkable
   no-thin-air guarantee that replaces RC11's dropped (sb|rf) axiom. *)
let rfi = rf & int
let rfe = rf \\ int
let ppo = [R] ; (dep | rfi)+ ; [W]
let bob = (sb ; [F]) | ([F] ; sb) | ([E_acq] ; sb) | (sb ; [E_rel]) | ([E_rel] ; sb_loc)
let ar = rfe | bob | ppo

irreflexive hb ; eco? as coherence
empty rmw & (rb ; mo) as atomicity
acyclic incl & psc as sc
acyclic ar as no_thin_air
"""

SCOPED_RC11_SC_CAT = """
"scoped-RC11-SC"  (* Batty, Donaldson, Wickerson: Overhauling SC Atomics *)

(* The repaired SC-atomics semantics: the partial-SC base order is the
   *whole* of hb|mo|rb rather than RC11's carefully carved scb, which
   is provably weaker (scb is contained in hb|mo|rb).  The repair
   trades the compilation-efficiency carve-outs for a simpler, stronger
   SC axiom; everything else is scoped-RC11 verbatim. *)
let sb_loc = sb & sloc
let rb = (rf^-1 ; mo) \\ iden
let eco = (rf | mo | rb)+
let rs = [W] ; sb_loc? ; [W_rlx] ; ((incl & rf) ; rmw)*
let sw = [E_rel] ; ([F] ; sb)? ; rs ; (incl & rf) ; [R_rlx] ; (sb ; [F])? ; [E_acq]
let hb = (sb | (incl & sw))+
let scb = hb | mo | rb
let psc_base = ([E_sc] | ([F_sc] ; hb?)) ; scb ; ([E_sc] | (hb? ; [F_sc]))
let psc_f = [F_sc] ; (hb | (hb ; eco ; hb)) ; [F_sc]
let psc = psc_base | psc_f

irreflexive hb ; eco? as coherence
empty rmw & (rb ; mo) as atomicity
acyclic incl & psc as sc
"""

_SOURCES = {
    "ptx": PTX_CAT,
    "tso": TSO_CAT,
    "sc": SC_CAT,
    "scoped-rc11": SCOPED_RC11_CAT,
    "imm": IMM_CAT,
    "scoped-rc11-sc": SCOPED_RC11_SC_CAT,
}


@functools.lru_cache(maxsize=None)
def load_model(name: str) -> CatModel:
    """Load one of the shipped cat models by name.

    Cached: :class:`CatModel` is frozen and the compiled kernel
    (:mod:`repro.lang.compile`) dispatches generated functions by AST
    node *identity*, so repeated loads must return the same objects for
    its template/instance caches to hit.
    """
    try:
        source = _SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown cat model {name!r}; have {sorted(_SOURCES)}"
        ) from None
    return parse_cat(source)


def available_models():
    """Names of the shipped cat models."""
    return tuple(sorted(_SOURCES))
