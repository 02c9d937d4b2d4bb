"""Derived lemmas and tactics over the proof kernel.

The kernel exposes primitive inference rules; this module composes them
into the reusable steps real derivations need (chained transitivity, n-ary
monotone composition, membership of a disjunct in a union tree), and then
proves a library of structural lemmas about the PTX and RC11 specs
themselves — the machine-checked counterparts of one-line Alloy ``check``
assertions (Figure 16 of the paper).  Tests verify each lemma twice: once
by replaying the kernel derivation, and once by bounded model finding.
"""

from __future__ import annotations

from typing import Dict

from ..lang import ast
from . import kernel
from .kernel import Thm


# ---------------------------------------------------------------------------
# tactics
# ---------------------------------------------------------------------------
def subset_chain(*thms: Thm) -> Thm:
    """Fold ``subset_trans`` over a chain of inclusions."""
    if not thms:
        raise kernel.ProofError("subset_chain needs at least one theorem")
    out = thms[0]
    for thm in thms[1:]:
        out = kernel.subset_trans(out, thm)
    return out


def seq_mono(*thms: Thm) -> Thm:
    """N-ary ``join_mono``: compose inclusions pointwise along ``seq``."""
    if len(thms) < 2:
        raise kernel.ProofError("seq_mono needs at least two inclusions")
    out = thms[0]
    for thm in thms[1:]:
        out = kernel.join_mono(out, thm)
    return out


def union_member(member: ast.Expr, tree: ast.Expr) -> Thm:
    """Prove ``member ⊆ tree`` when ``member`` occurs in the union tree."""
    if member == tree:
        return kernel.subset_refl(member)
    if isinstance(tree, ast.Union_):
        try:
            inner = union_member(member, tree.left)
            return kernel.subset_trans(
                inner, kernel.union_left(tree.left, tree.right)
            )
        except kernel.ProofError:
            inner = union_member(member, tree.right)
            return kernel.subset_trans(
                inner, kernel.union_right(tree.left, tree.right)
            )
    raise kernel.ProofError(f"{member!r} is not a disjunct of {tree!r}")


def wrap_with_opts(middle: ast.Expr, left: ast.Expr, right: ast.Expr) -> Thm:
    """Prove ``m ⊆ left? ; m ; right?``.

    The standard move for pushing a relation into a ``po? ; sw ; po?``
    block: ``m = iden;m;iden ⊆ left?;m;right?``.
    """
    step1 = kernel.iden_intro_left(middle)            # m ⊆ iden;m
    widen1 = kernel.join_mono(
        kernel.opt_iden(left), kernel.subset_refl(middle)
    )                                                  # iden;m ⊆ left?;m
    upto = kernel.subset_trans(step1, widen1)          # m ⊆ left?;m
    step2 = kernel.iden_intro_right(ast.Join(ast.Optional_(left), middle))
    widen2 = kernel.join_mono(
        kernel.subset_refl(ast.Join(ast.Optional_(left), middle)),
        kernel.opt_iden(right),
    )
    return subset_chain(upto, step2, widen2)


# ---------------------------------------------------------------------------
# spec-level lemma library
# ---------------------------------------------------------------------------
def ptx_lemmas() -> Dict[str, Thm]:
    """Machine-checked structural lemmas about the PTX spec (Figure 4).

    Each lemma is closed (no hypotheses): it holds in *every* interpretation
    of the base relations, which is why the bounded model finder can
    cross-check it with an Alloy-style ``check``.
    """
    from ..ptx import spec as P

    lemmas: Dict[str, Thm] = {}

    # sw ⊆ cause_base: a synchronizes-with edge is itself a causality step.
    sw_in_block = wrap_with_opts(P.sw, P.po, P.po)
    block = ast.Join(
        ast.Join(ast.Optional_(P.po), P.sw), ast.Optional_(P.po)
    )
    sw_in_base = kernel.subset_trans(
        subset_chain(
            sw_in_block,
            # left?;m;right? needs reassociation to match seq(): seq builds
            # ((po? ; sw) ; po?) which is exactly what wrap_with_opts built.
            kernel.subset_refl(block),
        ),
        kernel.closure_unfold(block),
    )
    lemmas["sw_in_cause_base"] = sw_in_base

    # cause_base ⊆ cause
    lemmas["cause_base_in_cause"] = union_member(P.cause_base, P.cause)

    # sw ⊆ cause (chaining the two)
    lemmas["sw_in_cause"] = kernel.subset_trans(
        sw_in_base, lemmas["cause_base_in_cause"]
    )

    # sc ⊆ sw: Fence-SC order synchronizes directly (Figure 4).
    lemmas["sc_in_sw"] = union_member(P.sc, P.sw)

    # sc ⊆ cause: composing the chain — the formal content of "the Fence-SC
    # order is part of causality", which Axiom 2 then constrains.
    lemmas["sc_in_cause"] = subset_chain(
        lemmas["sc_in_sw"], lemmas["sw_in_cause"]
    )

    # syncbarrier ⊆ sw ⊆ cause (barrier synchronization is causal).
    lemmas["barrier_in_sw"] = union_member(P.syncbarrier, P.sw)
    lemmas["barrier_in_cause"] = subset_chain(
        lemmas["barrier_in_sw"], lemmas["sw_in_cause"]
    )

    # cause_base is transitive: cause_base;cause_base ⊆ cause_base.
    lemmas["cause_base_trans"] = kernel.closure_compose(block)

    # obs;po_loc ⊆ cause and obs;cause_base ⊆ cause (the two extension arms).
    arm = ast.Join(P.obs, ast.Union_(P.cause_base, P.po_loc))
    lemmas["obs_arm_in_cause"] = union_member(arm, P.cause)
    po_loc_arm = kernel.join_mono(
        kernel.subset_refl(P.obs),
        union_member(P.po_loc, ast.Union_(P.cause_base, P.po_loc)),
    )
    lemmas["obs_poloc_in_cause"] = subset_chain(
        po_loc_arm, lemmas["obs_arm_in_cause"]
    )

    # Closure induction at work: chains of synchronization edges stay in
    # base causality — sw+ ⊆ cause_base, from sw ⊆ cause_base (above) and
    # cause_base's transitivity, via the kernel's least-fixpoint rule.
    lemmas["sw_plus_in_cause_base"] = kernel.closure_least(
        lemmas["cause_base_trans"], sw_in_base
    )

    return lemmas


def rc11_lemmas() -> Dict[str, Thm]:
    """Machine-checked structural lemmas about the scoped RC11 spec."""
    from ..rc11 import spec as C

    lemmas: Dict[str, Thm] = {}

    hb_step = ast.Union_(C.sb, ast.Inter(C.incl, C.sw))

    # sb ⊆ hb
    lemmas["sb_in_hb"] = kernel.subset_trans(
        union_member(C.sb, hb_step), kernel.closure_unfold(hb_step)
    )

    # incl ∩ sw ⊆ hb (only inclusive synchronization enters hb)
    lemmas["incl_sw_in_hb"] = kernel.subset_trans(
        union_member(ast.Inter(C.incl, C.sw), hb_step),
        kernel.closure_unfold(hb_step),
    )

    # hb is transitive
    lemmas["hb_trans"] = kernel.closure_compose(hb_step)

    # rf ⊆ eco, mo ⊆ eco, rb ⊆ eco
    comm = ast.Union_(ast.Union_(C.rf, C.mo), C.rb)
    for name, expr in (("rf", C.rf), ("mo", C.mo), ("rb", C.rb)):
        lemmas[f"{name}_in_eco"] = kernel.subset_trans(
            union_member(expr, comm), kernel.closure_unfold(comm)
        )

    # eco is transitive
    lemmas["eco_trans"] = kernel.closure_compose(comm)

    # sb ⊆ scb and mo ⊆ scb (two of the scb arms)
    lemmas["sb_in_scb"] = union_member(C.sb, C.scb)
    lemmas["mo_in_scb"] = union_member(C.mo, C.scb)

    # psc_base ⊆ psc, psc_f ⊆ psc
    lemmas["psc_base_in_psc"] = union_member(C.psc_base, C.psc)
    lemmas["psc_f_in_psc"] = union_member(C.psc_f, C.psc)

    # Closure induction: chains of inclusive synchronization stay in hb.
    lemmas["incl_sw_plus_in_hb"] = kernel.closure_least(
        lemmas["hb_trans"], lemmas["incl_sw_in_hb"]
    )

    # eco absorbs its own generators on the right: eco ; rf ⊆ eco.
    rf_in_eco_step = kernel.subset_trans(
        kernel.join_mono(kernel.subset_refl(C.eco), lemmas["rf_in_eco"]),
        lemmas["eco_trans"],
    )
    lemmas["eco_rf_in_eco"] = rf_in_eco_step

    return lemmas


def all_lemmas() -> Dict[str, Thm]:
    """The combined PTX + RC11 lemma library."""
    out = {f"ptx.{k}": v for k, v in ptx_lemmas().items()}
    out.update({f"rc11.{k}": v for k, v in rc11_lemmas().items()})
    return out
