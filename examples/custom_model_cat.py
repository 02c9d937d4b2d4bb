"""Defining your own memory model in the cat DSL.

The textual model-definition language (herd's "cat", which the paper's
ecosystem [2, 9] uses) makes the toolkit extensible: write a model as
text, and every candidate execution the litmus engine produces can be
judged against it.

This example:

1. prints the PTX model as cat text, parses the text back, and shows the
   parsed model judging a litmus test's candidate executions exactly as
   the built-in spec does (the spec is the model's one definition; cat
   is its text form, in and out);
2. defines a *custom* strengthened model — "PTX, but all communication is
   globally ordered" (a multi-copy-atomic PTX) — and shows which standard
   suite behaviours it would additionally forbid (IRIW!), i.e. exactly
   the non-MCA freedom §3.4 says real PTX keeps;
3. replays the history lesson: the pre-Volta ``ptx-legacy`` model
   (membar without Fence-SC order) allows the Figure 6 outcome.

Run:  python examples/custom_model_cat.py
"""

from repro.cat import cat_consistent, catmodel_to_cat, load_model, parse_cat
from repro.litmus import BY_NAME, run_litmus
from repro.ptx.model import build_env
from repro.search import candidate_executions

# A strengthened PTX: keep all six axioms (via the shipped model) but add
# a global-communication-order axiom that makes the model multi-copy
# atomic, DeNovo/SC-for-strong-ops style.
MCA_EXTRA = """
"MCA-extra"
let fr = rf^-1 ; co
let com_strong = morally_strong & (rf | co | fr)
acyclic com_strong | po as global_communication
"""


def agreement_demo() -> None:
    print("1. PTX as cat text, parsed back, vs the built-in spec on MP:")
    text = catmodel_to_cat(load_model("ptx"))
    for line in text.splitlines():
        if " as " in line:  # a constraint line, shortened
            body, label = line.rsplit(" as ", 1)
            print(f"   {body[:44]}{'...' if len(body) > 44 else ''} as {label}")
    ptx_cat = parse_cat(text)
    program = BY_NAME["MP+rel_acq.gpu"].program
    agree = total = 0
    for candidate in candidate_executions(program, include_inconsistent=True):
        env = build_env(candidate.execution)
        total += 1
        if cat_consistent(ptx_cat, env) == candidate.report.consistent:
            agree += 1
    print(f"   {agree}/{total} candidate executions judged identically")
    print()


def mca_strengthening() -> None:
    print("2. a custom strengthened model: PTX + global communication order")
    extra = parse_cat(MCA_EXTRA)
    for name in ("IRIW+rel_acq", "SB+rel_acq", "MP+rlx", "LB+weak"):
        test = BY_NAME[name]
        ptx_allows = run_litmus(test).observed
        # the strengthened model allows an outcome if some candidate is
        # consistent with BOTH the PTX axioms and the extra axiom
        strengthened_allows = False
        for candidate in candidate_executions(test.program):
            env = build_env(candidate.execution)
            if cat_consistent(extra, env) and test.condition.holds(
                candidate.outcome(), test.threads
            ):
                strengthened_allows = True
                break
        marker = "  <-- MCA closes this" if ptx_allows and not strengthened_allows else ""
        print(
            f"   {name:<16} ptx={'allowed' if ptx_allows else 'forbidden':<10}"
            f"ptx+MCA={'allowed' if strengthened_allows else 'forbidden':<10}"
            f"{marker}"
        )
    print()
    print("   IRIW separates them: real PTX deliberately is NOT multi-copy")
    print("   atomic (§3.4) — hardware may propagate stores to different")
    print("   observers at different times.")
    print()


def generation_gap() -> None:
    print("3. the generation gap (§9.7.12.3): SB+fence.sc across models")
    test = BY_NAME["SB+fence.sc.gpu"]
    for model in ("ptx", "ptx-legacy", "tso", "sc"):
        verdict = run_litmus(test, model=model).verdict.value
        print(f"   {model:<11} {verdict}")
    print("   ptx-legacy reproduces the pre-Volta membar weakness that")
    print("   Sorensen & Donaldson observed on hardware [51].")


if __name__ == "__main__":
    agreement_demo()
    mca_strengthening()
    generation_gap()
