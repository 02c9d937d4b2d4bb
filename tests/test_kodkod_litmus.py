"""The SAT-backed litmus backend must agree with the explicit enumerator."""

import pytest

from repro.kodkod.litmus import (
    UnsupportedCondition,
    symbolic_consistent_instances,
    symbolic_outcome_allowed,
)
from repro.litmus import SUITE, run_litmus


def _supported(test):
    if test.search_opts:
        return False  # thin-air tests need value speculation
    try:
        symbolic_outcome_allowed(test)
    except UnsupportedCondition:
        return False
    return True


_SUPPORTED = [t for t in SUITE if _supported(t)]


@pytest.mark.parametrize("test", _SUPPORTED, ids=[t.name for t in _SUPPORTED])
def test_symbolic_agrees_with_enumeration(test):
    symbolic = symbolic_outcome_allowed(test)
    concrete = run_litmus(test, model="ptx").observed
    assert symbolic == concrete


def test_most_of_the_suite_is_supported():
    """Only RMW-valued and speculative tests should fall back."""
    unsupported = [t.name for t in SUITE if t not in _SUPPORTED]
    for name in unsupported:
        assert (
            "Atom" in name or "CAS" in name or "Red" in name or "LB+deps" in name
        ), f"{name} should be symbolically checkable"
    assert len(_SUPPORTED) >= len(SUITE) - 8


def test_unsupported_raises_cleanly():
    from repro.litmus import BY_NAME

    atom_test = BY_NAME["2xAtomAdd.gpu"]
    with pytest.raises(UnsupportedCondition):
        symbolic_outcome_allowed(atom_test)


def test_symbolic_stats_populated():
    from repro.litmus import BY_NAME
    from repro.sat import SolverStats

    stats = SolverStats()
    symbolic_outcome_allowed(BY_NAME["MP+rel_acq.gpu"], stats=stats)
    assert stats.solves == 1
    assert stats.propagations > 0


def _witness_set(found):
    return {
        frozenset(
            (name, frozenset(inst[name].tuples)) for name in ("rf", "co", "sc")
        )
        for inst in found
    }


def test_instance_enumeration_incremental_matches_rebuild():
    """§5.2 all-instances methodology: enumerating the axiom-consistent
    witnesses of a Figure-17-style query with learned-clause reuse must find
    exactly the same instance set as the rebuild-per-instance baseline."""
    from repro.litmus import BY_NAME

    test = BY_NAME["IRIW+rel_acq"]
    incremental = _witness_set(symbolic_consistent_instances(test))
    rebuilt = _witness_set(
        symbolic_consistent_instances(test, incremental=False)
    )
    assert incremental == rebuilt
    assert len(incremental) == 16


def test_instance_enumeration_repeatable():
    """A second enumeration of the same test yields the identical set —
    blocking clauses never contaminate the shared translation."""
    from repro.litmus import BY_NAME

    test = BY_NAME["MP+rel_acq.gpu"]
    first = _witness_set(symbolic_consistent_instances(test))
    second = _witness_set(symbolic_consistent_instances(test))
    assert first == second and first


def test_instance_enumeration_stats_show_reuse():
    """The sink accumulates one solve per yielded instance (the final
    UNSAT call is not counted), proving the incremental solver is
    observable."""
    from repro.litmus import BY_NAME
    from repro.sat import SolverStats

    stats = SolverStats()
    count = sum(
        1
        for _ in symbolic_consistent_instances(
            BY_NAME["IRIW+rel_acq"], stats=stats
        )
    )
    assert count == 16
    assert stats.solves == count


#: fence.sc.cta across two GPUs is not morally strong, so the enumerative
#: engine never orders the fences; the SAT instance may, and decoding
#: ``cause`` over that unrestricted ``sc`` invented a coherence edge
_SC_NOT_MORALLY_STRONG = {
    "fence-first": ("fence.sc.cta\n  st.weak [y], 1",
                    "st.weak [y], 2\n  fence.sc.cta"),
    "fence-last": ("st.weak [y], 1\n  fence.sc.cta",
                   "fence.sc.cta\n  st.weak [y], 2"),
}


@pytest.mark.parametrize(
    "first,second",
    list(_SC_NOT_MORALLY_STRONG.values()),
    ids=list(_SC_NOT_MORALLY_STRONG),
)
def test_symbolic_outcomes_ignore_non_morally_strong_sc(first, second):
    from repro.kodkod.litmus import symbolic_outcomes
    from repro.litmus.parser import parse_litmus
    from repro.search.ptx_search import allowed_outcomes

    test = parse_litmus(
        "ptx test SC-decode\n"
        f"thread d0c0t0\n  {first}\n"
        f"thread d1c0t0\n  {second}\n"
        "forbidden: [y]=1\n"
    )
    expected = allowed_outcomes(test.program)
    assert [o.memory for o in expected] == [(("y", frozenset({1, 2})),)]
    assert symbolic_outcomes(test) == expected
