"""Engine-agreement property test over the full litmus suite.

The strongest conformance statement the repo can make about its engines:
for every suite test, the enumerative search and the SAT-based instance
enumeration produce the *same full outcome set* (not merely the same
verdict), the single-query symbolic engine agrees on the verdict, and a
certified symbolic run both agrees and carries checked certificates.
"""

import pytest

from repro.kodkod.litmus import UnsupportedProgram, symbolic_outcomes
from repro.litmus import SUITE, Expect, RunConfig, run_litmus

pytestmark = pytest.mark.slow


def _symbolic_supported(test):
    try:
        return frozenset(symbolic_outcomes(test))
    except UnsupportedProgram:
        return None


@pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
def test_full_outcome_sets_agree(test):
    """Enumerative and symbolic-enum agree on the complete outcome set."""
    enumerative = run_litmus(test, engine="enumerative")
    assert enumerative.status == "ok"
    symbolic = _symbolic_supported(test)
    if symbolic is None:
        pytest.skip("program outside the symbolic fragment")
    assert symbolic == enumerative.outcomes


@pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
def test_verdicts_agree_across_all_engines(test):
    results = {
        engine: run_litmus(test, engine=engine)
        for engine in ("enumerative", "symbolic", "symbolic-enum")
    }
    verdicts = {e: r.verdict for e, r in results.items()}
    assert len(set(verdicts.values())) == 1, verdicts


def test_certified_symbolic_agreement():
    """The symbolic side re-run with certification: verdicts still agree
    and every FORBIDDEN verdict carries a checked certificate."""
    config = RunConfig(engine="symbolic", certify=True)
    for test in SUITE:
        certified = run_litmus(test, config=config)
        baseline = run_litmus(test, engine="enumerative")
        assert certified.verdict == baseline.verdict, test.name
        if certified.verdict is Expect.FORBIDDEN:
            # every FORBIDDEN verdict carries a certificate record: a
            # checked DRAT refutation, or an explicit skip with a reason
            cert = certified.certificate
            assert cert is not None, test.name
            assert cert.verified or (
                cert.status == "skipped" and cert.detail
            ), (test.name, cert)


@pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
def test_bitset_and_frozenset_kernels_agree(test):
    """The two relation kernels of the enumerative engine — compiled
    checkers over bitsets and the frozenset reference — produce the same
    full outcome set on every suite test."""
    from repro.litmus.runner import partition_opts
    from repro.search.ptx_search import allowed_outcomes

    opts, _ = partition_opts("ptx", dict(test.search_opts))
    compiled = allowed_outcomes(test.program, kernel="compiled", **opts)
    assert compiled == allowed_outcomes(test.program, kernel="set", **opts)
