"""Conformance and caching tests for the compiled relation kernel.

The compiled kernel (``kernel="compiled"``) replaces per-candidate cat
interpretation with per-(model, test-signature) specialized functions
and replaces per-leaf Warshall closures with an incremental closure.
Its contract is the same outcome sets, the same search counters (rf
assignments, prunes, candidates, per-axiom failures) and the same
verdict digests as the ``set`` reference kernel, on every surface the
repo checks (hand-written suite, generated corpora, distilled regression
corpus).  Memo hit/miss counters are interpreter telemetry: the
compiled kernel keeps none, so they are left out of the comparison.
The ``three_kernels`` test ids date from when an interpreted bitset
kernel sat between the two; they are kept so results stay comparable.

The cache tests pin the economics: one template per axiom structure,
one instance per (model, test-signature), cache hits on every re-run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.compile import (
    clear_compile_cache,
    compile_cache_stats,
    program_signature,
)
from repro.litmus import SUITE, RunConfig, run_litmus
from repro.litmus.corpus import corpus_length4, regression_corpus
from repro.litmus.runner import partition_opts
from repro.litmus.serialize import verdict_digest
from repro.relation import BitRel, Universe
from repro.search.posets import oriented_orders, oriented_orders_incremental
from repro.search.ptx_search import allowed_outcomes
from repro.search.records import EnumStats

pytestmark = pytest.mark.slow

KERNELS = ("set", "compiled")

CORPUS4 = list(corpus_length4())


#: interpreter-only telemetry, excluded from the kernel comparison
_MEMO_COUNTERS = ("memo_hits", "memo_misses")


def _outcomes_and_stats(program, kernel, opts=None):
    stats = EnumStats()
    outcomes = allowed_outcomes(
        program, kernel=kernel, stats=stats, **(opts or {})
    )
    counters = {
        name: value
        for name, value in stats.as_dict().items()
        if name not in _MEMO_COUNTERS
    }
    return outcomes, counters


# ----------------------------------------------------------------------
# kernel agreement: outcomes AND search counters
# ----------------------------------------------------------------------

@pytest.mark.parametrize("test", SUITE, ids=lambda t: t.name)
def test_three_kernels_agree_on_suite(test):
    """set and compiled produce identical outcome sets *and* identical
    search counters on every hand-written suite test.  The engines count
    the search outside the kernel, so a kernel that changes a prune
    count evaluates some axiom differently."""
    opts, _ = partition_opts("ptx", dict(test.search_opts))
    assert _outcomes_and_stats(test.program, "compiled", opts) == \
        _outcomes_and_stats(test.program, "set", opts)


@pytest.mark.parametrize(
    "name,variant,generated",
    CORPUS4,
    ids=[f"{name}@{variant}" for name, variant, _ in CORPUS4],
)
def test_three_kernels_agree_on_corpus4(name, variant, generated):
    """Same agreement over the synthesised length-4 external corpus."""
    program = generated.test.program
    assert _outcomes_and_stats(program, "compiled") == \
        _outcomes_and_stats(program, "set")


def test_verdict_digests_agree_on_regression_corpus():
    """Full ``run_litmus`` results on the distilled regression corpus
    hash identically under both kernels."""
    for test in regression_corpus():
        digests = {
            kernel: verdict_digest(
                run_litmus(test, config=RunConfig(kernel=kernel))
            )
            for kernel in KERNELS
        }
        assert len(set(digests.values())) == 1, (test.name, digests)


# ----------------------------------------------------------------------
# hypothesis: the incremental closure enumerates exactly what the
# per-leaf Warshall enumeration does
# ----------------------------------------------------------------------

@st.composite
def _orientation_problems(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    atoms = list(range(n))
    pair = st.tuples(
        st.sampled_from(atoms), st.sampled_from(atoms)
    ).filter(lambda ab: ab[0] != ab[1])
    forced = draw(st.lists(pair, max_size=6))
    required = draw(
        st.lists(pair.map(frozenset), max_size=5)
    )
    return atoms, forced, required


@given(_orientation_problems())
@settings(max_examples=200, deadline=None)
def test_incremental_orders_match_warshall_orders(problem):
    """``oriented_orders_incremental`` yields the *identical sequence*
    (same orders, same order of discovery) as the re-close-per-leaf
    enumerator, for arbitrary forced edges and required pairs —
    including cyclic forced sets (both yield nothing) and pairs already
    decided by the forced closure (neither branches)."""
    atoms, forced_pairs, required = problem
    u = Universe(atoms)
    forced = BitRel.from_pairs(u, forced_pairs)
    baseline = [frozenset(order) for order in oriented_orders(required, forced)]
    incremental = [
        frozenset(order)
        for order in oriented_orders_incremental(required, forced)
    ]
    assert incremental == baseline


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=50, deadline=None)
def test_three_kernels_agree_on_random_corpus_samples(seed):
    """Property form of the corpus agreement: hypothesis picks the
    corpus entries."""
    name, variant, generated = CORPUS4[seed % len(CORPUS4)]
    program = generated.test.program
    assert _outcomes_and_stats(program, "compiled") == \
        _outcomes_and_stats(program, "set")


# ----------------------------------------------------------------------
# compile-cache economics
# ----------------------------------------------------------------------

def test_one_compilation_per_test_signature():
    """A suite sweep compiles each (model, test-signature) exactly once;
    a second sweep is all cache hits and zero new compilations."""
    clear_compile_cache()
    try:
        for test in SUITE:
            opts, _ = partition_opts("ptx", dict(test.search_opts))
            allowed_outcomes(test.program, kernel="compiled", **opts)
        first = compile_cache_stats()
        signatures = {program_signature(t.program) for t in SUITE}
        assert first["instances"] == len(signatures)
        # axiom structure is shared: one template serves every instance
        assert first["templates"] == 1
        for test in SUITE:
            opts, _ = partition_opts("ptx", dict(test.search_opts))
            allowed_outcomes(test.program, kernel="compiled", **opts)
        second = compile_cache_stats()
        assert second["instances"] == first["instances"]
        assert second["templates"] == first["templates"]
        assert second["hits"] > first["hits"]
    finally:
        clear_compile_cache()


def test_program_signature_is_stable_and_discriminating():
    """Signatures are deterministic per program and distinct across
    structurally different suite programs (the instance-cache key must
    not collide)."""
    for test in SUITE:
        assert program_signature(test.program) == program_signature(
            test.program
        )
    signatures = [program_signature(t.program) for t in SUITE]
    assert len(set(signatures)) == len(signatures)
