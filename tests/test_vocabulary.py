"""The bit-native vocabulary against a naive ``Relation`` reference.

Every :data:`~repro.ptx.static.PREDICATES` / :data:`~repro.ptx.static.BUILDERS`
entry is built directly as bit rows over the program's universe.  The
reference below builds each one the obvious way, as a :class:`Relation`
of event pairs straight from the definitions (§4.1, §8.6 and the TSO
fence rules of §2.2).  Both forms of every entry — the bits and the
``Relation`` derived from them — must equal it on the suite, CORPUS4 and
fresh fuzz programs.
"""

import pytest

from repro.core.execution import same_location
from repro.core.scopes import mutually_inclusive
from repro.fuzz import generate_case
from repro.litmus import SUITE
from repro.litmus.corpus import corpus_length4
from repro.ptx.events import is_init
from repro.ptx.model import moral_strength
from repro.ptx.static import BUILDERS, PREDICATES, Vocabulary, static_pass
from repro.relation import BitRel, BitSet, Relation

FUZZ_SEEDS = (20261016, 7)
FUZZ_CASES = 64


# ----------------------------------------------------------------------
# the naive reference: Relations of Event pairs, straight from the
# definitions
# ----------------------------------------------------------------------

def _ref_moral_strength(events, po):
    pairs = []
    for a in events:
        for b in events:
            if a is b:
                continue
            if a.is_memory and b.is_memory and a.loc != b.loc:
                continue
            if (a, b) in po or (b, a) in po:
                pairs.append((a, b))
                continue
            if not (a.is_strong and b.is_strong):
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


def _ref_init_edges(events):
    return Relation(
        (init, event)
        for init in events if is_init(init)
        for event in events if not is_init(event)
    )


def _ref_incl(events):
    return Relation(
        (a, b)
        for a in events
        for b in events
        if a is not b and a.scope is not None and b.scope is not None
        and mutually_inclusive(a.thread, a.scope, b.thread, b.scope)
    )


def _ref_fence_tso(events, po, rmw):
    atomic = {e for pair in rmw for e in pair}

    def fencing(e):
        return e.is_fence or e in atomic

    return Relation(
        (a, b)
        for a, b in po
        if a.is_memory and b.is_memory
        and (fencing(a) or fencing(b) or any(
            e.is_fence and (a, e) in po and (e, b) in po for e in events
        ))
    )


def reference(execution, name):
    """``name``'s entry over ``execution``, built as a Relation."""
    events = execution.events
    predicate = PREDICATES.get(name)
    if predicate is not None:
        return Relation.set_of(e for e in events if predicate(e))
    po = execution.relation("po")
    if name in ("po", "rmw", "dep", "syncbarrier"):
        return execution.relation(name)
    if name == "sloc":
        return same_location(events)
    if name == "po_loc":
        return po & same_location(events)
    if name == "morally_strong":
        return _ref_moral_strength(events, po)
    if name == "sb_sync":
        return (
            po | _ref_init_edges(events) | execution.relation("syncbarrier")
        )
    if name == "sb_init":
        return po | _ref_init_edges(events)
    if name == "incl":
        return _ref_incl(events)
    if name == "internal":
        return Relation(
            (a, b) for a in events for b in events
            if a is not b and a.thread == b.thread
        )
    if name == "ppo_tso":
        return Relation(
            (a, b) for a, b in po
            if a.is_memory and b.is_memory
            and not (a.is_write and b.is_read)
        )
    if name == "fence_tso":
        return _ref_fence_tso(events, po, execution.relation("rmw"))
    raise KeyError(name)


STATIC_NAMES = sorted(PREDICATES) + sorted(
    name for name, builder in BUILDERS.items() if not builder.witness_deps
)


def _programs():
    programs = [(t.name, t.program) for t in SUITE]
    programs += [
        (f"{name}/{variant}", generated.test.program)
        for name, variant, generated in corpus_length4()
    ]
    for seed in FUZZ_SEEDS:
        programs += [
            (f"fuzz-{seed}-{index}", generate_case(seed, index).test.program)
            for index in range(FUZZ_CASES)
        ]
    return programs


PROGRAMS = _programs()


def _check(vocabulary, execution, label):
    for name in STATIC_NAMES:
        expected = reference(execution, name)
        bits = vocabulary.bits(name)
        kind = BitSet if name in PREDICATES else BitRel
        assert isinstance(bits, kind), (label, name)
        assert bits.u is vocabulary.universe, (label, name)
        assert bits.to_relation() == expected, (label, name)
        assert vocabulary.relation(name) == expected, (label, name)


@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_bit_native_vocabulary_matches_reference(label, program):
    sp = static_pass(program)
    _check(sp, sp.execution, label)
    # a plain Vocabulary over an execution built elsewhere agrees too
    _check(Vocabulary(sp.execution), sp.execution, label)


def test_reference_covers_every_static_entry():
    execution = static_pass(SUITE[0].program).execution
    for name in STATIC_NAMES:
        reference(execution, name)


def test_moral_strength_function_matches_reference():
    for label, program in PROGRAMS[:80]:
        execution = static_pass(program).execution
        po = execution.relation("po")
        assert moral_strength(execution.events, po) == _ref_moral_strength(
            execution.events, po
        ), label

