"""One static pass per program: the skeleton and vocabulary every engine reads.

Every engine that judges a program — the staged enumerator behind the
native PTX front, rf-check and the model zoo, the total-co reference
search, and the SAT encoder and its instance decoder — starts from the
same static side of the program: its elaboration, the init writes, the
candidate-execution skeleton, one atom :class:`~repro.relation.Universe`,
and the event sets and base relations its model's signature names.
:func:`static_pass` computes that side once per
:class:`~repro.ptx.program.Program` *object*, memoized weakly by
identity: the pass is dropped with its program (or once 256 more
recently used programs have passes), and two equal but distinct
programs get independent passes.

The vocabulary is two tables, :data:`PREDICATES` (event sets) and
:data:`BUILDERS` (base relations).  A :class:`Vocabulary` computes each
entry at most once, on first use, as a :class:`Relation` and as a bitset
over its universe; :func:`signature_env` binds a model signature's names
from it.  :class:`StaticPass` is the vocabulary of a program's skeleton,
plus the tables the staged enumeration derives from the program alone
(reads, rf choices, valuation eids, rf bit positions, coherence seeds and
the total coherence orders).  It also keeps the program's translated SAT
problems (:func:`repro.kodkod.litmus.ptx_problem`), so both symbolic
engines read one translation.  Everything a pass hands out is shared by
every engine that reads the program, so none of it may be mutated: the
skeleton's relation mapping is read-only.
"""

from __future__ import annotations

import functools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Tuple

from ..core.execution import (
    Execution, by_location, program_order, same_location,
)
from ..core.scopes import mutually_inclusive
from ..lang.biteval import BitEnv
from ..lang.compile import program_signature
from ..lang.eval import Env
from ..relation import BitRel, BitSet, Relation, Universe
from ..search.posets import total_coherence_orders
from .events import Event, Sem, init_write, is_init
from .program import Program, elaborate


def moral_strength(events: Tuple[Event, ...], po: Relation) -> Relation:
    """The morally-strong relation (§8.6).

    Two distinct operations are morally strong iff

    1. they are related in program order, **or** each is strong and names a
       scope including the thread executing the other; and
    2. if both are memory operations, they overlap (same location).

    The relation is symmetric by construction.
    """
    pairs = []
    po_pairs = po.tuples
    # each event's classification, read once instead of once per pair
    facts = [(e, e.is_memory, e.is_strong) for e in events]
    for a, a_memory, a_strong in facts:
        for b, b_memory, b_strong in facts:
            if a is b:
                continue
            if a_memory and b_memory and a.loc != b.loc:
                continue
            if (a, b) in po_pairs or (b, a) in po_pairs:
                pairs.append((a, b))
                continue
            if not (a_strong and b_strong):
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


# ----------------------------------------------------------------------
# event predicates (the signatures' set vocabulary)
# ----------------------------------------------------------------------

PREDICATES: Dict[str, Callable[[Event], bool]] = {
    "read": lambda e: e.is_read,
    "write": lambda e: e.is_write,
    "fence": lambda e: e.is_fence,
    "release_write": lambda e: e.is_write and e.sem.releases,
    "acquire_read": lambda e: e.is_read and e.sem.acquires,
    "strong_write": lambda e: e.is_write and e.is_strong,
    "strong_read": lambda e: e.is_read and e.is_strong,
    "release_fence": lambda e: e.is_fence and e.sem.releases,
    "acquire_fence": lambda e: e.is_fence and e.sem.acquires,
    "sc_fence": lambda e: e.is_fence and e.sem is Sem.SC,
    # RC11-family classes over PTX events: strong = atomic
    "release_like": lambda e: not e.is_read and e.sem.releases,
    "acquire_like": lambda e: not e.is_write and e.sem.acquires,
    "sc_memory": lambda e: e.is_memory and e.sem is Sem.SC,
}


# ----------------------------------------------------------------------
# base-relation builders (the signatures' relation vocabulary)
# ----------------------------------------------------------------------

def _init_edges(v: "Vocabulary") -> Relation:
    """Init writes ordered before every program event."""
    return Relation(
        (init, event) for init in v.init_events for event in v.program_events
    )


def _build_incl(v: "Vocabulary") -> Relation:
    """Scope inclusion over PTX events: distinct scoped (strong) pairs
    whose scopes mutually include each other's threads (§4.1)."""
    pairs = []
    for a in v.events:
        for b in v.events:
            if a is b or a.scope is None or b.scope is None:
                continue
            if mutually_inclusive(a.thread, a.scope, b.thread, b.scope):
                pairs.append((a, b))
    return Relation(pairs)


def _build_internal(v: "Vocabulary") -> Relation:
    """Same-thread (internal) event pairs, both directions."""
    return Relation(
        (a, b)
        for a in v.events
        for b in v.events
        if a is not b and a.thread == b.thread
    )


def _build_ppo_tso(v: "Vocabulary") -> Relation:
    """TSO preserved program order: po minus write-to-read pairs."""
    return Relation(
        (a, b)
        for a, b in v.po
        if a.is_memory and b.is_memory
        and not (a.is_write and b.is_read)
    )


def _tso_fencing(v: "Vocabulary"):
    atomic_halves = {e for pair in v.relation("rmw") for e in pair}
    return lambda e: e.is_fence or e in atomic_halves


def _build_fence_tso(v: "Vocabulary") -> Relation:
    """TSO fence order: memory pairs with a fencing endpoint (any fence
    or atomic half, §2.2) or an intervening fence."""
    is_fencing = _tso_fencing(v)
    pairs = []
    for a, b in v.po:
        if not (a.is_memory and b.is_memory):
            continue
        if is_fencing(a) or is_fencing(b) or any(
            e.is_fence and (a, e) in v.po and (e, b) in v.po
            for e in v.events
        ):
            pairs.append((a, b))
    return Relation(pairs)


def _build_rfe(rf: Relation) -> Relation:
    """Cross-thread (external) reads-from."""
    return Relation((w, r) for w, r in rf if w.thread != r.thread)


@dataclass(frozen=True)
class Builder:
    """One base-relation builder: ``fn(vocabulary)`` over a static
    skeleton — or ``fn(rf)`` for builders that must be recomputed per
    reads-from choice."""

    fn: Callable
    witness_deps: FrozenSet[str] = frozenset()


BUILDERS: Dict[str, Builder] = {
    "po": Builder(lambda v: v.po),
    "sloc": Builder(lambda v: same_location(v.events)),
    "po_loc": Builder(lambda v: v.po & v.relation("sloc")),
    "rmw": Builder(lambda v: v.execution.relation("rmw")),
    "dep": Builder(lambda v: v.execution.relation("dep")),
    "syncbarrier": Builder(lambda v: v.execution.relation("syncbarrier")),
    "morally_strong": Builder(lambda v: moral_strength(v.events, v.po)),
    # sequenced-before flavours: po extended with init-first edges, with
    # (sb_sync) or without (sb_init) the CTA execution-barrier edges
    "sb_sync": Builder(
        lambda v: v.po | _init_edges(v) | v.relation("syncbarrier")
    ),
    "sb_init": Builder(lambda v: v.po | _init_edges(v)),
    "incl": Builder(_build_incl),
    "internal": Builder(_build_internal),
    "ppo_tso": Builder(_build_ppo_tso),
    "fence_tso": Builder(_build_fence_tso),
    "rfe": Builder(_build_rfe, witness_deps=frozenset({"rf"})),
}


# ----------------------------------------------------------------------
# the lazily computed vocabulary
# ----------------------------------------------------------------------

class Vocabulary:
    """:data:`PREDICATES` and :data:`BUILDERS` over one static execution,
    each entry computed at most once, on first use.

    ``relation(name)`` is the entry as a :class:`Relation`, ``bits(name)``
    as a :class:`BitSet` (predicates) or :class:`BitRel` (builders) over
    :attr:`universe`.  The execution supplies the events and the
    syntactic relations ``po``, ``rmw``, ``dep`` and ``syncbarrier``; init
    writes are recognised by their thread.
    """

    def __init__(self, execution: Execution) -> None:
        self.execution = execution
        self.events = execution.events
        self.po = execution.relation("po")
        self._relations: Dict[str, Relation] = {}
        self._bits: Dict[str, object] = {}

    @cached_property
    def init_events(self) -> Tuple[Event, ...]:
        return tuple(e for e in self.events if is_init(e))

    @cached_property
    def program_events(self) -> Tuple[Event, ...]:
        return tuple(e for e in self.events if not is_init(e))

    @cached_property
    def universe(self) -> Universe:
        """The one atom universe every bitset of this vocabulary indexes."""
        return Universe(self.events)

    @cached_property
    def atom_set(self) -> Relation:
        """Every event, as a set (the ``set`` kernel's ``univ``)."""
        return Relation.set_of(self.events)

    def relation(self, name: str) -> Relation:
        value = self._relations.get(name)
        if value is None:
            predicate = PREDICATES.get(name)
            if predicate is not None:
                value = Relation.set_of(e for e in self.events if predicate(e))
            else:
                value = BUILDERS[name].fn(self)
            self._relations[name] = value
        return value

    def bits(self, name: str):
        value = self._bits.get(name)
        if value is None:
            make = BitSet if name in PREDICATES else BitRel
            value = make.from_relation(self.universe, self.relation(name))
            self._bits[name] = value
        return value


def signature_env(
    signature, vocabulary: Vocabulary, bitset: bool = False
) -> Env:
    """The static environment of a model signature over ``vocabulary``.

    Binds each of the signature's set names to its predicate's events and
    each relation name to its builder's value; the witnesses and the
    rf-dependent relations are left to the enumeration.  ``bitset`` picks
    the dense representation the compiled kernel folds its constants in.
    """
    value = vocabulary.bits if bitset else vocabulary.relation
    bindings = {name: value(predicate) for name, predicate in signature.sets}
    for name, builder in signature.relations:
        if not BUILDERS[builder].witness_deps:
            bindings[name] = value(builder)
    if not bitset:
        return Env(universe=vocabulary.atom_set, bindings=bindings)
    space = vocabulary.universe
    return BitEnv(
        universe=BitSet(space, space.full), bindings=bindings, space=space
    )


# ----------------------------------------------------------------------
# the per-program pass
# ----------------------------------------------------------------------

class StaticPass(Vocabulary):
    """Everything about one program that no witness choice changes.

    ``execution`` is the candidate-execution skeleton: the elaborated
    events followed by one init write per location (eids after the
    program's), binding ``po``, ``rmw``, ``dep`` and ``syncbarrier``, with
    ``rf``, ``co`` and ``sc`` empty.  The rf-side tables every staged
    engine reads are built with the pass; the signature, the coherence
    spaces and the vocabulary on first use.
    """

    def __init__(self, program: Program) -> None:
        elab = elaborate(program)
        init_events = tuple(
            init_write(eid=len(elab.events) + index, loc=loc)
            for index, loc in enumerate(program.locations)
        )
        events = elab.events + init_events
        empty = Relation.empty(2)
        relations = MappingProxyType({
            "po": program_order(elab.by_thread), "rf": empty, "co": empty,
            "sc": empty, "rmw": elab.rmw, "dep": elab.dep,
            "syncbarrier": elab.syncbarrier,
        })
        super().__init__(Execution(events=events, relations=relations))
        self.elab = elab
        self.init_events = init_events
        self.program_events = elab.events
        self.universe = Universe(events)
        self._program = weakref.ref(program)
        #: the program's translated SAT problems, one per litmus condition
        #: (:func:`repro.kodkod.litmus.ptx_problem`); they live as long as
        #: the pass
        self.sat_problems: Dict[object, object] = {}

        # the rf side
        reads = self.reads = tuple(e for e in elab.events if e.is_read)
        self.all_writes = tuple(e for e in events if e.is_write)
        writes_by_loc = self.writes_by_loc = {
            loc: tuple(writes)
            for loc, writes in by_location(self.all_writes).items()
        }
        #: per read (in ``reads`` order), the writes it may read
        self.rf_choices = tuple(writes_by_loc[read.loc] for read in reads)
        #: the init writes' stored values
        self.base_values = {event.eid: 0 for event in init_events}
        #: the eids a valuation assigns: reads, writes, init writes
        self.val_eids = tuple(sorted(
            {read.eid for read in reads}
            | set(elab.write_recipe) | set(self.base_values)
        ))
        # per read, each candidate write's (row, bit) in an rf bitset:
        # building rf for an assignment is a few shifts.  Indices are
        # positions in the skeleton's event order, so they hold in any
        # universe over these events.
        index = self.universe.index
        self.rf_bits = tuple(
            {write: (index[write], 1 << index[read]) for write in choices}
            for read, choices in zip(reads, self.rf_choices)
        )

    @cached_property
    def signature(self) -> str:
        """The program's content hash (:func:`repro.lang.program_signature`,
        the compiled-instance cache key component), shared with every
        equal program alive."""
        return program_signature(self._program())

    # -- the coherence side --------------------------------------------

    def _init_co_pairs(self):
        """The co edges every coherence order holds: init writes first."""
        return (
            (init, other)
            for init in self.init_events
            for other in self.writes_by_loc[init.loc]
            if other is not init
        )

    def _ww_sloc_pairs(self):
        """Same-location write pairs, diagonal included."""
        return (
            (a, b)
            for group in self.writes_by_loc.values()
            for a in group
            for b in group
        )

    @cached_property
    def init_co(self) -> Relation:
        return Relation(self._init_co_pairs())

    @cached_property
    def init_co_bits(self) -> BitRel:
        return BitRel.from_pairs(self.universe, self._init_co_pairs())

    @cached_property
    def ww_sloc(self) -> Relation:
        return Relation(self._ww_sloc_pairs())

    @cached_property
    def ww_sloc_bits(self) -> BitRel:
        return BitRel.from_pairs(self.universe, self._ww_sloc_pairs())

    @cached_property
    def total_co(self) -> Tuple[Relation, ...]:
        """Every coherence witness of a total-co model (TSO, SC, the
        RC11 family): per location, its writes in some order, init
        first."""
        return tuple(total_coherence_orders(
            self.init_events, self.writes_by_loc
        ))

    @cached_property
    def total_co_bits(self) -> Tuple[BitRel, ...]:
        return tuple(
            BitRel.from_relation(self.universe, order)
            for order in self.total_co
        )


#: id(program) -> (weak reference to it, its pass), least recently used
#: first.  Identity, not equality: a lookup never hashes the program,
#: and equal but distinct programs share no pass.  The reference's
#: callback drops the entry with its program; the cap bounds what
#: long-lived programs (stored verdicts, say) keep alive, as the
#: compiled-instance cache does.
_PASSES: "OrderedDict[int, Tuple[weakref.ref, StaticPass]]" = OrderedDict()
_PASS_CAP = 256


def _forget(key: int, ref: "weakref.ref") -> None:
    entry = _PASSES.get(key)
    if entry is not None and entry[0] is ref:
        del _PASSES[key]


def static_pass(program: Program) -> StaticPass:
    """``program``'s static pass, computed on first use and kept until
    the program is dropped or is no longer among the most recently used
    :data:`_PASS_CAP`."""
    key = id(program)
    entry = _PASSES.get(key)
    if entry is not None and entry[0]() is program:
        _PASSES.move_to_end(key)
        return entry[1]
    sp = StaticPass(program)
    _PASSES[key] = (weakref.ref(program, functools.partial(_forget, key)), sp)
    while len(_PASSES) > _PASS_CAP:
        _PASSES.popitem(last=False)
    return sp
