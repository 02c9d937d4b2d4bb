"""One static pass per program: the skeleton and vocabulary every engine reads.

Every engine that judges a program — the staged enumerator behind the
model zoo (PTX included) and rf-check, the total-co reference
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
entry at most once, on first use, directly as a bitset over its
universe; the :class:`Relation` form is derived from the bits only when
a reader asks for it (the ``set`` kernel, the interpreter, the SAT
bounds).  :func:`signature_env` binds a model signature's names from
it.  :class:`StaticPass` is the vocabulary of a program's skeleton,
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
from typing import Callable, Dict, FrozenSet, List, Tuple

from ..core.execution import Execution, by_location, program_order
from ..core.scopes import scope_includes
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
    space = Universe(events)
    facts = _EventFacts(space)
    po_bits = BitRel.from_relation(space, po)
    return _moral_strength(
        facts, po_bits, _scope_inclusion(facts)
    ).to_relation()


# ----------------------------------------------------------------------
# event predicates (the signatures' set vocabulary)
# ----------------------------------------------------------------------

#: event-class predicates: each reads only the event's kind and
#: semantics (its instruction class), never its thread, scope or location
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


#: (kind, sem) -> the predicates an event of that class satisfies, and
#: whether it is a memory and a strong event.  Every predicate reads only
#: an event's kind and semantics, so events are classified per class.
_CLASSES: Dict[tuple, Tuple[Tuple[str, ...], bool, bool]] = {}


def _event_class(event: Event) -> Tuple[Tuple[str, ...], bool, bool]:
    key = (event.kind, event.sem)
    found = _CLASSES.get(key)
    if found is None:
        found = _CLASSES[key] = (
            tuple(name for name, test in PREDICATES.items() if test(event)),
            event.is_memory,
            event.is_strong,
        )
    return found


# ----------------------------------------------------------------------
# base-relation builders (the signatures' relation vocabulary)
#
# Each builds its relation directly as bit rows over the vocabulary's
# universe: row i is the successor mask of event i.  The per-event
# classes they combine (threads, locations, memory/strong/init masks) are
# read once per universe (:class:`_EventFacts`).
# ----------------------------------------------------------------------

class _EventFacts:
    """The per-event classes the vocabulary combines, as masks over one
    universe, read in one pass over its events: every predicate's events,
    the memory, strong and init events, and per event its thread (as an
    index into :attr:`threads`), location and scope."""

    def __init__(self, space: Universe) -> None:
        self.space = space
        #: the distinct threads, and per thread index its events
        self.threads: List[object] = []
        self.thread_masks: List[int] = []
        thread_index: Dict[object, int] = {}
        self.loc_masks: Dict[str, int] = {}
        #: (thread index, scope) -> the scoped events naming that scope
        self.named: Dict[tuple, int] = {}
        self.predicates = dict.fromkeys(PREDICATES, 0)
        thread_of, locs, scopes = [], [], []
        memory = strong = 0
        init = None
        for i, e in enumerate(space.atoms):
            bit = 1 << i
            t = thread_index.get(e.thread)
            if t is None:
                t = thread_index[e.thread] = len(self.threads)
                self.threads.append(e.thread)
                self.thread_masks.append(0)
                if is_init(e):
                    init = t
            self.thread_masks[t] |= bit
            thread_of.append(t)
            locs.append(e.loc)
            scopes.append(e.scope)
            if e.loc is not None:
                self.loc_masks[e.loc] = self.loc_masks.get(e.loc, 0) | bit
            if e.scope is not None:
                key = (t, e.scope)
                self.named[key] = self.named.get(key, 0) | bit
            names, is_memory, is_strong = _event_class(e)
            if is_memory:
                memory |= bit
            if is_strong:
                strong |= bit
            for name in names:
                self.predicates[name] |= bit
        self.thread_of, self.locs, self.scopes = thread_of, locs, scopes
        self.memory, self.strong = memory, strong
        self.init = 0 if init is None else self.thread_masks[init]


def _scope_inclusion(facts: _EventFacts) -> BitRel:
    """Distinct scoped event pairs whose scopes mutually include each
    other's threads (§4.1).  Inclusion is decided once per (thread, scope)
    and thread, not per event pair."""
    named, threads = facts.named, facts.threads
    scoped = 0
    for mask in named.values():
        scoped |= mask
    scoped_threads = sorted({t for t, _ in named})
    #: the scoped events whose thread each (thread, scope) includes
    covers = dict.fromkeys(named, 0)
    #: per thread index, the scoped events whose scope includes it
    covered_by = [0] * len(threads)
    for key, mask in named.items():
        thread, scope = threads[key[0]], key[1]
        for t in scoped_threads:
            if scope_includes(thread, scope, threads[t]):
                covers[key] |= facts.thread_masks[t] & scoped
                covered_by[t] |= mask
    rows = []
    for i, (t, scope) in enumerate(zip(facts.thread_of, facts.scopes)):
        if scope is None:
            rows.append(0)
        else:
            rows.append(covers[(t, scope)] & covered_by[t] & ~(1 << i))
    return BitRel._make(facts.space, tuple(rows))


def _moral_strength(
    facts: _EventFacts, po: BitRel, incl: BitRel
) -> BitRel:
    """Morally strong pairs: po-related either way or both strong and
    mutually scope-inclusive (strong events always name a scope), minus
    memory pairs on different locations."""
    po_rows, incl_rows, back = po.rows, incl.rows, po.transpose().rows
    strong, memory = facts.strong, facts.memory
    rows = []
    for i, loc in enumerate(facts.locs):
        bit = 1 << i
        row = po_rows[i] | back[i]
        if strong & bit:
            row |= incl_rows[i] & strong
        if memory & bit:
            row &= ~memory | facts.loc_masks[loc]
        rows.append(row & ~bit)
    return BitRel._make(facts.space, tuple(rows))


def _from_execution(name: str) -> Callable[["Vocabulary"], BitRel]:
    """A syntactic relation of the execution, as bits."""
    return lambda v: BitRel.from_relation(
        v.universe, v.execution.relation(name)
    )


def _build_sloc(v: "Vocabulary") -> BitRel:
    """Distinct memory events on the same location."""
    masks = v.facts.loc_masks
    return BitRel._make(v.universe, tuple(
        0 if loc is None else masks[loc] & ~(1 << i)
        for i, loc in enumerate(v.facts.locs)
    ))


def _init_edges(v: "Vocabulary") -> BitRel:
    """Init writes ordered before every program event."""
    init = v.facts.init
    program = v.universe.full & ~init
    return BitRel._make(v.universe, tuple(
        program if init >> i & 1 else 0 for i in range(v.universe.n)
    ))


def _build_internal(v: "Vocabulary") -> BitRel:
    """Same-thread (internal) event pairs, both directions."""
    masks = v.facts.thread_masks
    return BitRel._make(v.universe, tuple(
        masks[t] & ~(1 << i) for i, t in enumerate(v.facts.thread_of)
    ))


def _build_ppo_tso(v: "Vocabulary") -> BitRel:
    """TSO preserved program order: po minus write-to-read pairs."""
    facts = v.facts
    memory = facts.memory
    read, write = facts.predicates["read"], facts.predicates["write"]
    rows = []
    for i, row in enumerate(v.bits("po").rows):
        bit = 1 << i
        if not memory & bit:
            rows.append(0)
        elif write & bit:
            rows.append(row & memory & ~read)
        else:
            rows.append(row & memory)
    return BitRel._make(v.universe, tuple(rows))


def _build_fence_tso(v: "Vocabulary") -> BitRel:
    """TSO fence order: memory pairs with a fencing endpoint (any fence
    or atomic half, §2.2) or an intervening fence."""
    rmw = v.bits("rmw")
    atomic = rmw.domain().mask | rmw.range().mask
    fence, memory = v.facts.predicates["fence"], v.facts.memory
    po = v.bits("po").rows
    rows = []
    for i, row in enumerate(po):
        if not memory >> i & 1:
            rows.append(0)
            continue
        row &= memory
        if not atomic >> i & 1:
            # a later atomic half, or a memory event past a fence between
            through, fences = 0, po[i] & fence
            while fences:
                low = fences & -fences
                through |= po[low.bit_length() - 1]
                fences ^= low
            row &= atomic | through
        rows.append(row)
    return BitRel._make(v.universe, tuple(rows))


def _build_rfe(rf: Relation) -> Relation:
    """Cross-thread (external) reads-from."""
    return Relation((w, r) for w, r in rf if w.thread != r.thread)


@dataclass(frozen=True)
class Builder:
    """One base-relation builder: ``fn(vocabulary)``, the relation as a
    :class:`BitRel` over the vocabulary's universe — or ``fn(rf)``, a
    :class:`Relation` from a :class:`Relation`, for builders that must be
    recomputed per reads-from choice."""

    fn: Callable
    witness_deps: FrozenSet[str] = frozenset()


BUILDERS: Dict[str, Builder] = {
    "po": Builder(lambda v: BitRel.from_relation(v.universe, v.po)),
    "sloc": Builder(_build_sloc),
    "po_loc": Builder(lambda v: v.bits("po") & v.bits("sloc")),
    "rmw": Builder(_from_execution("rmw")),
    "dep": Builder(_from_execution("dep")),
    "syncbarrier": Builder(_from_execution("syncbarrier")),
    "morally_strong": Builder(
        lambda v: _moral_strength(v.facts, v.bits("po"), v.bits("incl"))
    ),
    # sequenced-before flavours: po extended with init-first edges, with
    # (sb_sync) or without (sb_init) the CTA execution-barrier edges
    "sb_sync": Builder(
        lambda v: v.bits("po") | _init_edges(v) | v.bits("syncbarrier")
    ),
    "sb_init": Builder(lambda v: v.bits("po") | _init_edges(v)),
    "incl": Builder(lambda v: _scope_inclusion(v.facts)),
    "internal": Builder(_build_internal),
    "ppo_tso": Builder(_build_ppo_tso),
    "fence_tso": Builder(_build_fence_tso),
    "rfe": Builder(_build_rfe, witness_deps=frozenset({"rf"})),
}

#: entries whose :class:`Relation` form the execution already holds
_SYNTACTIC = frozenset({"po", "rmw", "dep", "syncbarrier"})


# ----------------------------------------------------------------------
# the lazily computed vocabulary
# ----------------------------------------------------------------------

class Vocabulary:
    """:data:`PREDICATES` and :data:`BUILDERS` over one static execution,
    each entry computed at most once, on first use.

    ``bits(name)`` is the entry as a :class:`BitSet` (predicates) or
    :class:`BitRel` (builders) over :attr:`universe`, which is how every
    entry is built.  ``relation(name)`` is the same entry as a
    :class:`Relation`, derived from the bits on first request, for the
    readers that need one (the ``set`` kernel, the interpreter and the
    SAT bounds).  The execution supplies the events and the syntactic
    relations ``po``, ``rmw``, ``dep`` and ``syncbarrier``; init writes
    are recognised by their thread.
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
    def facts(self) -> _EventFacts:
        return _EventFacts(self.universe)

    @cached_property
    def atom_set(self) -> Relation:
        """Every event, as a set (the ``set`` kernel's ``univ``)."""
        return Relation.set_of(self.events)

    def bits(self, name: str):
        value = self._bits.get(name)
        if value is None:
            if name in PREDICATES:
                value = BitSet(self.universe, self.facts.predicates[name])
            else:
                value = BUILDERS[name].fn(self)
            self._bits[name] = value
        return value

    def relation(self, name: str) -> Relation:
        value = self._relations.get(name)
        if value is None:
            if name in _SYNTACTIC:
                value = self.execution.relation(name)
            else:
                value = self.bits(name).to_relation()
            self._relations[name] = value
        return value


def signature_env(
    signature, vocabulary: Vocabulary, bitset: bool = False
) -> Env:
    """The static environment of a model signature over ``vocabulary``.

    Binds each of the signature's set names to its predicate's events and
    each relation name to its builder's value; the witnesses and the
    rf-dependent relations are left to the enumeration.  ``bitset`` picks
    the dense representation the compiled kernel folds its constants in
    (built without any :class:`Relation`).
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
