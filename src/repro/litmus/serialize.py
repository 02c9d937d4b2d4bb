"""One serialization format for litmus tests and results.

Cache entries, worker IPC, and external exports all need the same thing:
a faithful, JSON-native rendering of :class:`~repro.litmus.test.LitmusTest`
and :class:`~repro.litmus.runner.LitmusResult` that round-trips exactly.
This module is that single format — everything is plain dicts/lists/
scalars, so ``json.dumps`` works directly and :func:`canonical_json`
yields a stable byte string suitable for content addressing.

Round-trip guarantees (enforced by ``tests/test_litmus_serialize.py``):

* ``test_from_dict(test_to_dict(t)) == t`` for every suite test,
* ``result_from_dict(result_to_dict(r)) == r`` including outcomes,
  solver stats, and status,
* canonical JSON is independent of dict insertion order.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..cert.records import Certificate
from ..core.scopes import Scope, SystemShape, ThreadId
from ..ptx.events import Sem
from ..ptx.isa import Atom, AtomOp, Bar, BarOp, Fence, Instruction, Ld, Red, St
from ..ptx.program import Program, ThreadCode
from ..sat.records import SolverStats
from ..schema import FORMAT_VERSION, assert_schema
from ..search.records import EnumStats, Outcome
from .conditions import AndC, Condition, MemEq, NotC, OrC, RegEq, TrueC

# FORMAT_VERSION lives in repro.schema (one place, re-exported here);
# this module pins the versions it renders so a half-applied schema bump
# fails at import.
assert_schema("repro.litmus.serialize", cache=10)


def canonical_json(payload) -> str:
    """Deterministic JSON text (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# scope tree
# ----------------------------------------------------------------------

def thread_id_to_obj(tid: ThreadId):
    return [tid.gpu, tid.cta, tid.thread]


def thread_id_from_obj(obj) -> ThreadId:
    gpu, cta, thread = obj
    return ThreadId(gpu=gpu, cta=cta, thread=thread)


def _shape_to_obj(shape: SystemShape) -> Dict:
    return {
        "gpus": shape.gpus,
        "ctas_per_gpu": shape.ctas_per_gpu,
        "threads_per_cta": shape.threads_per_cta,
        "host_threads": shape.host_threads,
    }


def _shape_from_obj(obj: Dict) -> SystemShape:
    return SystemShape(**obj)


# ----------------------------------------------------------------------
# instructions
# ----------------------------------------------------------------------

def _operands_to_obj(value):
    """Operands (and register tuples) as lists; scalars pass through."""
    if isinstance(value, tuple):
        return list(value)
    return value


def _operands_from_obj(value):
    if isinstance(value, list):
        return tuple(value)
    return value


def instruction_to_dict(instr: Instruction) -> Dict:
    if isinstance(instr, Ld):
        if instr.volatile:
            return {
                "op": "ld", "volatile": True, "vec": instr.vec,
                "dst": _operands_to_obj(instr.dst), "loc": instr.loc,
            }
        return {
            "op": "ld", "dst": _operands_to_obj(instr.dst), "loc": instr.loc,
            "sem": instr.sem.value,
            "scope": instr.scope.value if instr.scope else None,
            "vec": instr.vec,
        }
    if isinstance(instr, St):
        if instr.volatile:
            return {
                "op": "st", "volatile": True, "vec": instr.vec,
                "loc": instr.loc, "src": _operands_to_obj(instr.src),
            }
        return {
            "op": "st", "loc": instr.loc, "src": _operands_to_obj(instr.src),
            "sem": instr.sem.value,
            "scope": instr.scope.value if instr.scope else None,
            "vec": instr.vec,
        }
    if isinstance(instr, Atom):
        return {
            "op": "atom", "dst": instr.dst, "loc": instr.loc,
            "atom_op": instr.op.value,
            "operands": _operands_to_obj(instr.operands),
            "sem": instr.sem.value,
            "scope": instr.scope.value if instr.scope else None,
        }
    if isinstance(instr, Red):
        return {
            "op": "red", "loc": instr.loc, "atom_op": instr.op.value,
            "operands": _operands_to_obj(instr.operands),
            "sem": instr.sem.value,
            "scope": instr.scope.value if instr.scope else None,
        }
    if isinstance(instr, Fence):
        return {"op": "fence", "sem": instr.sem.value, "scope": instr.scope.value}
    if isinstance(instr, Bar):
        return {"op": "bar", "bar_op": instr.op.value, "barrier": instr.barrier}
    raise TypeError(f"cannot serialize instruction {instr!r}")


def instruction_from_dict(obj: Dict) -> Instruction:
    op = obj["op"]
    scope = Scope(obj["scope"]) if obj.get("scope") else None
    if op == "ld":
        if obj.get("volatile"):
            return Ld(
                dst=_operands_from_obj(obj["dst"]), loc=obj["loc"],
                volatile=True, vec=obj.get("vec", 1),
            )
        return Ld(
            dst=_operands_from_obj(obj["dst"]), loc=obj["loc"],
            sem=Sem(obj["sem"]), scope=scope, vec=obj.get("vec", 1),
        )
    if op == "st":
        if obj.get("volatile"):
            return St(
                loc=obj["loc"], src=_operands_from_obj(obj["src"]),
                volatile=True, vec=obj.get("vec", 1),
            )
        return St(
            loc=obj["loc"], src=_operands_from_obj(obj["src"]),
            sem=Sem(obj["sem"]), scope=scope, vec=obj.get("vec", 1),
        )
    if op == "atom":
        return Atom(
            dst=obj["dst"], loc=obj["loc"], op=AtomOp(obj["atom_op"]),
            operands=_operands_from_obj(obj["operands"]),
            sem=Sem(obj["sem"]), scope=scope,
        )
    if op == "red":
        return Red(
            loc=obj["loc"], op=AtomOp(obj["atom_op"]),
            operands=_operands_from_obj(obj["operands"]),
            sem=Sem(obj["sem"]), scope=scope,
        )
    if op == "fence":
        return Fence(sem=Sem(obj["sem"]), scope=Scope(obj["scope"]))
    if op == "bar":
        return Bar(op=BarOp(obj["bar_op"]), barrier=obj["barrier"])
    raise ValueError(f"unknown instruction kind {op!r}")


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------

def program_to_dict(program: Program) -> Dict:
    return {
        "name": program.name,
        "shape": _shape_to_obj(program.shape),
        "threads": [
            {
                "tid": thread_id_to_obj(thread.tid),
                "instructions": [
                    instruction_to_dict(i) for i in thread.instructions
                ],
            }
            for thread in program.threads
        ],
    }


def program_from_dict(obj: Dict) -> Program:
    return Program(
        name=obj["name"],
        shape=_shape_from_obj(obj["shape"]),
        threads=tuple(
            ThreadCode(
                tid=thread_id_from_obj(t["tid"]),
                instructions=tuple(
                    instruction_from_dict(i) for i in t["instructions"]
                ),
            )
            for t in obj["threads"]
        ),
    )


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------

def condition_to_dict(cond: Condition) -> Dict:
    if isinstance(cond, RegEq):
        return {
            "kind": "reg", "thread": cond.thread_index,
            "name": cond.reg, "value": cond.value,
        }
    if isinstance(cond, MemEq):
        return {"kind": "mem", "loc": cond.loc, "value": cond.value}
    if isinstance(cond, AndC):
        return {
            "kind": "and",
            "left": condition_to_dict(cond.left),
            "right": condition_to_dict(cond.right),
        }
    if isinstance(cond, OrC):
        return {
            "kind": "or",
            "left": condition_to_dict(cond.left),
            "right": condition_to_dict(cond.right),
        }
    if isinstance(cond, NotC):
        return {"kind": "not", "inner": condition_to_dict(cond.inner)}
    if isinstance(cond, TrueC):
        return {"kind": "true"}
    raise TypeError(f"cannot serialize condition {cond!r}")


def condition_from_dict(obj: Dict) -> Condition:
    kind = obj["kind"]
    if kind == "reg":
        return RegEq(obj["thread"], obj["name"], obj["value"])
    if kind == "mem":
        return MemEq(obj["loc"], obj["value"])
    if kind == "and":
        return AndC(condition_from_dict(obj["left"]), condition_from_dict(obj["right"]))
    if kind == "or":
        return OrC(condition_from_dict(obj["left"]), condition_from_dict(obj["right"]))
    if kind == "not":
        return NotC(condition_from_dict(obj["inner"]))
    if kind == "true":
        return TrueC()
    raise ValueError(f"unknown condition kind {kind!r}")


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

def _search_opts_to_obj(opts: Dict[str, object]) -> Dict:
    return {
        name: list(value) if isinstance(value, (tuple, list)) else value
        for name, value in sorted(opts.items())
    }


def _search_opts_from_obj(obj: Dict) -> Dict[str, object]:
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in obj.items()
    }


def config_to_dict(config) -> Dict:
    """A :class:`~repro.litmus.config.RunConfig` as JSON-native data.

    Iterates the dataclass fields so a config field added later is
    serialized automatically — worker IPC used to rebuild configs from a
    hand-picked subset of fields, silently dropping the rest.
    """
    from dataclasses import fields

    payload = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "search_opts":
            value = _search_opts_to_obj(dict(value))
        payload[f.name] = value
    return payload


def config_from_dict(obj: Dict):
    """Rebuild a :class:`~repro.litmus.config.RunConfig` from
    :func:`config_to_dict` output."""
    from .config import RunConfig

    data = dict(obj)
    if "search_opts" in data:
        data["search_opts"] = _search_opts_from_obj(data["search_opts"])
    return RunConfig(**data)


def test_to_dict(test) -> Dict:
    """A :class:`~repro.litmus.test.LitmusTest` as JSON-native data."""
    return {
        "format": FORMAT_VERSION,
        "name": test.name,
        "program": program_to_dict(test.program),
        "condition": condition_to_dict(test.condition),
        "expect": test.expect.value,
        "description": test.description,
        "expect_other": {
            model: verdict.value
            for model, verdict in sorted(test.expect_other.items())
        },
        "figure": test.figure,
        "search_opts": _search_opts_to_obj(test.search_opts),
    }


def test_from_dict(obj: Dict):
    from .test import Expect, LitmusTest

    return LitmusTest(
        name=obj["name"],
        program=program_from_dict(obj["program"]),
        condition=condition_from_dict(obj["condition"]),
        expect=Expect(obj["expect"]),
        description=obj.get("description", ""),
        expect_other={
            model: Expect(v) for model, v in obj.get("expect_other", {}).items()
        },
        figure=obj.get("figure"),
        search_opts=_search_opts_from_obj(obj.get("search_opts", {})),
    )


# ----------------------------------------------------------------------
# litmus text (the parser's format, inverted)
# ----------------------------------------------------------------------

def _qualifiers(sem: Sem, scope) -> str:
    suffix = f".{sem.value}"
    if scope is not None:
        suffix += f".{scope.value}"
    return suffix


def _thread_header(tid: ThreadId) -> str:
    if tid.gpu is None:
        return f"thread host{tid.thread}"
    return f"thread d{tid.gpu}c{tid.cta}t{tid.thread}"


def instruction_to_text(instr: Instruction) -> str:
    """One instruction as the dotted assembly line the parser accepts."""
    if isinstance(instr, Ld):
        mnemonic = "ld.volatile" if instr.volatile else (
            "ld" + _qualifiers(instr.sem, instr.scope)
        )
        if instr.vec > 1:
            mnemonic += f".v{instr.vec}"
        dst = instr.dst if isinstance(instr.dst, tuple) else (instr.dst,)
        return f"{mnemonic} {', '.join(dst)}, [{instr.loc}]"
    if isinstance(instr, St):
        mnemonic = "st.volatile" if instr.volatile else (
            "st" + _qualifiers(instr.sem, instr.scope)
        )
        if instr.vec > 1:
            mnemonic += f".v{instr.vec}"
        src = instr.src if isinstance(instr.src, tuple) else (instr.src,)
        operands = ", ".join(str(s) for s in src)
        return f"{mnemonic} [{instr.loc}], {operands}"
    if isinstance(instr, Atom):
        operands = ", ".join(str(o) for o in instr.operands)
        return (
            f"atom{_qualifiers(instr.sem, instr.scope)}.{instr.op.value} "
            f"{instr.dst}, [{instr.loc}], {operands}"
        )
    if isinstance(instr, Red):
        operands = ", ".join(str(o) for o in instr.operands)
        return (
            f"red{_qualifiers(instr.sem, instr.scope)}.{instr.op.value} "
            f"[{instr.loc}], {operands}"
        )
    if isinstance(instr, Fence):
        return f"fence{_qualifiers(instr.sem, instr.scope)}"
    if isinstance(instr, Bar):
        return f"bar.{instr.op.value} {instr.barrier}"
    raise TypeError(f"cannot unparse instruction {instr!r}")


def condition_to_text(cond: Condition) -> str:
    """The condition in the grammar ``parse_condition`` accepts.

    Condition ``repr`` was designed to be re-parseable; the one exception
    is :class:`TrueC`, whose ``true`` spelling the grammar has no atom
    for — and which no meaningful litmus test uses as its condition.
    """
    if isinstance(cond, TrueC):
        raise TypeError("a bare 'true' condition has no litmus text form")
    return repr(cond)


def test_to_litmus(test) -> str:
    """A :class:`~repro.litmus.test.LitmusTest` as parseable litmus text.

    Inverse of :func:`~repro.litmus.parser.parse_litmus` for the fields
    the text format carries: ``parse_litmus(test_to_litmus(t))`` restores
    the name, program (threads, placements, covering shape), condition,
    and expected verdict.  Description, per-model expectations and search
    options are JSON-only — use :func:`test_to_dict` when those matter.
    The fuzzer's shrunk repros are emitted in this format so a
    discrepancy can be replayed from a plain text artifact.
    """
    from .test import Expect

    lines = [f"ptx test {test.name}"]
    for thread in test.program.threads:
        lines.append(_thread_header(thread.tid))
        for instr in thread.instructions:
            lines.append(f"  {instruction_to_text(instr)}")
    keyword = "forbidden" if test.expect is Expect.FORBIDDEN else "allowed"
    lines.append(f"{keyword}: {condition_to_text(test.condition)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# outcomes and results
# ----------------------------------------------------------------------

def outcome_to_dict(outcome: Outcome) -> Dict:
    return {
        "registers": [
            [thread_id_to_obj(tid), name, value]
            for (tid, name), value in outcome.registers
        ],
        "memory": [
            [loc, sorted(values)] for loc, values in outcome.memory
        ],
    }


def _outcomes_to_list(outcomes) -> List[Dict]:
    """An outcome set in its canonical (serialization-stable) order."""
    return sorted((outcome_to_dict(o) for o in outcomes), key=canonical_json)


def outcome_from_dict(obj: Dict) -> Outcome:
    return Outcome(
        registers=tuple(
            ((thread_id_from_obj(tid), name), value)
            for tid, name, value in obj["registers"]
        ),
        memory=tuple(
            (loc, frozenset(values)) for loc, values in obj["memory"]
        ),
    )


def solver_stats_to_dict(stats: SolverStats) -> Dict:
    return stats.as_dict()


def solver_stats_from_dict(obj: Dict) -> SolverStats:
    return SolverStats(**obj)


def enum_stats_to_dict(stats: EnumStats) -> Dict:
    return stats.as_dict()


def enum_stats_from_dict(obj: Dict) -> EnumStats:
    return EnumStats.from_dict(obj)


def certificate_to_dict(cert: Certificate) -> Dict:
    return {
        "polarity": cert.polarity,
        "status": cert.status,
        "digest": cert.digest,
        "steps": cert.steps,
        "clauses": cert.clauses,
        "check_time": cert.check_time,
        "detail": cert.detail,
    }


def certificate_from_dict(obj: Dict) -> Certificate:
    return Certificate(
        polarity=obj["polarity"],
        status=obj["status"],
        digest=obj.get("digest"),
        steps=obj.get("steps", 0),
        clauses=obj.get("clauses", 0),
        check_time=obj.get("check_time", 0.0),
        detail=obj.get("detail"),
    )


def result_to_dict(result, include_test: bool = True) -> Dict:
    """A :class:`~repro.litmus.runner.LitmusResult` as JSON-native data.

    ``include_test=False`` drops the (bulky) test payload — the cache
    stores results under a key derived from the test, so re-serializing
    the test inside every entry would be redundant.
    """
    payload = {
        "format": FORMAT_VERSION,
        "model": result.model,
        "observed": result.observed,
        "outcomes": _outcomes_to_list(result.outcomes),
        "elapsed": result.elapsed,
        "solver_stats": (
            solver_stats_to_dict(result.solver_stats)
            if result.solver_stats is not None else None
        ),
        "enum_stats": (
            enum_stats_to_dict(result.enum_stats)
            if result.enum_stats is not None else None
        ),
        "status": result.status,
        "detail": result.detail,
        "certificate": (
            certificate_to_dict(result.certificate)
            if result.certificate is not None else None
        ),
    }
    if include_test:
        payload["test"] = test_to_dict(result.test)
    return payload


def result_from_dict(obj: Dict, test=None):
    """Rebuild a result; pass ``test`` when the payload omits it."""
    from .runner import LitmusResult

    if test is None:
        test = test_from_dict(obj["test"])
    return LitmusResult(
        test=test,
        model=obj["model"],
        observed=obj["observed"],
        outcomes=frozenset(outcome_from_dict(o) for o in obj["outcomes"]),
        elapsed=obj.get("elapsed"),
        solver_stats=(
            solver_stats_from_dict(obj["solver_stats"])
            if obj.get("solver_stats") is not None else None
        ),
        enum_stats=(
            enum_stats_from_dict(obj["enum_stats"])
            if obj.get("enum_stats") is not None else None
        ),
        status=obj.get("status", "ok"),
        detail=obj.get("detail"),
        certificate=(
            certificate_from_dict(obj["certificate"])
            if obj.get("certificate") is not None else None
        ),
    )


# ----------------------------------------------------------------------
# verdict payloads (the byte-comparable form)
# ----------------------------------------------------------------------

def verdict_payload(result) -> Dict:
    """The semantic content of a verdict: what :func:`verdict_digest`
    hashes and the serving layer's equivalence gate compares.

    A verdict is the model, whether the condition is observed, the set of
    outcomes of the axiom-consistent executions, the run status, and the
    certificate's polarity/status/proof digest (§5.2).  How the search
    found them is not part of it: ``enum_stats``, ``solver_stats``,
    ``elapsed``, ``detail`` and the certificate's
    ``steps``/``clauses``/``check_time`` stay in :func:`result_to_dict`
    as telemetry, so two engines or kernels that reach the same verdict
    by different amounts of work hash identically.
    """
    cert = result.certificate
    return {
        "model": result.model,
        "observed": result.observed,
        "outcomes": _outcomes_to_list(result.outcomes),
        "status": result.status,
        "certificate": (
            None if cert is None else {
                "polarity": cert.polarity,
                "status": cert.status,
                "digest": cert.digest,
            }
        ),
    }


def verdict_digest(result) -> str:
    """A content address of the verdict's semantic payload."""
    import hashlib

    text = canonical_json(verdict_payload(result))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
