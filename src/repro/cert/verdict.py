"""Certificates for litmus verdicts (the "don't trust the solver" layer).

The paper's §5.3 argument machine-checks the *metatheory*; this module
machine-checks the *per-test verdicts*.  :func:`certify_symbolic` decides
a litmus test with one bounded SAT query while logging a DRAT trace, then
has the independent checker validate whichever artifact the polarity
demands, against exactly the CNF that was solved (the test's shared
problem, :func:`repro.kodkod.litmus.ptx_problem`, with its condition
asserted):

* UNSAT (condition FORBIDDEN) — the trace must be a valid refutation of
  the original CNF (:func:`repro.cert.checker.check_unsat_proof`);
* SAT (condition ALLOWED) — the model must be a total assignment
  satisfying every original clause *and* decode to a relational instance
  inside the kodkod translation bounds.

The outcome is a :class:`Certificate`: polarity, content digest, check
status, sizes and check time — small enough to serialize into results and
the on-disk cache without hauling whole traces around.

:func:`certify_enumeration` certifies the §5.2 "enumerate all bounded
instances" methodology end-to-end: the final UNSAT of an exhausted
enumeration is checked against the original CNF *plus* the blocking
clauses the solver pushed, and the trace's extension steps must match the
blocking clauses of the yielded instances exactly — a checked claim that
the enumeration was complete.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Tuple

from ..kodkod.finder import Instance
from ..sat.records import SolverStats
from ..sat.solver import Solver
from .checker import CheckFailure, check_unsat_proof, check_witness
from .drat import EXTEND, DratLogger
from .records import (
    FAILED,
    NONE,
    SAT,
    SKIPPED,
    UNSAT,
    VERIFIED,
    Certificate,
    skipped_certificate,
)


def _witness_digest(model: Dict[int, bool]) -> str:
    hasher = hashlib.sha256()
    for var in sorted(model):
        hasher.update(f"{var}:{int(model[var])}\n".encode("ascii"))
    return hasher.hexdigest()


def certify_unsat(cnf, logger: DratLogger) -> Certificate:
    """Check a refutation trace against the CNF it claims to refute."""
    started = time.perf_counter()
    try:
        check_unsat_proof(cnf.num_vars, cnf.clauses, logger.steps)
    except CheckFailure as exc:
        return Certificate(
            polarity=UNSAT,
            status=FAILED,
            digest=logger.digest(),
            steps=len(logger.steps),
            clauses=len(cnf.clauses),
            check_time=time.perf_counter() - started,
            detail=str(exc),
        )
    return Certificate(
        polarity=UNSAT,
        status=VERIFIED,
        digest=logger.digest(),
        steps=len(logger.steps),
        clauses=len(cnf.clauses),
        check_time=time.perf_counter() - started,
    )


def certify_witness(translation, model: Dict[int, bool]) -> Certificate:
    """Check a satisfying assignment against the CNF and the bounds.

    Beyond clause satisfaction, the assignment must be total (a partial
    model could hide an unsatisfied clause behind ``dict.get`` defaults)
    and its decoded relational instance must respect every lower/upper
    bound of the translation — the witness is then a genuine bounded
    instance, not merely a propositional artifact.
    """
    cnf = translation.cnf
    started = time.perf_counter()
    detail: Optional[str] = None
    try:
        missing = [
            var for var in range(1, cnf.num_vars + 1) if var not in model
        ]
        if missing:
            raise CheckFailure(
                f"witness is partial: {len(missing)} unassigned variable(s), "
                f"first {missing[0]}"
            )
        check_witness(cnf.clauses, model)
        decoded = translation.decode(model)
        for name, bound in translation.bounds.relations.items():
            tuples = frozenset(decoded.get(name, ()))
            if not bound.lower <= tuples:
                raise CheckFailure(
                    f"witness violates lower bound of relation {name!r}"
                )
            if not tuples <= bound.upper:
                raise CheckFailure(
                    f"witness exceeds upper bound of relation {name!r}"
                )
    except CheckFailure as exc:
        detail = str(exc)
    return Certificate(
        polarity=SAT,
        status=FAILED if detail else VERIFIED,
        digest=_witness_digest(model),
        steps=len(model),
        clauses=len(cnf.clauses),
        check_time=time.perf_counter() - started,
        detail=detail,
    )


def certify_symbolic(test) -> Tuple[bool, Certificate, SolverStats]:
    """Decide a litmus condition with one SAT query and certify the verdict.

    Returns ``(observed, certificate, solver_stats)``.  Raises
    :class:`repro.kodkod.litmus.UnsupportedCondition` (before any solving)
    when the test cannot be phrased relationally — callers fall back to
    the enumerative engine and attach a skipped certificate.
    """
    from ..kodkod.litmus import ptx_problem

    translation = ptx_problem(test).translation(condition=True)
    logger = DratLogger()
    solver = Solver(translation.cnf, proof=logger)
    satisfiable = solver.solve()
    stats = solver.stats
    if satisfiable:
        certificate = certify_witness(translation, solver.model())
    else:
        certificate = certify_unsat(translation.cnf, logger)
    return satisfiable, certificate, stats


def certify_enumeration(test) -> Tuple[List[Instance], Certificate]:
    """Enumerate a test's axiom-consistent instances with a completeness proof.

    Enumerates the test's shared problem
    (:func:`repro.kodkod.litmus.ptx_problem`, condition unasserted, as
    :func:`~repro.kodkod.litmus.symbolic_consistent_instances` reads it)
    with a DRAT logger attached and every blocking clause exposed, then
    checks:

    * the trace's extension steps are exactly the pushed blocking clauses
      (one per yielded instance, in order) — nothing was blocked that was
      not reported, and vice versa;
    * the final UNSAT is a valid refutation of the original CNF plus
      those blocking clauses.

    Returns the instances and the completeness certificate.
    """
    from ..kodkod.finder import enumerate_translation
    from ..kodkod.litmus import ptx_problem

    translation = ptx_problem(test).translation(condition=False)
    logger = DratLogger()
    blocking: List[List[int]] = []
    found = list(
        enumerate_translation(translation, proof=logger, blocking_out=blocking)
    )
    extensions = [list(lits) for kind, lits in logger.steps if kind == EXTEND]
    if extensions != blocking:
        return found, Certificate(
            polarity=UNSAT,
            status=FAILED,
            digest=logger.digest(),
            steps=len(logger.steps),
            detail=(
                f"trace extensions ({len(extensions)}) do not match the "
                f"pushed blocking clauses ({len(blocking)})"
            ),
        )
    if not logger.empty_derived:
        return found, skipped_certificate(
            "enumeration ended without a refutation (exactly bounded "
            "problem); nothing to check"
        )
    return found, certify_unsat(translation.cnf, logger)
