"""The SAT translation pipeline is deterministic.

Tseitin gate numbering must not depend on Python's per-process hash
randomization: the emitted CNF (and therefore the DRAT certificate
digest) for a given litmus problem has exactly one byte-level form.
Regression cover for the translator's former raw ``set(...)`` unions in
``Union_``/``Inter``/``_square`` and its frozenset lower-bound iteration.
The problem is the one shared by every symbolic reader
(:func:`repro.kodkod.litmus.ptx_problem`), condition included.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.kodkod.litmus import ptx_problem
from repro.litmus import BY_NAME, serialize


def _translate(name):
    # a fresh copy of the test, so its program has a pass (and a
    # problem) of its own
    test = BY_NAME[name]
    twin = serialize.test_from_dict(serialize.test_to_dict(test))
    assert twin.program is not test.program
    return ptx_problem(twin)


def _fingerprint(problem):
    """Everything observable about a problem, order included."""
    cnf = problem.cnf
    return (
        cnf.num_vars,
        list(cnf.clauses),
        problem.condition,
        {name: list(vars_.items())
         for name, vars_ in problem.free_vars.items()},
    )


@pytest.mark.parametrize("name", ["CoRR", "MP+rel_acq.gpu", "IRIW+fence.sc"])
def test_fresh_translations_are_identical(name):
    """Two independent translations of the same problem agree exactly —
    same variable numbering, same clauses in the same order."""
    assert _fingerprint(_translate(name)) == _fingerprint(_translate(name))


_DIGEST_SCRIPT = """
import hashlib, sys
from repro.cert.verdict import certify_enumeration, certify_symbolic
from repro.kodkod.litmus import ptx_problem
from repro.litmus import BY_NAME

test = BY_NAME[sys.argv[1]]
problem = ptx_problem(test)
digest = hashlib.sha256()
digest.update(b"p cnf %d\\n" % problem.cnf.num_vars)
for clause in problem.cnf.clauses:
    digest.update((" ".join(map(str, clause)) + " 0\\n").encode())
digest.update(b"c condition %d\\n" % problem.condition)
observed, certificate, _ = certify_symbolic(test)
found, completeness = certify_enumeration(test)
print(digest.hexdigest())
print(certificate.digest)
print(int(observed))
print(completeness.digest, len(found))
"""


def _digests_under_seed(name, seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, name],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.slow
@pytest.mark.parametrize("name", ["CoRR", "IRIW+fence.sc"])
def test_cnf_and_certificate_stable_across_hash_seeds(name):
    """Processes with different hash seeds emit byte-identical CNF and
    the same verdict and enumeration-completeness certificate digests
    for the same litmus problem."""
    assert _digests_under_seed(name, "1") == _digests_under_seed(name, "2")
