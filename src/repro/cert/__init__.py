"""Verdict certificates: proof logging plus an independent checker.

The paper's trust story (§5.3) is that empirical model-finding results are
only believable once machine-checked.  This package closes the per-verdict
gap: the CDCL backend logs a DRAT-style proof trace while it solves
(:mod:`repro.cert.drat`), a small independent checker re-validates the
trace by unit propagation alone (:mod:`repro.cert.checker`), and
:mod:`repro.cert.verdict` packages the outcome as a
:class:`~repro.cert.records.Certificate` attached to every litmus result:

* a FORBIDDEN verdict ships an UNSAT trace accepted by the RUP checker;
* an ALLOWED verdict ships a witness assignment re-evaluated against the
  original CNF and the kodkod translation bounds.

The checker shares no code with the solver's search loop — no watches, no
VSIDS, no conflict analysis — so a bug in the 600-line solver cannot
silently certify itself.
"""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".checker": ("CheckFailure", "check_unsat_proof", "check_witness"),
    ".drat": ("DratLogger", "read_drat", "write_drat"),
    ".records": ("Certificate", "skipped_certificate"),
    ".verdict": ("certify_enumeration", "certify_symbolic"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Certificate",
    "CheckFailure",
    "DratLogger",
    "certify_enumeration",
    "certify_symbolic",
    "check_unsat_proof",
    "check_witness",
    "read_drat",
    "skipped_certificate",
    "write_drat",
]
