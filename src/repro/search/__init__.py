"""Candidate-execution enumeration (the herd-style litmus engine)."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".posets": ("oriented_orders", "total_orders", "total_orders_with_first"),
    ".ptx_search": ("Candidate", "allowed_outcomes", "candidate_executions"),
    ".records": ("Outcome",),
    ".rf_check": ("rf_check_outcomes",),
    ".values": ("valuations",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Candidate",
    "Outcome",
    "allowed_outcomes",
    "candidate_executions",
    "oriented_orders",
    "rf_check_outcomes",
    "total_orders",
    "total_orders_with_first",
    "valuations",
]
