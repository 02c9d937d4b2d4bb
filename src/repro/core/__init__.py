"""Shared substrate: scope trees, executions, and common vocabulary."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".execution": ("Execution", "program_order", "same_location"),
    ".scopes": (
        "Scope", "ScopeInstance", "SystemShape", "ThreadId", "device_thread",
        "distinct_cta_threads", "host_thread", "mutually_inclusive",
        "same_cta_threads", "scope_includes", "scope_instance",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Execution",
    "Scope",
    "ScopeInstance",
    "SystemShape",
    "ThreadId",
    "device_thread",
    "distinct_cta_threads",
    "host_thread",
    "mutually_inclusive",
    "program_order",
    "same_cta_threads",
    "same_location",
    "scope_includes",
    "scope_instance",
]
