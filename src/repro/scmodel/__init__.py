"""The sequential-consistency baseline model."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".model": ("ScReport", "build_env", "check_execution"),
    ".spec": ("AXIOMS", "DERIVED"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = ["AXIOMS", "DERIVED", "ScReport", "build_env", "check_execution"]
