"""The scope-extended RC11 ("scoped C++") memory model (paper §4.1)."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".events": ("CEvent", "CKind", "MemOrder", "c_init_write", "c_is_init"),
    ".model": (
        "Rc11Report", "build_env", "check_execution", "data_races",
        "inclusion", "is_race_free",
    ),
    ".program": (
        "CElaboration", "CFence", "CLoad", "COp", "CProgram",
        "CProgramBuilder", "CRmw", "CStore", "CThread", "c_elaborate",
        "read_node", "write_node",
    ),
    ".spec": ("AXIOMS", "AXIOMS_WITH_THIN_AIR", "DERIVED"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AXIOMS",
    "AXIOMS_WITH_THIN_AIR",
    "CElaboration",
    "CEvent",
    "CFence",
    "CKind",
    "CLoad",
    "COp",
    "CProgram",
    "CProgramBuilder",
    "CRmw",
    "CStore",
    "CThread",
    "DERIVED",
    "MemOrder",
    "Rc11Report",
    "build_env",
    "c_elaborate",
    "c_init_write",
    "c_is_init",
    "check_execution",
    "data_races",
    "inclusion",
    "is_race_free",
    "read_node",
    "write_node",
]
