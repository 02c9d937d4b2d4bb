"""The formal PTX 6.0 memory consistency model (paper §3)."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".events": ("Event", "Kind", "Sem", "init_write", "is_init"),
    ".isa": (
        "Atom", "AtomOp", "Bar", "BarOp", "Fence", "Instruction", "Ld",
        "Membar", "Red", "St",
    ),
    ".model": (
        "ConsistencyReport", "build_env", "check_execution", "data_races",
        "derived_relation", "is_race_free", "moral_strength",
    ),
    ".program": (
        "Elaboration", "Program", "ProgramBuilder", "ThreadCode", "elaborate",
    ),
    ".spec": ("AXIOMS", "DERIVED"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AXIOMS",
    "Atom",
    "AtomOp",
    "Bar",
    "BarOp",
    "ConsistencyReport",
    "DERIVED",
    "Elaboration",
    "Event",
    "Fence",
    "Instruction",
    "Kind",
    "Ld",
    "Membar",
    "Program",
    "ProgramBuilder",
    "Red",
    "Sem",
    "St",
    "ThreadCode",
    "build_env",
    "check_execution",
    "data_races",
    "derived_relation",
    "elaborate",
    "init_write",
    "is_init",
    "is_race_free",
    "moral_strength",
]
