"""A from-scratch incremental CDCL SAT solver: the backend of the relational model finder."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".cnf": ("Cnf",),
    ".dimacs": ("read_dimacs", "write_dimacs", "write_dimacs_clauses"),
    ".records": ("SolverStats",),
    ".solver": (
        "Clause", "Solver", "Unsatisfiable", "enumerate_models", "luby",
        "solve_cnf",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Clause",
    "Cnf",
    "Solver",
    "SolverStats",
    "Unsatisfiable",
    "enumerate_models",
    "luby",
    "read_dimacs",
    "solve_cnf",
    "write_dimacs",
    "write_dimacs_clauses",
]
