"""A from-scratch incremental CDCL SAT solver: the backend of the relational model finder."""

from .._lazy import attach

_LAZY = {
    "Clause": "solver",
    "Cnf": "cnf",
    "Solver": "solver",
    "SolverStats": "solver",
    "Unsatisfiable": "solver",
    "enumerate_models": "solver",
    "luby": "solver",
    "read_dimacs": "dimacs",
    "solve_cnf": "solver",
    "write_dimacs": "dimacs",
    "write_dimacs_clauses": "dimacs",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
