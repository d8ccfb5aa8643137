"""Tensor-train subspace solver for multiparameter eigenvalue problems."""

from .mep_problem import (
    EigenTuple,
    MEProblem,
    generate_random_mep,
    load_problem,
    oracle_eigenvalues,
    save_problem,
)
from .solver import SolverConfig, solve
from .tt_core import TTOperator, TTVector

__version__ = "0.1.0"

__all__ = [
    "EigenTuple",
    "MEProblem",
    "SolverConfig",
    "TTOperator",
    "TTVector",
    "generate_random_mep",
    "load_problem",
    "oracle_eigenvalues",
    "save_problem",
    "solve",
]
