"""Exact small-scale optimizer: bounded simplex plus warm-started branch and bound."""

from .branch_bound import DEFAULT_NODE_LIMIT, solve_mip
from .lp_format import to_lp_format
from .parametric import ParametricLP
from .program import (
    BINARY,
    CONTINUOUS,
    EQ,
    LE,
    MAXIMIZE,
    MINIMIZE,
    BudgetExceeded,
    Constraint,
    ConstraintProgram,
    NumericalInstability,
    Solution,
    SolverError,
    Variable,
)
from .simplex import EPS_FEAS, solve_lp
from .work import WorkCounts, counting

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "EQ",
    "LE",
    "MAXIMIZE",
    "MINIMIZE",
    "BudgetExceeded",
    "Constraint",
    "ConstraintProgram",
    "DEFAULT_NODE_LIMIT",
    "EPS_FEAS",
    "NumericalInstability",
    "ParametricLP",
    "Solution",
    "SolverError",
    "Variable",
    "WorkCounts",
    "counting",
    "solve_lp",
    "solve_mip",
    "to_lp_format",
]
