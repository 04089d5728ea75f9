"""Exact small-scale optimizer: bounded simplex plus warm-started branch and bound.

Each name is imported on first use.
"""

from .. import _lazy

__all__ = _lazy.export(globals(), {
    ".branch_bound": ("DEFAULT_NODE_LIMIT", "solve_mip"),
    ".lp_format": ("to_lp_format",),
    ".parametric": ("ParametricLP",),
    ".program": ("BINARY", "CONTINUOUS", "EQ", "LE", "MAXIMIZE", "MINIMIZE",
                 "BudgetExceeded", "Constraint", "ConstraintProgram",
                 "NumericalInstability", "Solution", "SolverError", "Variable"),
    ".simplex": ("EPS_FEAS", "solve_lp"),
    ".work": ("WorkCounts", "counting"),
})
