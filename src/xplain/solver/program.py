"""Constraint-program container shared by the compiler and the solver.

A ConstraintProgram is a plain linear program plus two discrete extensions:
binary variables and "exactly-one" groups (sets of nonnegative variables of
which at most one may be positive in a solution; the groups compile pick-node
behavior and are enforced by branching, not by big-M rows).
"""

from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "=="

MAXIMIZE = "max"
MINIMIZE = "min"


class SolverError(Exception):
    """Base class for solver failures."""


class NumericalInstability(SolverError):
    """The simplex could not certify its result within tolerance."""


class BudgetExceeded(SolverError):
    """Branch-and-bound node limit hit before proving optimality."""


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    upper: float | None = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.upper is not None and self.upper < 0:
            raise ValueError(f"variable {self.name!r}: upper bound must be >= 0")


@dataclass(frozen=True)
class Constraint:
    # sparse row: ((var index, coefficient), ...)
    coeffs: tuple
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in (LE, EQ):
            raise ValueError(f"unknown constraint sense {self.sense!r}")


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None = None
    values: np.ndarray | None = None
    names: tuple = ()
    basis: tuple | None = None  # solve_lp's optimal basis, when it has one

    def __getitem__(self, name):
        return float(self.values[self.names.index(name)])


@dataclass
class ConstraintProgram:
    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    exactly_one_groups: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # var index -> coefficient
    sense: str = MAXIMIZE

    @property
    def n_vars(self):
        return len(self.variables)

    def add_variable(self, name, kind=CONTINUOUS, upper=None):
        self.variables.append(Variable(name, kind, upper))
        return len(self.variables) - 1

    def _index_of(self, key):
        """Variables may be referenced by index or by name."""
        if isinstance(key, str):
            for i, v in enumerate(self.variables):
                if v.name == key:
                    return i
            raise KeyError(f"unknown variable {key!r}")
        idx = int(key)
        if not 0 <= idx < len(self.variables):
            raise IndexError(f"unknown variable index {idx}")
        return idx

    def add_constraint(self, coeffs, sense, rhs):
        """`coeffs` maps variable index or name -> coefficient ((k, c) pairs also ok)."""
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        resolved = sorted((self._index_of(k), float(c)) for k, c in items)
        self.constraints.append(
            Constraint(tuple((i, c) for i, c in resolved if c != 0.0),
                       sense, float(rhs))
        )
        return len(self.constraints) - 1

    def add_group(self, members):
        idxs = tuple(self._index_of(k) for k in members)
        self.exactly_one_groups.append(idxs)
        return len(self.exactly_one_groups) - 1

    def set_objective(self, coeffs, sense=None):
        if sense is None:
            sense = self.sense
        if sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown objective sense {sense!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self.objective = {self._index_of(k): float(c) for k, c in items if c != 0.0}
        self.sense = sense

    def binary_indices(self):
        return [i for i, v in enumerate(self.variables) if v.kind == BINARY]

    def dense(self):
        """Return (A, senses, b, c) dense arrays over the declared variables.

        Upper bounds are not included; the simplex layer appends them.
        """
        n = self.n_vars
        m = len(self.constraints)
        A = np.zeros((m, n))
        b = np.zeros(m)
        senses = []
        for r, con in enumerate(self.constraints):
            for i, coef in con.coeffs:
                A[r, i] += coef
            b[r] = con.rhs
            senses.append(con.sense)
        c = np.zeros(n)
        for i, coef in self.objective.items():
            c[i] = coef
        return A, senses, b, c
