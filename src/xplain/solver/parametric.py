"""An LP whose rows, senses and objective are fixed and whose right-hand side varies.

    lp = ParametricLP(prog)   # prog's b is only the first right-hand side
    lp.solve(b1), lp.solve(b2), ...

A basis B that is optimal for one b stays optimal for every b with
B^-1 b >= 0: its reduced costs do not depend on b, so it stays dual
feasible, and B^-1 b >= 0 makes it primal feasible too (the critical region
of parametric LP; Gal and Nedoma, 1972). `solve` keeps the last MAX_BASES
optimal bases, each with a B^-1 computed from the program's own columns,
so no tableau is carried from call to call and rounding error cannot pile
up. It tries them most recently used first and takes the first whose
B^-1 b >= -tol and whose x passes the feasibility recheck of `solve_lp`.
A hit is the exact optimum, up to the simplex's own tolerances. On a miss
`solve` cold-solves through `xplain.solver.solve_lp`, looked up at each
call, stores the basis that returns, and answers from it as a hit would,
so that a b gets the same x whether it missed or hit. When an LP has
several optimal vertices, the x returned is the vertex of the first stored
basis that passes, so it can depend on the right-hand sides that came
before; the objective cannot.
"""

import numpy as np

from .program import BINARY, EQ, Constraint, ConstraintProgram, Solution
from .simplex import _PRIMAL_TOL, _feasible
from .work import open_counts

MAX_BASES = 8


class ParametricLP:
    """{opt c.x : A x (<=, ==) b, x >= 0} for fixed A, senses and c, solved per b.

    `solve` updates the stored bases, so one instance serves one thread.
    """

    def __init__(self, prog):
        if any(v.kind == BINARY for v in prog.variables) or prog.exactly_one_groups:
            raise ValueError("ParametricLP: program has binaries or groups")
        if any(v.upper is not None for v in prog.variables):
            raise ValueError("ParametricLP: program has variable upper bounds")
        A, senses, b, c = prog.dense()
        m, n = A.shape
        self.program, self._b = prog, b  # b: the right-hand side prog holds
        self._c = c
        self._eq = np.array([s == EQ for s in senses], dtype=bool)
        le = np.flatnonzero(~self._eq)
        slacks = np.zeros((m, len(le)))
        slacks[le, np.arange(len(le))] = 1.0
        self._columns = np.hstack([A, slacks])  # the column space of Solution.basis
        self._A = self._columns[:, :n]
        self._names = tuple(v.name for v in prog.variables)
        # slot k holds one basis: its B^-1 in _inv[k] and, in _slots[k], the
        # basis, the rows of B^-1 b that hold structurals and their columns
        self._inv = np.zeros((0, m, m))
        self._slots = []
        self._order = []  # filled slots, most recently used first

    def solve(self, b):
        """The Solution that `solve_lp` gives for the program with right-hand side b."""
        b = np.asarray(b, dtype=float)
        if b.shape != (len(self._eq),):
            raise ValueError(
                f"expected {len(self._eq)} right-hand sides, got {b.shape}")
        work = open_counts()
        if self._order:
            tol = _PRIMAL_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
            # B^-1 b >= -tol for every stored basis at once, then the recheck
            # in order of use
            screen = (self._inv @ b).min(axis=1, initial=np.inf)
            primal = (screen >= -tol).tolist()
            for slot in [k for k in self._order if primal[k]]:
                sol = self._solution(slot, b)
                if sol is not None:
                    self._use(slot)
                    if work is not None:
                        work.lp_warm += 1
                    return sol

        from . import solve_lp  # at call time, so that a patched solve_lp is used

        if work is not None:
            work.lp_cold += 1
        prog = self.program
        if not np.array_equal(b, self._b):
            prog = ConstraintProgram(
                variables=list(prog.variables),
                constraints=[Constraint(con.coeffs, con.sense, float(rhs))
                             for con, rhs in zip(prog.constraints, b)],
                objective=dict(prog.objective), sense=prog.sense)
        sol = solve_lp(prog)
        if sol.status != "optimal" or sol.basis is None:
            return sol
        slot = self._store(sol.basis)
        warm = None if slot is None else self._solution(slot, b)
        return sol if warm is None else warm

    def _solution(self, slot, b):
        """The Solution of the basis in `slot` at b, or None if it fails the recheck."""
        basis, rows, cols = self._slots[slot]
        x = np.zeros(len(self._c))
        x[cols] = (self._inv[slot] @ b)[rows]
        if not _feasible(x, self._A, self._eq, b):
            return None
        return Solution(status="optimal", objective=float(self._c @ x), values=x,
                        names=self._names, basis=basis)

    def _store(self, basis):
        """Make `basis` the most recently used; its slot, or None if B is singular."""
        known = [entry[0] for entry in self._slots]
        if basis in known:
            self._use(known.index(basis))
            return self._order[0]
        idx = np.array(basis, dtype=np.intp)
        try:
            inv = np.linalg.inv(self._columns[:, idx])
        except np.linalg.LinAlgError:
            return None
        entry = (basis, np.flatnonzero(idx < len(self._c)), idx[idx < len(self._c)])
        if len(self._slots) < MAX_BASES:
            slot = len(self._slots)
            self._slots.append(entry)
            self._inv = np.concatenate([self._inv, inv[None]])
        else:  # evict the least recently used
            slot = self._order.pop()
            self._slots[slot] = entry
            self._inv[slot] = inv
        self._order.insert(0, slot)
        return slot

    def _use(self, slot):
        self._order.remove(slot)
        self._order.insert(0, slot)
