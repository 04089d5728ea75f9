"""An LP whose rows, senses and objective are fixed and whose right-hand side varies.

    lp = ParametricLP(prog)   # prog's b is only the first right-hand side
    lp.solve(b1), lp.solve(b2), ...
    lp.solve_many([b1, b2, ...])   # the same Solutions, one pass

A basis B that is optimal for one b stays optimal for every b with
B^-1 b >= 0: its reduced costs do not depend on b, so it stays dual
feasible, and B^-1 b >= 0 makes it primal feasible too (the critical region
of parametric LP; Gal and Nedoma, 1972). The LP keeps the last MAX_BASES
optimal bases, each with a B^-1 computed from the program's own columns,
so no tableau is carried from call to call and rounding error cannot pile
up. A right-hand side tries them most recently used first and takes the
first whose B^-1 b >= -tol and whose x passes the feasibility recheck of
`solve_lp`. A hit is the exact optimum, up to the simplex's own
tolerances. On a miss it is cold-solved through `xplain.solver.solve_lp`,
looked up at each call, with a program that holds that b: it shares the
LP's variables, objective and dense arrays, so a miss builds no rows. The
basis that returns is stored and answers as a hit would, so that a b gets
the same x whether it missed or hit. When an
LP has several optimal vertices, the x returned is the vertex of the first
stored basis that passes, so it can depend on the right-hand sides that
came before; the objective cannot.

`solve_many(B)` takes the right-hand sides as the rows of B and returns,
row by row, what `solve` on each row in turn would return, leaving the
same stored bases in the same order and the same `lp_warm`/`lp_cold`
counts; `solve(b)` is its one-row case. It screens all rows against
every stored basis at once (B^-1 b >= -tol); once the walk first tries a
basis it rechecks, in one pass, the rows left that passed that basis's
screen, since no other row can take it; and it walks the rows in order to
pick each one's first passing basis in most-recently-used order. After a
miss it re-screens only a new or replaced basis, on the rows left.
B^-1 b is a stack of matrix-vector products, inv @ B[:, :, None]: one
matrix-matrix product B @ inv.T rounds differently from inv @ b.
"""

import numpy as np

from .. import solver as _package
from .program import BINARY, EQ, Constraint, ConstraintProgram, Solution
from .simplex import _PRIMAL_TOL, _feasible
from .work import open_counts

MAX_BASES = 8


class Solutions:
    """The answers of one `ParametricLP.solve_many`: entry i is row i's Solution.

    `values` stacks the rows' x, NaN on a row that has none; `status`
    holds each row's status.
    """

    def __init__(self, lp, values, answers):
        self._lp, self.values, self._answers = lp, values, answers

    @property
    def status(self):
        return tuple(a.status if isinstance(a, Solution) else "optimal"
                     for a in self._answers)

    def __len__(self):
        return len(self._answers)

    def __getitem__(self, i):
        got = self._answers[i]  # the cold Solution, or the answering basis
        if isinstance(got, Solution):
            return got
        x = self.values[i]
        return Solution(status="optimal", objective=float(self._lp._c @ x), values=x,
                        names=self._lp._names, basis=got)


class ParametricLP:
    """{opt c.x : A x (<=, ==) b, x >= 0} for fixed A, senses and c, solved per b.

    `solve` and `solve_many` update the stored bases, so one instance
    serves one thread.
    """

    def __init__(self, prog):
        if any(v.kind == BINARY for v in prog.variables) or prog.exactly_one_groups:
            raise ValueError("ParametricLP: program has binaries or groups")
        if any(v.upper is not None for v in prog.variables):
            raise ValueError("ParametricLP: program has variable upper bounds")
        A, senses, b, c = prog.dense()
        m, n = A.shape
        self.program, self._b = prog, b  # b: the right-hand side prog holds
        for array in (A, c):
            array.setflags(write=False)  # shared by every cold solve's program
        self._dense = A, tuple(senses), c
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
        return self.solve_many(b[None])[0]

    def solve_many(self, B):
        """Solutions for the rows of B, as `solve` on each row in turn gives them."""
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[1] != len(self._eq):
            raise ValueError(
                f"expected rows of {len(self._eq)} right-hand sides, got {B.shape}")
        n_rows = len(B)
        values = np.full((n_rows, len(self._c)), np.nan)
        answers = [None] * n_rows  # per row: the answering basis, or the cold Solution
        low = -_PRIMAL_TOL * np.maximum.reduce(np.abs(B), axis=1, initial=1.0)  # -tol per row
        # per slot, over this batch: its basis, B^-1 b at each row, whether
        # that is >= -tol (as an array and a list), then, once the slot is
        # first tried at a row, x from there on and, per row left that passed
        # the screen, whether it passes the recheck; and the rows it answered
        entries = list(self._slots)
        v = (self._inv[:, None] @ B[None, :, :, None])[..., 0]
        ok = np.minimum.reduce(v, axis=2, initial=np.inf) >= low
        screen, primal = list(ok), ok.tolist()
        v, xs, fits = list(v), [None] * len(v), [None] * len(v)
        served = [[] for _ in v]

        def passes(slot, i):
            if fits[slot] is None:  # x from row i on, rechecked where it passed the screen
                _, rows, cols = entries[slot]
                x = xs[slot] = np.zeros((n_rows, len(self._c)))
                x[i:, cols] = v[slot][i:, rows]
                hit = screen[slot][i:].nonzero()[0] + i
                fits[slot] = dict(zip(hit.tolist(),
                                      _feasible(x[hit], self._A, self._eq, B[hit]).tolist()))
            return fits[slot][i]

        def rescreen(slot, i):  # slot holds a new basis from row i on
            if slot == len(v):
                entries.append(None), v.append(np.zeros_like(B)), xs.append(None)
                screen.append(None), primal.append(None), fits.append(None)
                served.append([])
            elif served[slot]:  # the x of the rows the old basis answered
                values[served[slot]] = xs[slot][served[slot]]
            entries[slot] = self._slots[slot]
            v[slot][i:] = (self._inv[slot] @ B[i:, :, None])[:, :, 0]
            ok = screen[slot] = np.zeros(n_rows, dtype=bool)
            ok[i:] = np.minimum.reduce(v[slot][i:], axis=1, initial=np.inf) >= low[i:]
            primal[slot] = ok.tolist()
            xs[slot], fits[slot], served[slot] = None, None, []

        work, warm, cold = open_counts(), 0, 0
        try:
            for i in range(n_rows):
                for slot in self._order:
                    if primal[slot][i] and passes(slot, i):
                        self._use(slot)
                        warm += 1
                        break
                else:
                    cold += 1
                    sol = answers[i] = self._cold_solve(B[i])
                    if sol.values is not None:
                        values[i] = sol.values
                    if sol.status != "optimal" or sol.basis is None:
                        continue
                    slot, fresh = self._store(sol.basis)
                    if slot is None:
                        continue
                    if fresh:
                        rescreen(slot, i)
                    if not passes(slot, i):
                        continue
                served[slot].append(i)
                answers[i] = entries[slot][0]
        finally:
            if work is not None:
                work.lp_warm += warm
                work.lp_cold += cold
        for slot, rows in enumerate(served):
            if rows:
                values[rows] = xs[slot][rows]
        return Solutions(self, values, answers)

    def _cold_solve(self, b):
        prog = self.program if (b == self._b).all() else _AtRhs(self, b)
        return _package.solve_lp(prog)  # looked up now, so that a patched one is used

    def _store(self, basis):
        """Make `basis` the most recently used. -> (its slot, whether B^-1 was new there)

        The slot is None if B is singular.
        """
        known = [entry[0] for entry in self._slots]
        if basis in known:
            self._use(known.index(basis))
            return self._order[0], False
        idx = np.array(basis, dtype=np.intp)
        try:
            inv = np.linalg.inv(self._columns[:, idx])
        except np.linalg.LinAlgError:
            return None, False
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
        return slot, True

    def _use(self, slot):
        if self._order[0] != slot:
            self._order.remove(slot)
            self._order.insert(0, slot)


class _AtRhs(ConstraintProgram):
    """A `ParametricLP`'s program with right-hand side b, as a cold solve gets it.

    It shares the program's variables and objective, and `dense()` hands
    out the program's own (read-only) arrays with b, so a miss builds no
    rows; the rows, which the solve does not read, are made when asked for.
    """

    def __init__(self, lp, b):
        prog = lp.program
        self.variables, self.exactly_one_groups = prog.variables, prog.exactly_one_groups
        self.objective, self.sense = prog.objective, prog.sense
        self._lp, self._rhs = lp, np.array(b, dtype=float)
        self._rhs.setflags(write=False)

    @property
    def constraints(self):
        return [Constraint(con.coeffs, con.sense, float(rhs))
                for con, rhs in zip(self._lp.program.constraints, self._rhs)]

    def dense(self):
        A, senses, c = self._lp._dense
        return A, list(senses), self._rhs, c
