"""Dense bounded-variable simplex: two-phase primal, and dual for warm starts.

Desk-scale by design (a few hundred columns). The tableau is a dense numpy
array over the structural, slack and surplus columns. Variable bounds are
bounds, not rows: column j carries lo_j <= x_j <= up_j (up_j may be inf) and
stands for y_j = x_j - lo_j, or for y_j = up_j - x_j once it is flipped to
its upper bound, so every nonbasic y_j is 0 and the last column holds the
basic values.

`solve_lp_arrays` runs phase 1 on artificial columns and then phase 2, both
with Bland's rule and a bounded ratio test; when Bland's leaving row would
pivot on an entry below 1e-7 (rounding noise), the largest pivot within
tolerance of the least ratio leaves instead. Bland's rule rules out cycling
only in exact arithmetic: under float tolerances a degenerate LP can still
stall (a 265x361 bin-packing tableau once ran 127k pivots), so every loop
stops at an iteration limit and raises NumericalInstability. Branch and
bound keeps a `Tableau` and, after a bound change, re-optimises it with the
dual simplex: most infeasible row first, and Harris's two-pass ratio test,
which picks the largest pivot among the near-minimal ratios. Every reported
optimum is re-checked against the original rows, so numerical trouble is
raised instead of returned silently.
"""

import numpy as np

from .program import (
    BINARY,
    EQ,
    LE,
    MAXIMIZE,
    MINIMIZE,
    NumericalInstability,
    Solution,
)
from .work import open_counts

EPS_FEAS = 1e-6       # constraint-satisfaction tolerance
PIVOT_TOL = 1e-10     # entries at or below this act as zero in the ratio test
_RC_TOL = 1e-9        # reduced-cost threshold for optimality
_PHASE1_TOL = 1e-7    # residual infeasibility treated as infeasible
_PRIMAL_TOL = 1e-9    # a basic value this far out of its bounds counts as feasible
_SMALL_PIVOT = 1e-7   # Bland's leaving row is overruled below this pivot


def _pivot(T, z, basis, r, j):
    piv = T[r, j]
    if abs(piv) < PIVOT_TOL:
        raise NumericalInstability(f"pivot {piv:.3e} below tolerance")
    T[r] = T[r] / piv
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    z -= z[j] * T[r]
    basis[r] = j


class Tableau:
    """A basis of {min z.y : rows of T} with bounds, kept in place.

    T is B^-1 [A | slacks | surplus] with the basic values as last column;
    z holds the reduced costs of the internal minimisation. Column j stands
    for y_j = x_j - lo[j], or y_j = up[j] - x_j when flipped[j].
    """

    def __init__(self, T, basis, lo, up, n):
        self.T = T
        self.z = np.zeros(T.shape[1])
        self.basis = basis
        self.lo = lo
        self.up = up
        self.flipped = np.zeros(len(lo), dtype=bool)
        self.n = n
        self.work = open_counts()

    def copy(self):
        new = Tableau(self.T.copy(), self.basis.copy(), self.lo.copy(),
                      self.up.copy(), self.n)
        new.z = self.z.copy()
        new.flipped = self.flipped.copy()
        return new

    def pivot(self, r, j):
        _pivot(self.T, self.z, self.basis, r, j)
        if self.work is not None:
            self.work.pivots += 1

    def flip(self, j):
        """Measure column j from its other bound (the range must be finite)."""
        span = self.up[j] - self.lo[j]
        T = self.T
        rows = np.nonzero(self.basis == j)[0]
        if rows.size:
            # y_j = span - y'_j turns row r's basic variable into y'_j
            r = rows[0]
            T[r] = -T[r]
            T[r, j] = 1.0
            T[r, -1] += span
        else:
            T[:, -1] -= span * T[:, j]
            T[:, j] = -T[:, j]
            self.z[-1] -= span * self.z[j]
            self.z[j] = -self.z[j]
        self.flipped[j] = not self.flipped[j]

    def fix(self, j, value):
        """Pin x_j to `value`, which must be its lower or its upper bound."""
        if self.lo[j] == self.up[j]:
            return
        at_upper = value == self.up[j]
        if self.flipped[j] != at_upper:
            self.flip(j)
        if at_upper:
            self.lo[j] = value
        else:
            self.up[j] = value

    def values(self):
        """The structural x of the current basis."""
        n = self.n
        y = np.zeros(len(self.lo))
        y[self.basis] = self.T[:, -1]
        x = y[:n]
        if self.flipped[:n].any() or self.lo[:n].any():
            x = np.where(self.flipped[:n], self.up[:n] - x, self.lo[:n] + x)
        return x

    def primal(self, max_iter):
        """Minimize until no movable column has a negative reduced cost. Bland's rule."""
        T, z, basis = self.T, self.z, self.basis
        span = self.up - self.lo
        bounded = np.isfinite(span)
        any_bounded = bool(bounded.any())
        movable = span > 0.0 if any_bounded else None
        for _ in range(max_iter):
            neg = z[:-1] < -_RC_TOL
            if movable is not None:
                neg &= movable
            neg = np.nonzero(neg)[0]
            if neg.size == 0:
                return "optimal"
            j = int(neg[0])
            col = T[:, j]
            rows = np.nonzero(col > PIVOT_TOL)[0]
            num, den = T[rows, -1], col[rows]
            if any_bounded:
                # basic variables rising to a finite upper bound
                up_rows = np.nonzero((col < -PIVOT_TOL) & bounded[basis])[0]
                if up_rows.size:
                    rows = np.concatenate([rows, up_rows])
                    num = np.concatenate([num, span[basis[up_rows]] - T[up_rows, -1]])
                    den = np.concatenate([den, -col[up_rows]])
            ratios = num / den
            best = ratios.min() if rows.size else np.inf
            if span[j] <= best:
                if not bounded[j]:
                    return "unbounded"
                self.flip(j)  # the entering column reaches its own bound first
                continue
            tied = rows[ratios <= best + 1e-12]
            # anti-cycling: among tied rows leave the lowest-index basic variable
            r = int(tied[np.argmin(basis[tied])])
            if abs(col[r]) < _SMALL_PIVOT:
                # that pivot is rounding noise and would blow the tableau up:
                # Harris instead, the largest pivot among the rows whose ratio
                # is within tolerance of the least
                num = np.maximum(num, 0.0)
                near = np.nonzero(num / den <= ((num + _PRIMAL_TOL) / den).min())[0]
                r = int(rows[near[np.argmax(den[near])]])
            if col[r] < 0:
                self.flip(int(basis[r]))  # it leaves at its upper bound
            self.pivot(r, j)
        raise NumericalInstability("simplex iteration limit reached")

    def dual(self, max_iter):
        """Restore primal feasibility from a dual-feasible basis; then clean up.

        Returns "optimal" or "infeasible" (or what the primal clean-up returns).
        """
        T, z, basis = self.T, self.z, self.basis
        span = self.up - self.lo
        movable = span > 0.0
        for _ in range(max_iter):
            beta = T[:, -1]
            over = beta - span[basis]
            viol = np.maximum(-beta, over)
            if not viol.size or viol.max() <= _PRIMAL_TOL:
                return self.primal(max_iter)
            r = int(np.argmax(viol))
            if over[r] > -beta[r]:
                self.flip(int(basis[r]))  # above its upper bound: leave there
            row = T[r, :-1]
            cand = np.nonzero((row < -PIVOT_TOL) & movable)[0]
            if cand.size == 0:
                return "infeasible"  # the row's basic variable cannot reach 0
            alpha = -row[cand]
            d = np.maximum(z[cand], 0.0)
            # Harris: the largest pivot whose ratio is within tolerance of the least
            limit = ((d + _RC_TOL) / alpha).min()
            near = np.nonzero(d / alpha <= limit)[0]
            self.pivot(r, int(cand[near[np.argmax(alpha[near])]]))
        raise NumericalInstability("dual simplex iteration limit reached")

    def load(self, other):
        """Become a copy of `other`, a tableau of the same shape."""
        for name in ("T", "z", "basis", "lo", "up", "flipped"):
            np.copyto(getattr(self, name), getattr(other, name))

    def restore(self, root, basis, flipped):
        """Become `root` re-pivoted onto `basis`, flipped where `flipped` is set.

        Rebuilding from the root rather than reusing a tableau that has
        travelled through other nodes keeps rounding error from piling up.
        """
        self.load(root)
        # a flag on an unbounded column comes from pinning it at 0, which the
        # node's fixings redo
        for j in np.nonzero((self.flipped != flipped) & np.isfinite(self.up))[0]:
            self.flip(int(j))
        keep = np.zeros(len(self.lo), dtype=bool)
        keep[basis] = True
        entering = keep.copy()
        entering[self.basis] = False
        for j in np.flatnonzero(entering):
            # leave a row whose basic variable is not wanted: largest entry
            col = np.where(keep[self.basis], 0.0, np.abs(self.T[:, j]))
            self.pivot(int(np.argmax(col)), int(j))


def _iteration_limit(T):
    m, cols = T.shape
    return 2000 + 200 * (m + cols - 1)


def cold_start(A, senses, b, c, sense=MAXIMIZE, lo=None, up=None):
    """Phases 1 and 2 for {opt c.x : A x (<=,==) b, lo <= x <= up} from scratch.

    `lo` defaults to 0 and `up` to +inf (np.inf or None for no bound).
    Returns (status, Tableau); the tableau is None unless status is optimal.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m0, n = A.shape if A.size else (len(b), len(c))
    if A.size == 0:
        A = A.reshape(m0, n)
    if up is None:
        up = np.full(n, np.inf)
    else:
        up = np.array([np.inf if u is None else u for u in up], dtype=float)
    if lo is not None:
        lo = np.asarray(lo, dtype=float)
        b = b - A @ lo

    # empty-row screening: a row with no coefficients is a tautology or a
    # contradiction and would otherwise confuse the tableau construction
    nonempty = np.any(np.abs(A) > 0.0, axis=1)
    keep = np.flatnonzero(nonempty)
    for r in np.flatnonzero(~nonempty):
        rhs = b[r]
        ok = rhs >= -EPS_FEAS if senses[r] == LE else abs(rhs) <= EPS_FEAS
        if not ok:
            return "infeasible", None
    if len(keep) < m0:
        A = A[keep]
        b = b[keep]
        senses = [senses[r] for r in keep]
    m = len(b)

    # normalize rhs >= 0; "<=" rows with negative rhs flip to ">="
    geq = [senses[r] == LE and b[r] < 0 for r in range(m)]
    slack = [senses[r] == LE and not geq[r] for r in range(m)]
    n_slack = sum(slack)
    n_surplus = sum(geq)
    ncols = n + m + n_surplus
    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=np.intp)
    s = n
    a = n + n_slack + n_surplus
    art_cols = []
    for r in range(m):
        if b[r] < 0:
            T[r, :n] = -A[r]
            T[r, -1] = -b[r]
        if slack[r]:
            T[r, s] = 1.0
            basis[r] = s
            s += 1
        else:
            if geq[r]:  # geq rows need both a surplus and an artificial
                T[r, s] = -1.0
                s += 1
            T[r, a] = 1.0
            basis[r] = a
            art_cols.append(a)
            a += 1
    lo_all = np.zeros(ncols)
    if lo is not None:
        lo_all[:n] = lo
    up_all = np.full(ncols, np.inf)
    up_all[:n] = up
    tab = Tableau(T, basis, lo_all, up_all, n)
    max_iter = _iteration_limit(T)

    if art_cols:
        z = tab.z
        for col in art_cols:
            z[col] = 1.0
        for r in range(m):
            if basis[r] >= n + n_slack + n_surplus:
                z -= T[r]
        if tab.primal(max_iter) != "optimal":
            raise NumericalInstability("phase 1 reported unbounded")
        if -tab.z[-1] > _PHASE1_TOL:
            return "infeasible", None
        # drive remaining artificials out of the basis
        real = n + n_slack + n_surplus
        drop_rows = []
        for r in range(m):
            if tab.basis[r] >= real:
                j = int(np.argmax(np.abs(tab.T[r, :real])))
                if abs(tab.T[r, j]) > PIVOT_TOL:
                    tab.pivot(r, j)
                else:
                    drop_rows.append(r)
        keep_rows = [r for r in range(m) if r not in set(drop_rows)]
        # cut artificial columns (and redundant rows) off the tableau
        flipped = tab.flipped[:real]
        tab = Tableau(np.hstack([tab.T[keep_rows, :real], tab.T[keep_rows, -1:]]),
                      tab.basis[keep_rows], lo_all[:real], up_all[:real], n)
        tab.flipped = flipped

    minimize = sense == MINIMIZE
    c_int = c if minimize else -c
    z = tab.z = np.zeros(tab.T.shape[1])
    z[:n] = c_int
    z[:n][tab.flipped[:n]] *= -1.0
    for r, j in enumerate(tab.basis):
        if abs(z[j]) > 0.0:
            z -= z[j] * tab.T[r]
    status = tab.primal(max_iter)
    return status, (tab if status == "optimal" else None)


def solve_lp_arrays(A, senses, b, c, sense=MAXIMIZE, uppers=None):
    """Solve {opt c.x : A x (<=,==) b, 0 <= x (<= uppers)}.

    Returns (status, objective, x). `uppers` is an optional array with np.inf
    (or None) for unbounded-above variables.
    """
    c = np.asarray(c, dtype=float)
    status, tab = cold_start(A, senses, b, c, sense, up=uppers)
    if status != "optimal":
        return status, None, None
    xv = tab.values()
    return "optimal", float(c @ xv), xv


def _feasible(X, A, eq, B, uppers=None):
    """Per row: does x, that row of X, satisfy A x (<=, or == where eq) b, that
    row of B, and 0 <= x (<= uppers), to EPS_FEAS?

    A x is one matrix-vector product per row, so each row gets the answer
    it would get alone.
    """
    ok = ~(X.min(axis=1, initial=np.inf) < -EPS_FEAS)
    if A.size:
        excess = (A @ X[:, :, None])[:, :, 0] - B
        if eq.any():
            excess = np.where(eq, np.abs(excess), excess)
        ok &= ~(excess.max(axis=1) > EPS_FEAS)
    if uppers is not None:
        ok &= ~(X > uppers + EPS_FEAS).any(axis=1)
    return ok


def _verify(prog, xv, A, senses, b):
    """Does xv satisfy prog's rows (A, senses, b from prog.dense()) and bounds?"""
    eq = np.array([s == EQ for s in senses], dtype=bool)
    uppers = np.array([np.inf if v.upper is None else v.upper for v in prog.variables])
    return bool(_feasible(xv[None], A, eq, b[None], uppers)[0])


def solve_lp(prog):
    """Solve a pure LP ConstraintProgram (no binaries, no groups).

    An optimal Solution carries the final basis when the tableau kept one
    row per program row: column indices into [A | one slack column per
    "<=" row, in row order].
    """
    if any(v.kind == BINARY for v in prog.variables):
        raise ValueError("solve_lp: program contains binary variables; use solve_mip")
    if prog.exactly_one_groups:
        raise ValueError("solve_lp: program contains exactly-one groups; use solve_mip")
    A, senses, b, c = prog.dense()
    uppers = [v.upper for v in prog.variables]
    status, tab = cold_start(A, senses, b, c, prog.sense, up=uppers)
    if status != "optimal":
        return Solution(status=status)
    xv = tab.values()
    if not _verify(prog, xv, A, senses, b):
        raise NumericalInstability("solution failed the feasibility recheck")
    # a "<=" row with b < 0 is negated and gets a surplus column in its
    # slack's place, so the column numbering is the same either way
    basis = tuple(int(j) for j in tab.basis) if len(tab.basis) == len(b) else None
    return Solution(status="optimal", objective=float(c @ xv), values=xv,
                    names=tuple(v.name for v in prog.variables), basis=basis)
