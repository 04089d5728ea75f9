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

A cold start lays out its slack, surplus and artificial columns and its
starting reduced costs with whole-array operations, and the ratio test
takes every row at once; both give, bit for bit, the pivots and values of
the row-by-row code kept as the reference in tests/oracles.py.
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
    row = T[r]
    row /= piv
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * row
    z -= z[j] * row
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
        T, basis = self.T, self.basis
        beta, costs = T[:, -1], self.z[:-1]  # views: pivots and flips work in place
        span = self.up - self.lo
        bounded = np.isfinite(span)
        any_bounded = bool(bounded.any())
        movable = span > 0.0 if any_bounded else None
        if not len(costs):
            return "optimal"  # no columns
        ratios = np.empty(len(basis))
        for _ in range(max_iter):
            neg = costs < -_RC_TOL
            if movable is not None:
                neg &= movable
            j = int(neg.argmax())
            if not neg[j]:
                return "optimal"
            col = T[:, j]
            # per row, the ratio at which its basic variable reaches 0 or,
            # rising, a finite upper bound; inf where it never does
            down = col > PIVOT_TOL
            ratios.fill(np.inf)
            np.divide(beta, col, out=ratios, where=down)
            if any_bounded:
                up = (col < -PIVOT_TOL) & bounded[basis]
                np.divide(span[basis] - beta, -col, out=ratios, where=up)
            best = np.minimum.reduce(ratios, initial=np.inf)
            if span[j] <= best:
                if not bounded[j]:
                    return "unbounded"
                self.flip(j)  # the entering column reaches its own bound first
                continue
            tied = (ratios <= best + 1e-12).nonzero()[0]
            # anti-cycling: among tied rows leave the lowest-index basic variable
            r = int(tied[0] if len(tied) == 1 else tied[np.argmin(basis[tied])])
            if abs(col[r]) < _SMALL_PIVOT:
                # that pivot is rounding noise and would blow the tableau up:
                # Harris instead, the largest pivot among the rows whose ratio
                # is within tolerance of the least (falling rows, then rising)
                rows = np.flatnonzero(down)
                if any_bounded:
                    rows = np.concatenate([rows, np.flatnonzero(up)])
                rising = col[rows] < 0
                num = np.where(rising, span[basis[rows]] - beta[rows], beta[rows])
                den = np.where(rising, -col[rows], col[rows])
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

    le = np.array([s == LE for s in senses], dtype=bool)

    # empty-row screening: a row with no coefficients is a tautology or a
    # contradiction and would otherwise confuse the tableau construction
    nonempty = np.logical_or.reduce(np.abs(A) > 0.0, axis=1)
    if not np.logical_and.reduce(nonempty):
        ok = np.where(le, b >= -EPS_FEAS, np.abs(b) <= EPS_FEAS)
        if not np.logical_and.reduce(ok[~nonempty]):
            return "infeasible", None
        A, b, le = A[nonempty], b[nonempty], le[nonempty]
    m = len(b)

    # normalize rhs >= 0: a row with b < 0 is negated, so a "<=" row turns
    # ">=" and gets a surplus column (-1) where others get a slack (+1).
    # Every "<=" row's slack or surplus column comes in row order after x;
    # rows without a slack (">=" and "==") get an artificial after those
    neg = b < 0
    slack = le & ~neg
    le_rows, art_rows = le.nonzero()[0], (~slack).nonzero()[0]
    real = n + len(le_rows)
    ncols = real + len(art_rows)
    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, -1] = b
    if np.logical_or.reduce(neg):
        T[neg, :n] = -A[neg]
        T[neg, -1] = -b[neg]
    basis = np.empty(m, dtype=np.intp)
    basis[le_rows] = np.arange(n, real)
    T[le_rows, basis[le_rows]] = np.where(neg[le_rows], -1.0, 1.0)
    basis[art_rows] = np.arange(real, ncols)
    T[art_rows, basis[art_rows]] = 1.0
    lo_all = np.zeros(ncols)
    if lo is not None:
        lo_all[:n] = lo
    up_all = np.full(ncols, np.inf)
    up_all[:n] = up
    tab = Tableau(T, basis, lo_all, up_all, n)
    max_iter = _iteration_limit(T)

    if len(art_rows):
        # phase 1 minimises the artificials' sum: their costs, less their
        # rows, subtracted one row at a time in row order
        tab.z[real:-1] = 1.0
        tab.z = _subtract_rows(tab.z, T[art_rows])
        if tab.primal(max_iter) != "optimal":
            raise NumericalInstability("phase 1 reported unbounded")
        if -tab.z[-1] > _PHASE1_TOL:
            return "infeasible", None
        # drive remaining artificials out of the basis
        keep = np.ones(m, dtype=bool)
        for r in (tab.basis >= real).nonzero()[0].tolist():
            j = int(np.argmax(np.abs(tab.T[r, :real])))
            if abs(tab.T[r, j]) > PIVOT_TOL:
                tab.pivot(r, j)
            else:
                keep[r] = False
        # cut artificial columns (and redundant rows) off the tableau
        flipped = tab.flipped[:real]
        T = tab.T[keep]
        tab = Tableau(np.hstack([T[:, :real], T[:, -1:]]), tab.basis[keep],
                      lo_all[:real], up_all[:real], n)
        tab.flipped = flipped

    # phase 2: the objective's costs, less each basic column's cost times
    # its row. The basic columns are unit columns, so each row's multiplier
    # is its basic column's starting cost, and the rows are subtracted in
    # row order, as one at a time would
    minimize = sense == MINIMIZE
    z = np.zeros(tab.T.shape[1])
    z[:n] = c if minimize else -c
    z[:n][tab.flipped[:n]] *= -1.0
    mult = z[tab.basis]
    rows = (np.abs(mult) > 0.0).nonzero()[0]
    tab.z = _subtract_rows(z, mult[rows, None] * tab.T[rows]) if rows.size else z
    status = tab.primal(max_iter)
    return status, (tab if status == "optimal" else None)


def _subtract_rows(z, rows):
    """z less each of `rows` in turn: ((z - rows[0]) - rows[1]) - ..., as an
    accumulated sum, which adds in order (x - y is x + (-y) in floats)."""
    return np.cumsum(np.vstack([z, -rows]), axis=0)[-1]


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
    out = np.minimum.reduce(X, axis=1, initial=np.inf) < -EPS_FEAS
    if A.size:
        excess = (A @ X[:, :, None])[:, :, 0] - B
        if eq.any():
            excess = np.where(eq, np.abs(excess), excess)
        out |= np.maximum.reduce(excess, axis=1) > EPS_FEAS
    if uppers is not None:
        out |= np.logical_or.reduce(X > uppers + EPS_FEAS, axis=1)
    return ~out


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
    # the recheck of `_verify`, with the upper bounds the tableau already
    # holds (None as inf), and none to check when no variable has one
    eq = np.array([s == EQ for s in senses], dtype=bool)
    bounds = tab.up[:tab.n] if any(u is not None for u in uppers) else None
    if not _feasible(xv[None], A, eq, b[None], bounds)[0]:
        raise NumericalInstability("solution failed the feasibility recheck")
    # a "<=" row with b < 0 is negated and gets a surplus column in its
    # slack's place, so the column numbering is the same either way
    basis = tuple(tab.basis.tolist()) if len(tab.basis) == len(b) else None
    return Solution(status="optimal", objective=float(c @ xv), values=xv,
                    names=tuple(v.name for v in prog.variables), basis=basis)
