"""Independent oracles used by the test suite.

The solver, statistics and edge oracles deliberately share no code with
the package: the LP oracle enumerates constraint-intersection vertices,
the MILP oracle enumerates binary patterns on top of it, the Wilcoxon oracle enumerates sign patterns literally, and
the Kendall oracle enumerates every permutation of the gaps. The edge
oracles project one allocation onto its network's edges by id, and tally a
heatmap one sample and one edge at a time. `assignment_violations` checks a
flow assignment against each node behaviour's semantics directly; it takes
only the node classes and the flow threshold from the package.

The region and search oracles are the package's earlier per-point code,
kept as references for the stacked forms: `membership` tests one point
row block by row block, `ExclusionOracle` screens one point at a time and
counts its checks, and `find_adversarial` builds, screens and offers every
grid point, draw and poll candidate one at a time. The search shares the
package's input space, result types, gap dispatch and random substreams,
so the two searches differ only in how their points travel.

`reference_solve_lp` is likewise the package's earlier cold simplex path
(`solve_lp`, `cold_start`, the primal loop, the pivot and the recheck),
kept verbatim as the reference for the array-built set-up and ratio test.
"""

import itertools

import numpy as np

from xplain.analyzer import (
    EPS_MEM,
    GRID_MIN_SIDE,
    STEP_START,
    STEP_STOP,
    TOP_STARTS,
    UNIFORM_SHARE,
    AdversarialPoint,
    NotFound,
    _grid_side,
    evaluate_gaps,
)
from xplain.flow import EPS_FLOW, AllEqual, Copy, Multiply, Pick, Source, Split
from xplain.rng import substream
from xplain.solver.program import (
    BINARY,
    EQ,
    LE,
    MAXIMIZE,
    MINIMIZE,
    NumericalInstability,
    Solution,
)
from xplain.solver.simplex import (
    _PHASE1_TOL,
    _PRIMAL_TOL,
    _RC_TOL,
    _SMALL_PIVOT,
    EPS_FEAS,
    PIVOT_TOL,
    _feasible as _feasible_rows,
    _iteration_limit,
)
from xplain.solver.work import open_counts

_FEAS_TOL = 1e-9


def _stack_rows(A, senses, b, n):
    """All rows as <= / == pairs including the x >= 0 rows."""
    rows = []
    for i in range(len(b)):
        rows.append((np.array(A[i], dtype=float), senses[i], float(b[i])))
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append((e, "<=", 0.0))
    return rows


def _feasible(x, rows):
    for a, sense, rhs in rows:
        v = float(a @ x)
        if sense == "<=" and v > rhs + 1e-7:
            return False
        if sense == "==" and abs(v - rhs) > 1e-7:
            return False
    return True


def _vertices(rows, n):
    """Every basic point: intersections of n rows treated as equalities."""
    out = []
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        r = np.array([rows[i][2] for i in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, r)
        if _feasible(x, rows):
            out.append(x)
    return out


def lp_oracle(A, senses, b, c, sense="max"):
    """Return (status, value) for {opt c.x : A x (<=,==) b, x >= 0}, n <= 3.

    Vertex enumeration plus a recession-cone check for unboundedness.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = _stack_rows(A, senses, b, n)
    verts = _vertices(rows, n)
    if not verts:
        return "infeasible", None
    # recession cone, normalized by sum(d) == 1 (bounded polytope since d >= 0)
    rec_rows = []
    for a, sense_r, _rhs in rows:
        rec_rows.append((a, sense_r, 0.0))
    rec_rows.append((np.ones(n), "==", 1.0))
    rec_verts = _vertices(rec_rows, n)
    sign = 1.0 if sense == "max" else -1.0
    for d in rec_verts:
        if sign * float(c @ d) > 1e-9:
            return "unbounded", None
    vals = [float(c @ v) for v in verts]
    best = max(vals) if sense == "max" else min(vals)
    return "optimal", best


def milp_oracle(A_cont, A_bin, senses, b, c_cont, c_bin, sense="max"):
    """Enumerate binary patterns, solve each restricted LP via lp_oracle."""
    A_cont = np.asarray(A_cont, dtype=float)
    A_bin = np.asarray(A_bin, dtype=float)
    b = np.asarray(b, dtype=float)
    c_cont = np.asarray(c_cont, dtype=float)
    c_bin = np.asarray(c_bin, dtype=float)
    ny = len(c_bin)
    best = None
    feasible = False
    for pattern in itertools.product((0.0, 1.0), repeat=ny):
        y = np.array(pattern)
        b_eff = b - (A_bin @ y if ny else 0.0)
        const = float(c_bin @ y) if ny else 0.0
        if len(c_cont) == 0:
            ok = all(
                (v <= rhs + 1e-9) if s == "<=" else (abs(v - rhs) <= 1e-9)
                for v, s, rhs in zip(np.zeros(len(b_eff)), senses, b_eff)
            )
            if ok:
                feasible = True
                if best is None or (const > best if sense == "max" else const < best):
                    best = const
            continue
        status, val = lp_oracle(A_cont, senses, b_eff, c_cont, sense)
        if status == "unbounded":
            return "unbounded", None
        if status == "optimal":
            feasible = True
            total = val + const
            if best is None or (total > best if sense == "max" else total < best):
                best = total
    if not feasible:
        return "infeasible", None
    return "optimal", best


def wilcoxon_oracle(diffs, alternative="greater"):
    """Exact signed-rank p by literal enumeration of the 2^n sign patterns."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise ValueError("all differences are zero")
    mag = np.abs(d)
    order = np.argsort(mag, kind="stable")
    ranks = np.empty(n)
    sorted_mag = mag[order]
    i = 0
    pos = 1
    while i < n:
        j = i
        while j + 1 < n and sorted_mag[j + 1] == sorted_mag[i]:
            j += 1
        avg = (pos + pos + (j - i)) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        pos += j - i + 1
        i = j + 1
    w_obs = float(ranks[d > 0].sum())
    ws = []
    for pattern in itertools.product((False, True), repeat=n):
        ws.append(float(ranks[np.array(pattern)].sum()))
    ws = np.array(ws)
    total = len(ws)
    p_ge = float(np.count_nonzero(ws >= w_obs - 1e-12)) / total
    p_le = float(np.count_nonzero(ws <= w_obs + 1e-12)) / total
    if alternative == "greater":
        return w_obs, p_ge
    if alternative == "less":
        return w_obs, p_le
    return w_obs, min(1.0, 2.0 * min(p_ge, p_le))


def kendall_oracle(pairs, alternative="greater"):
    """Exact Kendall trend p by literal enumeration of the n! permutations.

    S = sum over i < j of sign(x_j - x_i) * sign(y_j - y_i); p is the share
    of permutations of y whose S is at least (greater), at most (less) the
    observed one, or twice the smaller share (two-sided, capped at 1).
    """
    x = np.array([float(a) for a, _ in pairs])
    y = np.array([float(b) for _, b in pairs])
    n = len(x)
    i, j = np.triu_indices(n, 1)
    sx = np.sign(x[j] - x[i]).astype(np.int64)
    s_obs = int(np.sum(sx * np.sign(y[j] - y[i]).astype(np.int64)))
    perms = np.array(list(itertools.permutations(range(n))))
    yp = y[perms]
    s_all = (np.sign(yp[:, j] - yp[:, i]).astype(np.int64) * sx).sum(axis=1)
    total = len(perms)
    p_ge = int(np.count_nonzero(s_all >= s_obs)) / total
    p_le = int(np.count_nonzero(s_all <= s_obs)) / total
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))


def bin_packing_oracle(sizes, capacity=1.0):
    """Minimum number of bins for 1-D `sizes`, by a DP over subsets.

    best[mask] is the least (bins opened, load of the last bin) over orders
    that pack exactly the balls in `mask` bin by bin; every optimal packing
    is such an order, so best[full][0] is the optimum. Vectorised over
    subsets of equal size, which depend only on the size below them.
    """
    s = np.asarray(sizes, dtype=float)
    n = len(s)
    if n == 0:
        return 0
    full = 1 << n
    bins = np.full(full, n + 1, dtype=np.int64)
    load = np.full(full, np.inf)
    bins[0], load[0] = 1, 0.0
    masks = np.arange(full)
    popcount = np.zeros(full, dtype=np.int64)
    for i in range(n):
        popcount += (masks >> i) & 1
    for k in range(1, n + 1):
        layer = masks[popcount == k]
        for i in range(n):
            have = layer[(layer >> i) & 1 == 1]
            prev = have ^ (1 << i)
            fits = load[prev] + s[i] <= capacity + 1e-9
            nb = np.where(fits, bins[prev], bins[prev] + 1)
            nl = np.where(fits, load[prev] + s[i], s[i])
            better = (nb < bins[have]) | ((nb == bins[have]) & (nl < load[have]))
            bins[have[better]] = nb[better]
            load[have[better]] = nl[better]
    return int(bins[full - 1])


def te_edge_flows(inst, demands, path_flows):
    """Edge id -> flow of one TE routing, path by path in demand order.

    `path_flows` holds, per demand, the flow on each of its paths.
    """
    flows = {}
    for link in inst.links:
        flows[f"met:{link.src}->{link.dst}"] = 0.0
    for k, dem in enumerate(inst.demands):
        routed = 0.0
        for path, f in zip(dem.paths, path_flows[k]):
            pid = "-".join(path)
            routed += f
            flows[f"assign:{dem.key}:{pid}"] = 0.0 + f
            for u, v in zip(path, path[1:]):
                flows[f"traverse:{pid}:{u}->{v}"] = 0.0 + f
                flows[f"met:{u}->{v}"] += f
        flows[f"unmet:{dem.key}"] = max(0.0, float(demands[k]) - routed)
    return flows


def vbp_edge_flows(sizes, assignment, n_bins):
    """Edge id -> flow of one packing into `n_bins` bins, ball by ball."""
    flows = {f"occupied:{j}": 0.0 for j in range(n_bins)}
    for i, size in enumerate(sizes):
        for j in range(n_bins):
            flows[f"place:{i}:{j}"] = 0.0
        flows[f"place:{i}:{assignment[i]}"] = size
        flows[f"occupied:{assignment[i]}"] += size
    return flows


def edge_tally(edge_ids, samples, eps=1e-9):
    """Edge id -> (both, benchmark only, heuristic only, neither, mean |delta|).

    `samples` is a list of (heuristic, benchmark) edge id -> flow mappings;
    an edge sends flow when its flow exceeds eps.
    """
    out = {}
    for eid in edge_ids:
        both = bench = heur = 0
        delta = 0.0
        for hflow, bflow in samples:
            h, b = hflow[eid], bflow[eid]
            if h > eps and b > eps:
                both += 1
            elif b > eps:
                bench += 1
            elif h > eps:
                heur += 1
            delta += abs(b - h)
        n = len(samples)
        out[eid] = (both, bench, heur, n - both - bench - heur, delta / n)
    return out


def assignment_violations(net, assignment, eps=1e-6):
    """Check a FlowAssignment (edge id -> flow) against every node behavior."""
    issues = []
    flow = {e.id: float(assignment.get(e.id, 0.0)) for e in net.edges}
    for eid, f in flow.items():
        if f < -eps:
            issues.append(f"edge {eid!r}: negative flow {f}")
    for e in net.edges:
        if e.capacity is not None and flow[e.id] > e.capacity + eps:
            issues.append(f"edge {e.id!r}: flow {flow[e.id]} exceeds capacity {e.capacity}")
        if e.fixed_rate is not None and abs(flow[e.id] - e.fixed_rate) > eps:
            issues.append(f"edge {e.id!r}: flow {flow[e.id]} != fixed rate {e.fixed_rate}")
    for nid, beh in net.nodes.items():
        ins = sum(flow[e.id] for e in net.in_edges(nid))
        outs_edges = net.out_edges(nid)
        outs = sum(flow[e.id] for e in outs_edges)
        if isinstance(beh, Source):
            beh = beh.inner
            if isinstance(beh, Pick):
                positive = [e.id for e in outs_edges if flow[e.id] > EPS_FLOW]
                if len(positive) > 1:
                    issues.append(f"node {nid!r}: pick sends flow on {positive}")
            continue  # conservation at sources is driven by the input value
        if isinstance(beh, Split):
            if abs(ins - outs) > eps:
                issues.append(f"node {nid!r}: split conservation off by {ins - outs}")
        elif isinstance(beh, Pick):
            if abs(ins - outs) > eps:
                issues.append(f"node {nid!r}: pick conservation off by {ins - outs}")
            positive = [e.id for e in outs_edges if flow[e.id] > EPS_FLOW]
            if len(positive) > 1:
                issues.append(f"node {nid!r}: pick sends flow on {positive}")
        elif isinstance(beh, Multiply):
            if len(net.in_edges(nid)) == 1 and len(outs_edges) == 1:
                got = flow[outs_edges[0].id]
                want = beh.factor * ins
                if abs(got - want) > eps:
                    issues.append(f"node {nid!r}: multiply output {got} != {want}")
        elif isinstance(beh, AllEqual):
            incident = [flow[e.id] for e in net.in_edges(nid)] + \
                       [flow[e.id] for e in outs_edges]
            if incident and max(incident) - min(incident) > eps:
                issues.append(f"node {nid!r}: all-equal flows spread "
                              f"{max(incident) - min(incident)}")
        elif isinstance(beh, Copy):
            for e in outs_edges:
                if abs(flow[e.id] - ins) > eps:
                    issues.append(f"node {nid!r}: copy edge {e.id!r} flow "
                                  f"{flow[e.id]} != total in {ins}")
    return issues


def membership(x, subspace, tol=EPS_MEM):
    """True iff x satisfies every box row A·x ≤ C and tree row T·x ≤ V."""
    x = np.asarray(x, dtype=float)
    for rows, rhs in ((subspace.A, subspace.C), (subspace.T, subspace.V)):
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            continue
        rows = rows.reshape(-1, len(x))
        if np.any(rows @ x > np.asarray(rhs, dtype=float) + tol):
            return False
    return True


class ExclusionOracle:
    """Regions screened one point at a time; counts checks and rejects."""

    def __init__(self, subspaces=()):
        self._subspaces = list(subspaces)
        self.checks = 0
        self.rejected = []  # every point it turned away, in order

    def rejects(self, x):
        hit = any(membership(x, s) for s in self._subspaces)
        self.checks += 1
        if hit:
            self.rejected.append(tuple(float(v) for v in x))
        return hit


class _Best:
    """Deterministic argmax over evaluated candidates.

    Ties in gap keep the earliest candidate, so the reduction is the same
    no matter how evaluation might be scheduled.
    """

    def __init__(self):
        self.gap = None
        self.x = None
        self.index = -1
        self.count = 0

    def offer(self, x, g):
        idx = self.count
        self.count += 1
        if self.gap is None or g > self.gap:
            self.gap, self.x, self.index = g, np.array(x), idx


def _poll_directions(n):
    # dimension-major, positive step first: fixed deterministic order
    for d in range(n):
        yield d, 1.0
        yield d, -1.0


def _pattern_search(space, gap_fn, excl, start_x, start_gap, best, budget_left):
    """Greedy coordinate polling with halving steps. Returns evals used.

    A poll round's candidates do not depend on its own gaps, so each round
    is one stack, cut where the budget runs out.
    """
    x = np.array(start_x)
    gx = start_gap
    step = STEP_START * space.ranges
    frac = STEP_START
    used = 0
    while frac >= STEP_STOP and used < budget_left:
        cands = []
        for d, sign in _poll_directions(space.n):
            if used + len(cands) >= budget_left:
                break
            cand = x.copy()
            cand[d] += sign * step[d]
            cand = space.clip(cand)
            if np.array_equal(cand, x) or excl.rejects(cand):
                continue
            cands.append(cand)
        move = None
        move_gap = gx
        for cand, g in zip(cands, evaluate_gaps(gap_fn, cands).tolist()):
            best.offer(cand, g)
            if g > move_gap:
                move, move_gap = cand, g
        used += len(cands)
        if move is not None:
            x, gx = move, move_gap
        else:
            step = step / 2.0
            frac /= 2.0
    return used


def find_adversarial(space, gap_fn, exclusions=None, budget=2000,
                     min_gap=0.0, seed=0):
    """Best effort search for a point with gap ≥ min_gap outside all exclusions.

    Returns an AdversarialPoint on success, else NotFound once the
    evaluation budget is spent. The budget counts evaluated points;
    candidates rejected by the exclusion set consume none but are capped
    separately so a fully excluded space still terminates.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    excl = exclusions if exclusions is not None else ExclusionOracle()
    best = _Best()

    side = _grid_side(space.n, budget)
    if space.n <= 3 and side >= GRID_MIN_SIDE:
        axes = [np.linspace(lo, hi, side) for lo, hi in space.bounds]
        grid = (np.array([axes[d][i] for d, i in enumerate(idx)])
                for idx in np.ndindex(*([side] * space.n)))
        points = [x for x in grid if not excl.rejects(x)]
        for x, g in zip(points, evaluate_gaps(gap_fn, points).tolist()):
            best.offer(x, g)
        evals = len(points)
        strategy = "grid"
    else:
        rng = substream(seed, "analyzer", "uniform")
        lows, ranges = space.lows, space.ranges
        explore = max(1, int(budget * UNIFORM_SHARE))
        draws = 0
        points = []  # accepted exploration draws; rejections do not count
        while len(points) < explore and draws < 10 * budget:
            x = lows + rng.random(space.n) * ranges
            draws += 1
            if not excl.rejects(x):
                points.append(x)
        gaps = evaluate_gaps(gap_fn, points).tolist()
        for x, g in zip(points, gaps):
            best.offer(x, g)
        evals = len(points)
        # (gap, order, x) of the exploration points, best first
        starts = sorted(zip(gaps, range(evals), points), key=lambda t: (-t[0], t[1]))
        for g, _, x in starts[:TOP_STARTS]:
            if evals >= budget:
                break
            evals += _pattern_search(space, gap_fn, excl, x, g, best,
                                     budget - evals)
        strategy = "pattern-search"

    if best.gap is not None and best.gap >= min_gap:
        return AdversarialPoint(x=tuple(float(v) for v in best.x),
                                gap=float(best.gap), strategy=strategy,
                                evaluations=evals)
    best_x = None if best.x is None else tuple(float(v) for v in best.x)
    return NotFound(evaluations=evals, best_gap=best.gap, best_x=best_x)


# --- the cold simplex path as it was before its set-up went to arrays --------
#
# Copied verbatim, so that a differential test can hold the current path to
# the same status, basis, pivot count and bits. It shares only the program
# types, the tolerances, `_iteration_limit`, `_feasible` and the counters.


def _reference_pivot(T, z, basis, r, j):
    piv = T[r, j]
    if abs(piv) < PIVOT_TOL:
        raise NumericalInstability(f"pivot {piv:.3e} below tolerance")
    T[r] = T[r] / piv
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    z -= z[j] * T[r]
    basis[r] = j


class ReferenceTableau:
    """The earlier `Tableau`: the methods a cold solve uses, verbatim."""

    def __init__(self, T, basis, lo, up, n):
        self.T = T
        self.z = np.zeros(T.shape[1])
        self.basis = basis
        self.lo = lo
        self.up = up
        self.flipped = np.zeros(len(lo), dtype=bool)
        self.n = n
        self.work = open_counts()

    def pivot(self, r, j):
        _reference_pivot(self.T, self.z, self.basis, r, j)
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


def reference_cold_start(A, senses, b, c, sense=MAXIMIZE, lo=None, up=None):
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
    tab = ReferenceTableau(T, basis, lo_all, up_all, n)
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
        tab = ReferenceTableau(np.hstack([tab.T[keep_rows, :real], tab.T[keep_rows, -1:]]),
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


def _reference_verify(prog, xv, A, senses, b):
    """Does xv satisfy prog's rows (A, senses, b from prog.dense()) and bounds?"""
    eq = np.array([s == EQ for s in senses], dtype=bool)
    uppers = np.array([np.inf if v.upper is None else v.upper for v in prog.variables])
    return bool(_feasible_rows(xv[None], A, eq, b[None], uppers)[0])


def reference_solve_lp(prog):
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
    status, tab = reference_cold_start(A, senses, b, c, prog.sense, up=uppers)
    if status != "optimal":
        return Solution(status=status)
    xv = tab.values()
    if not _reference_verify(prog, xv, A, senses, b):
        raise NumericalInstability("solution failed the feasibility recheck")
    # a "<=" row with b < 0 is negated and gets a surplus column in its
    # slack's place, so the column numbering is the same either way
    basis = tuple(int(j) for j in tab.basis) if len(tab.basis) == len(b) else None
    return Solution(status="optimal", objective=float(c @ xv), values=xv,
                    names=tuple(v.name for v in prog.variables), basis=basis)
