"""Independent oracles used by the test suite.

These deliberately share no code with the package: the LP oracle enumerates
constraint-intersection vertices, the MILP oracle enumerates binary patterns
on top of it, the Wilcoxon oracle enumerates sign patterns literally, and
the Kendall oracle enumerates every permutation of the gaps.
"""

import itertools

import numpy as np

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
