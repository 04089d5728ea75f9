"""Vector bin packing: first-fit and the exact minimum-bins benchmark.

`min_bins` is the benchmark: for 1-D balls in an unbounded pool of one bin
type it settles most instances with lower bounds and cheap packings, and
hands the rest, and every other instance, to the assignment MILP of
`optimal_vbp`.
"""

from bisect import bisect_left
from dataclasses import dataclass

import math

import numpy as np

from ..solver.work import open_counts
from .binpack_bounds import FIT_TOL, gilmore_gomory_bound, l2_bound

# min_bins asks the search only for a bin count that a lower bound has
# reached, never to prove that none fits; over 1,200 seeded points of 4 to
# 17 balls it needed at most 1,727 nodes
SEARCH_NODE_LIMIT = 20_000


class Unplaceable(Exception):
    """First-fit ran out of bins for a ball (fixed bin count only)."""

    def __init__(self, ball):
        self.ball = ball
        super().__init__(f"ball {ball} fits in no bin")


def _as_vectors(rows, name):
    out = []
    for row in rows:
        vec = (float(row),) if np.isscalar(row) else tuple(float(v) for v in row)
        out.append(vec)
    if out and len({len(v) for v in out}) != 1:
        raise ValueError(f"{name} must share one dimensionality")
    return tuple(out)


@dataclass(frozen=True)
class VbpInstance:
    """Balls to pack, in processing order, plus the bin pool.

    `bins` is an explicit tuple of per-dimension capacities (fixed pool), or
    None for an unbounded pool of identical `bin_capacity` bins.
    """

    sizes: tuple
    bins: tuple | None = None
    bin_capacity: tuple | None = None

    def __post_init__(self):
        sizes = _as_vectors(self.sizes, "sizes")
        object.__setattr__(self, "sizes", sizes)
        dim = len(sizes[0]) if sizes else 1
        if self.bins is not None:
            bins = _as_vectors(self.bins, "bins")
            if bins and sizes and len(bins[0]) != dim:
                raise ValueError("bin dimensionality differs from ball sizes")
            object.__setattr__(self, "bins", bins)
            object.__setattr__(self, "bin_capacity", None)
        else:
            cap = self.bin_capacity if self.bin_capacity is not None else (1.0,) * dim
            cap = (float(cap),) if np.isscalar(cap) else tuple(float(v) for v in cap)
            if sizes and len(cap) != dim:
                raise ValueError("bin dimensionality differs from ball sizes")
            object.__setattr__(self, "bin_capacity", cap)
        for vec in sizes:
            if any(v < 0 for v in vec):
                raise ValueError("ball sizes must be nonnegative")

    @property
    def n_balls(self):
        return len(self.sizes)

    @property
    def dim(self):
        if self.sizes:
            return len(self.sizes[0])
        return len(self.bins[0]) if self.bins else len(self.bin_capacity)

    @property
    def unbounded(self):
        return self.bins is None

    def bin_list(self, count):
        """Concrete bin capacities: the fixed pool, or `count` identical bins."""
        if self.bins is not None:
            return self.bins
        return tuple(self.bin_capacity for _ in range(count))

    def identical_bins(self):
        return self.bins is None or len(set(self.bins)) <= 1


def sized_instance(inst, sizes):
    """An unbounded pool of `inst`'s one bin type, holding 1-D balls `sizes`.

    This is the shape the gap, `explain` and `run-heuristic` evaluate, so
    that every size vector of the box has a packing. Raises ValueError when
    `inst` has a fixed pool of mixed bin types.
    """
    if inst.unbounded:
        cap = inst.bin_capacity
    elif inst.identical_bins():
        cap = inst.bins[0]
    else:
        raise ValueError("size inputs need one bin type")
    balls = tuple((float(s),) for s in np.asarray(sizes, dtype=float).ravel())
    return VbpInstance(balls, None, cap)


@dataclass(frozen=True)
class VbpAllocation:
    assignment: tuple  # ball -> bin index
    bins_used: int
    loads: tuple       # per bin, per dimension


def _loads(inst, assignment, n_bins):
    loads = [[0.0] * inst.dim for _ in range(n_bins)]
    for i, j in enumerate(assignment):
        for axis, v in enumerate(inst.sizes[i]):
            loads[j][axis] += v
    return tuple(tuple(row) for row in loads)


def run_ff(inst):
    """First-fit in index order; lowest-index bin whose residual fits, all dims.

    Returns the VbpAllocation. With an unbounded pool a fresh bin is opened
    whenever nothing fits; with a fixed pool Unplaceable is raised.
    """
    fixed = inst.bins is not None
    bins = list(inst.bins) if fixed else []
    used = [[0.0] * inst.dim for _ in bins]
    assignment = []

    for i, size in enumerate(inst.sizes):
        placed = None
        for j, cap in enumerate(bins):
            if all(cap[d] - size[d] - used[j][d] >= 0 for d in range(inst.dim)):
                placed = j
                break
        if placed is None:
            if fixed:
                raise Unplaceable(i)
            cap = inst.bin_capacity
            if any(cap[d] - size[d] < 0 for d in range(inst.dim)):
                raise Unplaceable(i)
            bins.append(cap)
            used.append([0.0] * inst.dim)
            placed = len(bins) - 1
        for d in range(inst.dim):
            used[placed][d] += size[d]
        assignment.append(placed)

    bins_used = len(set(assignment))
    return VbpAllocation(tuple(assignment), bins_used, _loads(inst, assignment, len(bins)))


def _volume_bound(inst, bins):
    """ceil(total size / bin capacity), best over dimensions (identical bins)."""
    if not inst.sizes:
        return 0
    bound = 1
    cap = bins[0]
    for d in range(inst.dim):
        total = sum(s[d] for s in inst.sizes)
        if cap[d] > 0:
            bound = max(bound, math.ceil(total / cap[d] - 1e-9))
    return bound


def optimal_vbp(inst, node_limit=None):
    """Exact minimum number of bins, by MILP; `min_bins`'s fallback.

    First-fit's packing is an upper bound, and it is returned when it meets
    the lower bound (the volume bound for identical bins, else one bin).
    Otherwise the assignment MILP runs over the fixed pool or, for identical
    bins, over one bin fewer than first-fit used; when that MILP is
    infeasible first-fit was optimal. Raises SolverError when the MILP ends
    in any other status.
    """
    from ..solver import BINARY, EQ, LE, ConstraintProgram, SolverError, solve_mip

    if inst.n_balls == 0:
        return VbpAllocation((), 0, ())
    ff_alloc = run_ff(inst)
    ff_bins = ff_alloc.bins_used
    symmetric = inst.identical_bins()
    bound = _volume_bound(inst, inst.bin_list(1)) if symmetric else 1
    if ff_bins <= bound:
        return ff_alloc
    n_bins = ff_bins - 1 if symmetric else len(inst.bins)
    bins = inst.bin_list(ff_bins)[:n_bins]

    # internally process large balls first; tightens the j <= i restriction
    order = sorted(range(inst.n_balls),
                   key=lambda i: (tuple(-v for v in inst.sizes[i]), i))
    sizes = [inst.sizes[i] for i in order]

    prog = ConstraintProgram(sense="min")
    x = {}
    for i in range(len(sizes)):
        top = min(i, n_bins - 1) if symmetric else n_bins - 1
        for j in range(top + 1):
            x[(i, j)] = prog.add_variable(f"x:{i}:{j}", upper=1.0)
    z = [prog.add_variable(f"z:{j}", kind=BINARY) for j in range(n_bins)]

    for i in range(len(sizes)):
        members = [x[(i, j)] for j in range(n_bins) if (i, j) in x]
        prog.add_constraint({idx: 1.0 for idx in members}, EQ, 1.0)
        prog.add_group(members)
        for j in range(n_bins):
            if (i, j) in x:
                prog.add_constraint({x[(i, j)]: 1.0, z[j]: -1.0}, LE, 0.0)
    for j in range(n_bins):
        for d in range(inst.dim):
            coeffs = {x[(i, j)]: sizes[i][d]
                      for i in range(len(sizes)) if (i, j) in x and sizes[i][d] != 0.0}
            coeffs[z[j]] = coeffs.get(z[j], 0.0) - bins[j][d]
            prog.add_constraint(coeffs, LE, 0.0)
    if symmetric:
        for j in range(n_bins - 1):
            prog.add_constraint({z[j]: -1.0, z[j + 1]: 1.0}, LE, 0.0)
        prog.add_constraint({idx: -1.0 for idx in z}, LE, -float(bound))
    prog.set_objective({idx: 1.0 for idx in z}, "min")

    kwargs = {} if node_limit is None else {"node_limit": node_limit}
    sol = solve_mip(prog, integral_objective=True, **kwargs)
    if sol.status == "infeasible":
        return ff_alloc
    if sol.status != "optimal":
        raise SolverError(f"bin-packing MILP ended {sol.status!r}")

    assignment = [0] * inst.n_balls
    for (i, j), idx in x.items():
        if sol.values[idx] > 0.5:
            assignment[order[i]] = j
    bins_used = int(round(sol.objective))
    return VbpAllocation(tuple(assignment), bins_used,
                         _loads(inst, assignment, n_bins))


def _allocation(inst, assignment):
    n_bins = max(assignment) + 1
    return VbpAllocation(tuple(assignment), len(set(assignment)),
                         _loads(inst, assignment, n_bins))


def _pack(sizes, cap, k, node_limit):
    """A ball -> bin assignment of 1-D `sizes` into at most `k` bins, or None.

    Depth-first search: balls largest first, each into the first bin it
    fits, and each distinct bin load tried once (so one empty bin), so the
    first descent is first-fit decreasing; with k = len(sizes) it never
    backtracks, and len(sizes) nodes suffice. A branch is cut when the
    balls left outweigh the room they can still use: in each bin, the
    lesser of its free room and the total of the balls left that fit
    there. None when no packing exists or the search has visited
    `node_limit` nodes.
    """
    c = cap + FIT_TOL
    n = len(sizes)
    order = sorted(range(n), key=lambda i: (-sizes[i], i))
    desc = [sizes[i] for i in order]
    rising = [-s for s in desc]
    tail = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        tail[t] = tail[t + 1] + desc[t]
    loads = [0.0] * k
    assignment = [0] * n
    nodes = 0

    def usable(t):
        room = 0.0
        for load in loads:
            free = c - load
            room += min(free, tail[bisect_left(rising, -free, lo=t)])
        return room

    def place(t):
        nonlocal nodes
        if t == n:
            return True
        nodes += 1
        if nodes > node_limit or usable(t) + FIT_TOL < tail[t]:
            return False
        size, tried = desc[t], set()
        for j, load in enumerate(loads):
            if load in tried or load + size > c:
                continue
            tried.add(load)
            loads[j] = load + size
            assignment[order[t]] = j
            if place(t + 1):
                return True
            loads[j] = load
        return False

    return assignment if place(0) else None


def _settled(how, alloc):
    work = open_counts()
    if work is not None:
        setattr(work, how, getattr(work, how) + 1)
    return alloc


def min_bins(inst):
    """Exact minimum-bin packing, bound first.

    For 1-D balls in an unbounded pool of one bin type, each step returns
    as soon as a packing meets the best lower bound so far:

    1. first-fit's packing, against max(volume bound, L2);
    2. first-fit decreasing (FFD);
    3. the better of the two, against the Gilmore-Gomory LP bound;
    4. a packing into exactly that many bins by `_pack`'s bounded search.

    The MILP of `optimal_vbp` runs only when the search gives up, or for
    any other instance. Packings fit under the tolerant test of
    `binpack_bounds`. Inside `solver.counting()` each call adds one to the
    count of the step that settled it (`vbp_milp` for `optimal_vbp`).
    """
    if not (inst.unbounded and inst.dim == 1 and inst.n_balls):
        return _settled("vbp_milp", optimal_vbp(inst))
    ff = run_ff(inst)
    sizes = [s[0] for s in inst.sizes]
    cap = inst.bin_capacity[0]
    lower = max(1, l2_bound(sizes, cap))
    if ff.bins_used <= lower:
        return _settled("vbp_bound", ff)
    ffd = _allocation(inst, _pack(sizes, cap, len(sizes), len(sizes)))
    if ffd.bins_used <= lower:
        return _settled("vbp_ffd", ffd)
    best = ff if ff.bins_used <= ffd.bins_used else ffd
    patterns = [[i for i, j in enumerate(alloc.assignment) if j == b]
                for alloc in (ff, ffd) for b in set(alloc.assignment)]
    lower = max(lower, gilmore_gomory_bound(sizes, cap, patterns, best.bins_used))
    if best.bins_used <= lower:
        return _settled("vbp_gg", best)
    found = _pack(sizes, cap, lower, SEARCH_NODE_LIMIT)
    if found is not None:
        return _settled("vbp_search", _allocation(inst, found))
    return _settled("vbp_milp", optimal_vbp(inst))
