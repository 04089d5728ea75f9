"""Traffic engineering: demand pinning heuristic and the max-flow benchmark.

The pinning heuristic routes every demand at or below a threshold onto its
designated shortest path (clamped to residual capacity), then solves a
path-based max-flow over what remains. The benchmark solves the same
path-based max-flow without pinning anything. `run_dp` and `optimal_te`
take one demand vector; `dp_and_optimal_totals` routes a whole stack both
ways, with the totals the two would give one vector at a time.
"""

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .. import solver
from .._validation import check_scalar

# max-flow LPs an instance keeps, one per set of skipped demands; fig1a_dp
# uses 140 sets in a seed-7 `analyze`, an instance with n demands up to 2^n
MAX_PINNED_SETS = 64
# rows routed at a time: bounds the stacks each stored basis screens, and
# so the memory a large stack takes, at little cost per row
ROUTE_ROWS = 256


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    capacity: float

    def __post_init__(self):
        check_scalar(self.capacity, f"capacity of {self.src}->{self.dst}",
                     low=0.0, inclusive_low=False)

    @property
    def key(self):
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class Demand:
    src: str
    dst: str
    paths: tuple      # tuple of node-sequence tuples
    shortest: tuple   # the pinning target, one of `paths`

    @property
    def key(self):
        return f"{self.src}->{self.dst}"


def _path_links(path):
    return list(zip(path, path[1:]))


class FlowLayout(NamedTuple):
    """What every max-flow of an instance shares, indexed as the instance is.

    Column j of the path-based max-flow is the flow of demand k on its path
    p, numbered in (k, p) order.
    """

    variables: tuple        # the column Variables, named f:k:p
    demand_columns: tuple   # per demand, its columns
    link_columns: tuple     # per link, the columns crossing it, increasing
    shortest_links: tuple   # per demand, its shortest path's links, hop order
    shortest_index: tuple   # per demand, the shortest path's place in `paths`
    capacities: np.ndarray  # per link
    # (1 + demands) x (1 + most paths) columns, a zero column (one past the
    # last) before and after each demand's own and in all of row 0: what
    # `_totals` adds up
    sum_grid: np.ndarray


@dataclass(frozen=True)
class TeInstance:
    nodes: tuple
    links: tuple      # tuple[Link]
    demands: tuple    # tuple[Demand]
    threshold: float

    def __post_init__(self):
        check_scalar(self.threshold, "pinning threshold", low=0.0)
        by_pair = {(l.src, l.dst) for l in self.links}
        if len(by_pair) != len(self.links):
            raise ValueError("a link is listed twice")
        for dem in self.demands:
            if dem.shortest not in dem.paths:
                raise ValueError(
                    f"demand {dem.key}: shortest path not among its paths")
            for path in dem.paths:
                if path[0] != dem.src or path[-1] != dem.dst:
                    raise ValueError(
                        f"demand {dem.key}: path {path} has wrong endpoints")
                for hop in _path_links(path):
                    if hop not in by_pair:
                        raise ValueError(
                            f"demand {dem.key}: path uses missing link {hop}")

    @property
    def n_demands(self):
        return len(self.demands)

    @cached_property
    def flow_layout(self):
        """The max-flow's columns and the pinning's paths, laid out once."""
        index = {(l.src, l.dst): i for i, l in enumerate(self.links)}
        variables, demand_columns = [], []
        crossing = [[] for _ in self.links]
        for k, dem in enumerate(self.demands):
            cols = []
            for p, path in enumerate(dem.paths):
                j = len(variables)
                variables.append(solver.Variable(f"f:{k}:{p}"))
                cols.append(j)
                for hop in dict.fromkeys(_path_links(path)):
                    crossing[index[hop]].append(j)
            demand_columns.append(tuple(cols))
        zero = len(variables)
        width = 1 + max((len(cols) for cols in demand_columns), default=0)
        sum_grid = np.full((1 + len(demand_columns), width), zero, dtype=np.intp)
        for k, cols in enumerate(demand_columns):
            sum_grid[1 + k, 1:1 + len(cols)] = cols
        return FlowLayout(
            tuple(variables), tuple(demand_columns), tuple(map(tuple, crossing)),
            tuple(tuple(index[hop] for hop in _path_links(dem.shortest))
                  for dem in self.demands),
            tuple(dem.paths.index(dem.shortest) for dem in self.demands),
            np.array([l.capacity for l in self.links], dtype=float), sum_grid)

    @cached_property
    def _max_flow_lps(self):
        """frozenset of skipped demands -> its max-flow, most recently used last."""
        return OrderedDict()


def all_simple_paths(nodes, links, src, dst):
    """Every simple directed path src -> dst, as node tuples."""
    adjacency = {}
    for l in links:
        adjacency.setdefault(l.src, []).append(l.dst)
    for nbrs in adjacency.values():
        nbrs.sort()
    found = []

    def walk(node, seen, trail):
        if node == dst:
            found.append(tuple(trail))
            return
        for nxt in adjacency.get(node, []):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, trail + [nxt])

    walk(src, {src}, [src])
    return found


def k_shortest_paths(nodes, links, src, dst, k=4):
    """The k hop-shortest simple paths, ties broken lexicographically."""
    paths = all_simple_paths(nodes, links, src, dst)
    paths.sort(key=lambda p: (len(p), p))
    return paths[:k]


def make_instance(nodes, links, demand_pairs, threshold, k=4):
    """Build a TeInstance, generating each demand's k shortest paths."""
    links = tuple(Link(*l) if not isinstance(l, Link) else l for l in links)
    demands = []
    for src, dst in demand_pairs:
        paths = k_shortest_paths(nodes, links, src, dst, k)
        if not paths:
            raise ValueError(f"no path from {src} to {dst}")
        demands.append(Demand(src, dst, tuple(paths), paths[0]))
    return TeInstance(tuple(nodes), links, tuple(demands), float(threshold))


@dataclass(frozen=True)
class TeAllocation:
    """Per-demand, per-path flows plus the usual aggregates."""

    demands: tuple    # requested rates, aligned with TeInstance.demands
    flows: tuple      # per demand: tuple of per-path flows
    total: float

    def routed(self, k):
        return float(sum(self.flows[k]))

    def unmet(self, k):
        return float(self.demands[k]) - self.routed(k)

    @property
    def total_unmet(self):
        return float(sum(self.demands)) - self.total


class _MaxFlow(NamedTuple):
    lp: solver.ParametricLP
    rows: np.ndarray     # per program row, its entry of [demands | residual]
    columns: np.ndarray  # the layout column of each program column


def _max_flow_lp(inst, d, residual, skip):
    """The max-flow LP for one set of skipped demands, from its first b.

    One row per unskipped demand, then one per link that an unskipped path
    crosses, straight from the instance's flow layout.
    """
    lay = inst.flow_layout
    col, rows, b_rows = {}, [], []  # col: layout -> program
    for k, cols in enumerate(lay.demand_columns):
        if k not in skip:
            for j in cols:
                col[j] = len(col)
            rows.append(solver.Constraint(tuple((col[j], 1.0) for j in cols),
                                          solver.LE, float(d[k])))
            b_rows.append(k)
    for i, cols in enumerate(lay.link_columns):
        coeffs = tuple((col[j], 1.0) for j in cols if j in col)
        if coeffs:
            rows.append(solver.Constraint(coeffs, solver.LE, float(residual[i])))
            b_rows.append(len(d) + i)
    prog = solver.ConstraintProgram(
        variables=[lay.variables[j] for j in col], constraints=rows,
        objective=dict.fromkeys(range(len(col)), 1.0), sense=solver.MAXIMIZE)
    return _MaxFlow(solver.ParametricLP(prog), np.array(b_rows, dtype=np.intp),
                    np.array(list(col), dtype=np.intp))


def _checked_demands(inst, d, ndim):
    """d as a float array: one demand vector (ndim 1) or an N x n stack of them (2)."""
    d = np.asarray(d, dtype=float)
    if d.ndim != ndim:
        raise ValueError(f"demands must be {ndim}-dimensional, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("demands must contain only finite values")
    if d.shape[-1] != inst.n_demands:
        raise ValueError(f"expected {inst.n_demands} demand values, got {d.shape[-1]}")
    if (d < 0).any():
        raise ValueError("demands must be nonnegative")
    return d


def _pin(inst, D):
    """Demand pinning on each row of D: (flows, residual capacities, pinned).

    Every demand at or below the threshold goes, in demand order, onto its
    shortest path, clamped to what that path has left. The work runs on
    the transposes, one row per demand or link, so that each step is an
    operation on whole rows.
    """
    lay = inst.flow_layout
    flows = np.zeros((len(lay.variables), len(D)))
    residual = np.repeat(lay.capacities[:, None], len(D), axis=1)
    pinned = D.T <= inst.threshold
    for k in np.flatnonzero(pinned.any(axis=1)).tolist():
        hops = lay.shortest_links[k]
        room = residual[hops[0]]
        for i in hops[1:]:
            room = np.minimum(room, residual[i])
        # times 1.0 where pinned and 0.0 elsewhere: the rate, or no flow
        rate = np.minimum(D[:, k], room) * pinned[k]
        flows[lay.demand_columns[k][lay.shortest_index[k]]] = rate
        for i in hops:
            residual[i] -= rate
    return flows.T, residual.T, pinned.T


def _row_sets(mask):
    """Per row of a boolean stack, the frozenset of its true columns."""
    packed = np.packbits(mask, axis=1)
    raw, width, sets, out = packed.tobytes(), packed.shape[1], {}, []
    for i in range(len(mask)):
        code = raw[i * width:(i + 1) * width]
        if code not in sets:
            sets[code] = frozenset(np.flatnonzero(mask[i]).tolist())
        out.append(sets[code])
    return out


def _route(inst, D, pins):
    """Per-path flows for each row of D (checked), one N x columns array per pin.

    Each array has one more column, all zeros, for `_totals`. For each row
    in turn, and for each entry of `pins` in turn, route the row: pinning
    first if the entry is True (`run_dp`), as the max flow alone if it is
    False (`optimal_te`). The instance keeps one `solver.ParametricLP` for
    each of the MAX_PINNED_SETS sets of pinned demands used last; they are
    looked up and evicted in that same order, and each one solves its
    rows, in that order, with `solve_many`. So every row gets, bit for bit,
    the flows that routing it alone in that order would give. At a
    degenerate optimum the flows are the vertex of the first stored basis
    that passes (see `solver.parametric`), and so can depend on the rows
    before; the total cannot.
    """
    lay = inst.flow_layout
    flows = np.zeros((len(pins), len(D), len(lay.variables) + 1))
    rhs = np.empty((len(pins), len(D), D.shape[1] + len(lay.capacities)))
    rhs[:, :, :D.shape[1]] = D  # then each pin's residual capacities
    keys = []  # per pin, per row: the set of pinned demands, its LP's key
    for p, pin in enumerate(pins):
        if pin:
            flows[p, :, :-1], rhs[p, :, D.shape[1]:], pinned = _pin(inst, D)
            keys.append(_row_sets(pinned))
        else:
            rhs[p, :, D.shape[1]:] = lay.capacities
            keys.append([frozenset()] * len(D))

    lps, batches = inst._max_flow_lps, {}  # batches: id(max flow) -> (it, [(pin, row)])
    for i in range(len(D)):
        for p, pin_keys in enumerate(keys):
            key = pin_keys[i]
            mf = lps.get(key)
            if mf is None:
                mf = _max_flow_lp(inst, D[i], rhs[p, i, D.shape[1]:], key)
                if len(lps) >= MAX_PINNED_SETS:
                    lps.popitem(last=False)
                lps[key] = mf
            else:
                lps.move_to_end(key)
            batches.setdefault(id(mf), (mf, []))[1].append((p, i))
    for mf, requests in batches.values():
        p, i = np.array(requests, dtype=np.intp).T
        sols = mf.lp.solve_many(rhs[p[:, None], i[:, None], mf.rows])
        if any(status != "optimal" for status in sols.status):
            raise solver.SolverError(f"a TE max-flow LP came back {set(sols.status)}")
        x = sols.values
        flows[p[:, None], i[:, None], mf.columns] = np.where(x > 0.0, x, 0.0)
    return flows


def _totals(inst, flows):
    """Σ of each row of `_route`'s flows as TeAllocation.total adds it up.

    That is from 0, per demand in path order, then over the demands in
    order from 0; cumsum adds in order, and the layout's sum grid puts the
    zeros in from the flows' zero column.
    """
    padded = flows[:, inst.flow_layout.sum_grid]
    return np.cumsum(np.cumsum(padded, axis=2)[:, :, -1], axis=1)[:, -1]


def _allocation(inst, d, pin):
    """`run_dp` (pin) or `optimal_te` on one demand vector, as a TeAllocation."""
    d = _checked_demands(inst, d, 1)
    flows = _route(inst, d[None], (pin,))[0]
    x = flows[0].tolist()
    return TeAllocation(tuple(d.tolist()),
                        tuple(tuple(x[cols[0]:cols[0] + len(cols)])
                              for cols in inst.flow_layout.demand_columns),
                        float(_totals(inst, flows)[0]))


def run_dp(inst, d):
    """Demand pinning: pin small demands to their shortest paths, then max-flow."""
    return _allocation(inst, d, pin=True)


def optimal_te(inst, d):
    """Benchmark: path-based multicommodity max flow, no pinning."""
    return _allocation(inst, d, pin=False)


def dp_and_optimal_totals(inst, D):
    """Routed totals of `run_dp` and of `optimal_te` for each row of an N x n stack.

    Bit for bit what calling run_dp and then optimal_te on each row in turn
    would give, and with the same LP work.
    """
    D = _checked_demands(inst, D, 2)
    dp, opt = np.empty(len(D)), np.empty(len(D))
    for start in range(0, len(D), ROUTE_ROWS):
        rows = slice(start, start + ROUTE_ROWS)
        flows = _route(inst, D[rows], (True, False))
        dp[rows], opt[rows] = _totals(inst, flows[0]), _totals(inst, flows[1])
    return dp, opt
