"""Traffic engineering: demand pinning heuristic and the max-flow benchmark.

The pinning heuristic routes every demand at or below a threshold onto its
designated shortest path (clamped to residual capacity), then solves a
path-based max-flow over what remains. The benchmark solves the same
path-based max-flow without pinning anything.
"""

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .. import solver
from .._validation import check_array_1d, check_scalar

# max-flow LPs an instance keeps, one per set of skipped demands; fig1a_dp
# uses 140 sets in a seed-7 `analyze`, an instance with n demands up to 2^n
MAX_PINNED_SETS = 64


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
        return FlowLayout(
            tuple(variables), tuple(demand_columns), tuple(map(tuple, crossing)),
            tuple(tuple(index[hop] for hop in _path_links(dem.shortest))
                  for dem in self.demands),
            tuple(dem.paths.index(dem.shortest) for dem in self.demands),
            np.array([l.capacity for l in self.links], dtype=float))

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
    demand_rows: np.ndarray  # the demands whose rows b starts with
    link_rows: np.ndarray    # then the links whose rows follow
    columns: np.ndarray      # the layout column of each program column


def _max_flow_lp(inst, d, residual, skip):
    """The max-flow LP for one set of skipped demands, from its first b.

    One row per unskipped demand, then one per link that an unskipped path
    crosses, straight from the instance's flow layout.
    """
    lay = inst.flow_layout
    col, rows, demand_rows, link_rows = {}, [], [], []  # col: layout -> program
    for k, cols in enumerate(lay.demand_columns):
        if k not in skip:
            for j in cols:
                col[j] = len(col)
            rows.append(solver.Constraint(tuple((col[j], 1.0) for j in cols),
                                          solver.LE, float(d[k])))
            demand_rows.append(k)
    for i, cols in enumerate(lay.link_columns):
        coeffs = tuple((col[j], 1.0) for j in cols if j in col)
        if coeffs:
            rows.append(solver.Constraint(coeffs, solver.LE, float(residual[i])))
            link_rows.append(i)
    prog = solver.ConstraintProgram(
        variables=[lay.variables[j] for j in col], constraints=rows,
        objective=dict.fromkeys(range(len(col)), 1.0), sense=solver.MAXIMIZE)
    demand_rows, link_rows, columns = (np.array(idx, dtype=np.intp)
                                       for idx in (demand_rows, link_rows, list(col)))
    return _MaxFlow(solver.ParametricLP(prog), demand_rows, link_rows, columns)


def _max_flow(inst, d, residual, skip):
    """Path-based max flow over residual capacities, skipping pinned demands.

    `residual` holds one capacity per link of `inst`. Each set of skipped
    demands has one `solver.ParametricLP`; the instance keeps those of the
    MAX_PINNED_SETS sets used last, so an evaluation only assembles b and
    reuses a stored optimal basis when one fits. At a degenerate optimum
    the flows are the vertex of the first stored basis that passes (see
    `solver.parametric`), and so can depend on the evaluations before; the
    total cannot. Returns per-demand per-path flows (zeros for skipped
    demands).
    """
    lps, key = inst._max_flow_lps, frozenset(skip)
    mf = lps.pop(key, None)
    if mf is None:
        mf = _max_flow_lp(inst, d, residual, key)
        if len(lps) >= MAX_PINNED_SETS:
            lps.popitem(last=False)
    lps[key] = mf
    b = np.concatenate([d[mf.demand_rows],
                        np.asarray(residual, dtype=float)[mf.link_rows]])
    sol = mf.lp.solve(b)

    lay = inst.flow_layout
    x = np.zeros(len(lay.variables))
    x[mf.columns] = sol.values
    x = np.where(x > 0.0, x, 0.0).tolist()
    return [x[cols[0]:cols[0] + len(cols)] for cols in lay.demand_columns]


def _checked_demands(inst, d):
    d = check_array_1d(d, "demands")
    if len(d) != inst.n_demands:
        raise ValueError(f"expected {inst.n_demands} demand values, got {len(d)}")
    if (d < 0).any():
        raise ValueError("demands must be nonnegative")
    return d


def _allocation(d, flows):
    flows = tuple(tuple(row) for row in flows)
    total = float(sum(sum(row) for row in flows))
    return TeAllocation(tuple(d.tolist()), flows, total)


def run_dp(inst, d):
    """Demand pinning: pin small demands to their shortest paths, then max-flow."""
    d = _checked_demands(inst, d)
    lay = inst.flow_layout
    residual = lay.capacities.tolist()
    flows = [[0.0] * len(dem.paths) for dem in inst.demands]
    pinned = []
    for k, rate in enumerate(d.tolist()):
        if rate > inst.threshold:
            continue
        pinned.append(k)
        hops = lay.shortest_links[k]
        rate = min(rate, min(residual[i] for i in hops))
        flows[k][lay.shortest_index[k]] = rate
        for i in hops:
            residual[i] -= rate

    rest = _max_flow(inst, d, residual, pinned)
    for k in range(inst.n_demands):
        if k not in pinned:
            flows[k] = rest[k]
    return _allocation(d, flows)


def optimal_te(inst, d):
    """Benchmark: path-based multicommodity max flow, no pinning."""
    d = _checked_demands(inst, d)
    return _allocation(d, _max_flow(inst, d, inst.flow_layout.capacities, skip=()))
