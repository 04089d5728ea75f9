"""Traffic engineering: demand pinning heuristic and the max-flow benchmark.

The pinning heuristic routes every demand at or below a threshold onto its
designated shortest path (clamped to residual capacity), then solves a
path-based max-flow over what remains. The benchmark solves the same
path-based max-flow without pinning anything.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import solver
from .._validation import check_array_1d, check_scalar


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


@dataclass(frozen=True)
class TeInstance:
    nodes: tuple
    links: tuple      # tuple[Link]
    demands: tuple    # tuple[Demand]
    threshold: float

    def __post_init__(self):
        check_scalar(self.threshold, "pinning threshold", low=0.0)
        by_pair = {(l.src, l.dst) for l in self.links}
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

    def capacities(self):
        return {l.key: l.capacity for l in self.links}

    @cached_property
    def flow_layout(self):
        """The path-based max-flow's columns, laid out once per instance.

        Column j is the flow of demand k on its path p, numbered in (k, p)
        order. Returns (variables, demand_columns, link_columns): the
        column Variables named f:k:p, each demand's columns, and each
        link's crossing columns in increasing order.
        """
        variables, demand_columns = [], []
        crossing = {(l.src, l.dst): [] for l in self.links}
        for k, dem in enumerate(self.demands):
            cols = []
            for p, path in enumerate(dem.paths):
                j = len(variables)
                variables.append(solver.Variable(f"f:{k}:{p}"))
                cols.append(j)
                for hop in dict.fromkeys(_path_links(path)):
                    crossing[hop].append(j)
            demand_columns.append(tuple(cols))
        link_columns = tuple(tuple(crossing[(l.src, l.dst)]) for l in self.links)
        return tuple(variables), tuple(demand_columns), link_columns


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


def _max_flow(inst, d, residual, skip):
    """Path-based max flow over residual capacities, skipping pinned demands.

    Builds the program's rows straight from the instance's flow layout: one
    row per unpinned demand, then one per link that an unpinned path
    crosses. Returns per-demand per-path flows (zeros for skipped demands).
    """
    variables, demand_columns, link_columns = inst.flow_layout
    col, rows = {}, []  # col: layout column -> program column
    for k, cols in enumerate(demand_columns):
        if k not in skip:
            for j in cols:
                col[j] = len(col)
            rows.append(solver.Constraint(tuple((col[j], 1.0) for j in cols),
                                          solver.LE, float(d[k])))
    for link, cols in zip(inst.links, link_columns):
        coeffs = tuple((col[j], 1.0) for j in cols if j in col)
        if coeffs:
            rows.append(solver.Constraint(coeffs, solver.LE,
                                          float(residual[link.key])))
    prog = solver.ConstraintProgram(
        variables=[variables[j] for j in col], constraints=rows,
        objective=dict.fromkeys(range(len(col)), 1.0), sense=solver.MAXIMIZE)
    sol = solver.solve_lp(prog)

    flows = [[0.0] * len(dem.paths) for dem in inst.demands]
    for k, cols in enumerate(demand_columns):
        if k not in skip:
            for p, j in enumerate(cols):
                flows[k][p] = max(0.0, float(sol.values[col[j]]))
    return flows


def run_dp(inst, d):
    """Demand pinning: pin small demands to their shortest paths, then max-flow."""
    d = check_array_1d(np.asarray(d, dtype=float), "demands")
    if len(d) != inst.n_demands:
        raise ValueError(f"expected {inst.n_demands} demand values, got {len(d)}")
    if np.any(d < 0):
        raise ValueError("demands must be nonnegative")

    residual = inst.capacities()
    flows = [[0.0] * len(dem.paths) for dem in inst.demands]
    pinned = set()
    for k, dem in enumerate(inst.demands):
        if d[k] > inst.threshold:
            continue
        pinned.add(k)
        hops = _path_links(dem.shortest)
        room = min(residual[f"{u}->{v}"] for u, v in hops)
        rate = min(float(d[k]), room)
        flows[k][dem.paths.index(dem.shortest)] = rate
        for u, v in hops:
            residual[f"{u}->{v}"] -= rate

    rest = _max_flow(inst, d, residual, pinned)
    for k in range(inst.n_demands):
        if k not in pinned:
            flows[k] = rest[k]
    flows = tuple(tuple(row) for row in flows)
    total = float(sum(sum(row) for row in flows))
    return TeAllocation(tuple(float(v) for v in d), flows, total)


def optimal_te(inst, d):
    """Benchmark: path-based multicommodity max flow, no pinning."""
    d = check_array_1d(np.asarray(d, dtype=float), "demands")
    if len(d) != inst.n_demands:
        raise ValueError(f"expected {inst.n_demands} demand values, got {len(d)}")
    if np.any(d < 0):
        raise ValueError("demands must be nonnegative")
    flows = _max_flow(inst, d, inst.capacities(), skip=set())
    flows = tuple(tuple(row) for row in flows)
    total = float(sum(sum(row) for row in flows))
    return TeAllocation(tuple(float(v) for v in d), flows, total)
