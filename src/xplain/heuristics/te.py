"""Traffic engineering: demand pinning heuristic and the max-flow benchmark.

The pinning heuristic routes every demand at or below a threshold onto its
designated shortest path (clamped to residual capacity), then solves a
path-based max-flow over what remains. The benchmark solves the same
path-based max-flow without pinning anything. Both are one LP with a
varying right-hand side, [demands | link capacities], in which pinning
sets each pinned demand to 0 and each link to what it left: so an instance
keeps one `solver.ParametricLP`, whose stored optimal bases serve the
heuristic and the benchmark alike. `run_dp` and `optimal_te` take one
demand vector; `Scenario.evaluate` routes a whole stack both ways through
`_route`, with the flows the two would give one vector at a time.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .. import solver
from .._validation import check_scalar

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
    column_demand: np.ndarray  # per column, its demand
    link_columns: tuple     # per link, the columns crossing it, increasing
    shortest_links: tuple   # per demand, its shortest path's links, hop order
    shortest_index: tuple   # per demand, the shortest path's place in `paths`
    capacities: np.ndarray  # per link
    # per edge of `networks.te_network`, in its order, the columns whose
    # flows the edge carries, after and padded with a zero column (one past
    # the last): each link's crossing columns, each demand's own (what it
    # routes, for its unmet edge), and each path's column for its assign
    # edge and once per traverse edge
    edge_grid: np.ndarray
    unmet_edges: np.ndarray  # per demand, the row of its unmet edge
    sum_grid: np.ndarray  # a zero row, then edge_grid's unmet rows, 1 + most paths wide


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
        edges, unmet = list(crossing), []
        for dem, cols in zip(self.demands, demand_columns):
            unmet.append(len(edges))
            edges.append(cols)
            for j, path in zip(cols, dem.paths):
                edges += [[j]] * (1 + len(_path_links(path)))
        grid = np.full((len(edges), 1 + max(map(len, edges), default=0)),
                       len(variables), dtype=np.intp)
        for e, cols in enumerate(edges):
            grid[e, 1:1 + len(cols)] = cols
        width = 1 + max(map(len, demand_columns), default=0)
        sum_grid = np.vstack([np.full(width, len(variables)), grid[unmet, :width]])
        return FlowLayout(
            tuple(variables), tuple(demand_columns),
            np.repeat(np.arange(len(demand_columns)), list(map(len, demand_columns))),
            tuple(map(tuple, crossing)),
            tuple(tuple(index[hop] for hop in _path_links(dem.shortest))
                  for dem in self.demands),
            tuple(dem.paths.index(dem.shortest) for dem in self.demands),
            np.array([l.capacity for l in self.links], dtype=float),
            grid, np.array(unmet, dtype=np.intp), sum_grid)

    @cached_property
    def _max_flow(self):
        """The max-flow LP that `_route` solves, built on first use."""
        return _max_flow_lp(self)


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


class _MaxFlow(NamedTuple):
    lp: solver.ParametricLP
    links: np.ndarray  # the links with a row, in row order (after the demands)


def _max_flow_lp(inst):
    """The instance's one max-flow LP, over every path of every demand.

    One row per demand, then one per link that some path crosses; a
    column is the layout's column of the same number. Pinning and the
    benchmark both solve it: a pinned demand has 0 on its row, so its
    paths carry nothing, and each link row has what pinning left of the
    link. The program's own b, no demand on the full capacities, is only
    the template of `ParametricLP`'s cold solves.
    """
    lay = inst.flow_layout
    rows = [solver.Constraint(tuple((j, 1.0) for j in cols), solver.LE, 0.0)
            for cols in lay.demand_columns]
    links = [i for i, cols in enumerate(lay.link_columns) if cols]
    rows += [solver.Constraint(tuple((j, 1.0) for j in lay.link_columns[i]),
                               solver.LE, float(lay.capacities[i])) for i in links]
    prog = solver.ConstraintProgram(
        variables=list(lay.variables), constraints=rows,
        objective=dict.fromkeys(range(len(lay.variables)), 1.0), sense=solver.MAXIMIZE)
    return _MaxFlow(solver.ParametricLP(prog), np.array(links, dtype=np.intp))


def _checked_demands(inst, d, ndim):
    """d as a float array: one demand vector (ndim 1) or an N x n stack of them (2)."""
    d = np.asarray(d, dtype=float)
    if d.ndim != ndim:
        raise ValueError(f"demands must be {ndim}-dimensional, got shape {d.shape}")
    if not np.isfinite(d).all():
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
    for k in np.logical_or.reduce(pinned, axis=1).nonzero()[0].tolist():
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


def _route(inst, D, pins):
    """Per-path flows for each row of D (checked), one N x columns array per pin.

    Each array has one more column, all zeros, for `_totals`. For each row
    in turn, and for each entry of `pins` in turn, route the row: pinning
    first if the entry is True (`run_dp`), as the max flow alone if it is
    False (`optimal_te`). Every request goes, in that order, through one
    `solve_many` of the instance's one max-flow LP; a pinned demand asks
    it for 0 and keeps the flows `_pin` gave it, whatever rounding the
    LP's x holds there. So every row gets, bit for bit, the flows that
    routing it alone in that order would give. At a degenerate optimum the
    flows are the vertex of the first stored basis that passes (see
    `solver.parametric`), and so can depend on the rows before; the total
    cannot.
    """
    lay = inst.flow_layout
    n, mf = D.shape[1], inst._max_flow
    rhs = np.empty((len(D), len(pins), n + len(mf.links)))
    rhs[:, :, :n] = D[:, None]  # then the row links' capacities, as each pin left them
    pinned = {}  # pin -> its pinned flows and, per column, whether its demand is pinned
    for p, pin in enumerate(pins):
        if pin:
            flows, residual, by_demand = _pin(inst, D)
            rhs[:, p, n:] = residual[:, mf.links]
            rhs[:, p, :n][by_demand] = 0.0
            pinned[p] = flows, by_demand[:, lay.column_demand]
        else:
            rhs[:, p, n:] = lay.capacities[mf.links]
    sols = mf.lp.solve_many(rhs.reshape(-1, rhs.shape[2]))
    if any(status != "optimal" for status in sols.status):
        raise solver.SolverError(f"a TE max-flow LP came back {set(sols.status)}")
    x = sols.values.reshape(len(D), len(pins), -1).transpose(1, 0, 2)
    out = np.zeros((len(pins), len(D), len(lay.variables) + 1))
    np.copyto(out[:, :, :-1], x, where=x > 0.0)
    for p, (flows, by_column) in pinned.items():
        np.copyto(out[p, :, :-1], flows, where=by_column)
    return out


def _totals(inst, flows):
    """Σ of each row of `_route`'s flows (the last axis) as TeAllocation.total
    adds it up.

    That is from 0, per demand in path order, then over the demands in
    order from 0; cumsum adds in order, and the layout's sum grid puts the
    zeros in from the flows' zero column.
    """
    padded = flows[..., inst.flow_layout.sum_grid]
    return np.cumsum(np.cumsum(padded, axis=-1)[..., -1], axis=-1)[..., -1]


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
