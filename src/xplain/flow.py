"""Network-flow DSL: behavior-typed nodes, capacity/fixed-rate edges.

A FlowNetwork is a directed graph whose nodes impose constraints on the flows
of their incident edges:

- Split: flow conservation. Capacities and fixed rates live on the edges.
- Pick: conservation plus "at most one outgoing edge carries flow".
- Multiply: single in, single out, f_out = factor * f_in.
- AllEqual: every incident flow takes the same value (no conservation).
- Copy: each outgoing flow equals the total incoming flow.
- Source: an input to the problem; behaves like its inner Split or Pick with
  the externally supplied input value as its total outflow. Sources without a
  supplied value are free supplies.
- Sink: absorbs flow; one sink may be designated as the objective, in which
  case its total inflow is maximized or minimized per its sense.

Evaluation compiles the network to a constraint program and solves it, so a
network is simultaneously a model and an executable optimization.
"""

import json
from dataclasses import dataclass, field

from ._validation import check_scalar

EPS_FLOW = 1e-9  # an edge "sends flow" when its rate exceeds this

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


class FlowError(Exception):
    pass


class Infeasible(FlowError):
    """No flow assignment satisfies the network's constraints."""


class Unbounded(FlowError):
    """The objective can be improved without limit."""


@dataclass(frozen=True)
class Split:
    pass


@dataclass(frozen=True)
class Pick:
    pass


@dataclass(frozen=True)
class Multiply:
    factor: float

    def __post_init__(self):
        check_scalar(self.factor, "multiply factor", low=0.0, inclusive_low=False)


@dataclass(frozen=True)
class AllEqual:
    pass


@dataclass(frozen=True)
class Copy:
    pass


@dataclass(frozen=True)
class Source:
    inner: object = field(default_factory=Split)

    def __post_init__(self):
        if not isinstance(self.inner, (Split, Pick)):
            raise TypeError("source inner behavior must be Split or Pick")


@dataclass(frozen=True)
class Sink:
    sense: str = MAXIMIZE

    def __post_init__(self):
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"sink sense must be maximize or minimize, got {self.sense!r}")


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    capacity: float | None = None
    fixed_rate: float | None = None
    metadata: tuple = ()

    def __post_init__(self):
        if self.capacity is not None:
            check_scalar(self.capacity, f"edge {self.id!r} capacity", low=0.0)
        if self.fixed_rate is not None:
            check_scalar(self.fixed_rate, f"edge {self.id!r} fixed_rate", low=0.0)


def _as_meta(mapping):
    if not mapping:
        return ()
    if isinstance(mapping, tuple):
        return mapping
    return tuple(sorted((str(k), str(v)) for k, v in mapping.items()))


def edge(id, tail, head, capacity=None, fixed_rate=None, metadata=None):
    """Edge constructor accepting a plain dict for metadata."""
    return Edge(id, tail, head, capacity, fixed_rate, _as_meta(metadata))


@dataclass
class FlowNetwork:
    nodes: dict = field(default_factory=dict)       # id -> behavior
    edges: list = field(default_factory=list)       # list[Edge]
    node_metadata: dict = field(default_factory=dict)

    # networks are treated as immutable once built; helpers below recompute
    # adjacency on demand because desk-scale graphs are tiny

    def out_edges(self, node_id):
        return [e for e in self.edges if e.tail == node_id]

    def in_edges(self, node_id):
        return [e for e in self.edges if e.head == node_id]

    def add_node(self, node_id, behavior, metadata=None):
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = behavior
        if metadata:
            self.node_metadata[node_id] = {str(k): str(v) for k, v in metadata.items()}
        return node_id

    def add_edge(self, id, tail, head, capacity=None, fixed_rate=None, metadata=None):
        self.edges.append(edge(id, tail, head, capacity, fixed_rate, metadata))
        return id


def validate(net):
    """Structural check; returns a list of human-readable violations."""
    issues = []
    seen = set()
    for e in net.edges:
        if e.id in seen:
            issues.append(f"edge {e.id!r}: duplicate edge id")
        seen.add(e.id)
        if e.tail == e.head:
            issues.append(f"edge {e.id!r}: self-loop {e.tail!r}")
        for endpoint in (e.tail, e.head):
            if endpoint not in net.nodes:
                issues.append(f"edge {e.id!r}: unknown node {endpoint!r}")

    for nid, beh in net.nodes.items():
        outs = net.out_edges(nid)
        ins = net.in_edges(nid)
        if isinstance(beh, Multiply):
            if len(ins) != 1 or len(outs) != 1:
                issues.append(
                    f"node {nid!r}: multiply arity must be 1 in / 1 out, "
                    f"got {len(ins)} in / {len(outs)} out"
                )
        elif isinstance(beh, Sink):
            if outs:
                issues.append(f"node {nid!r}: sink has outgoing edges")
        elif isinstance(beh, Source):
            for e in ins:
                if e.fixed_rate is None:
                    issues.append(
                        f"node {nid!r}: source has non-constant incoming edge {e.id!r}"
                    )
            if isinstance(beh.inner, Pick) and not outs:
                issues.append(f"node {nid!r}: pick requires at least one outgoing edge")
        elif isinstance(beh, Pick):
            if not outs:
                issues.append(f"node {nid!r}: pick requires at least one outgoing edge")
        elif isinstance(beh, (Split, AllEqual, Copy)):
            pass
        else:
            issues.append(f"node {nid!r}: unknown behavior {type(beh).__name__}")
    return issues


def evaluate(net, inputs, objective_sink):
    """Optimize the designated sink's inflow under the given source inputs.

    Returns (objective value, FlowAssignment). Sources absent from `inputs`
    are free supplies. Raises Infeasible / Unbounded.
    """
    problems = validate(net)
    if problems:
        raise FlowError("invalid network: " + "; ".join(problems))
    if objective_sink not in net.nodes or not isinstance(net.nodes[objective_sink], Sink):
        raise FlowError(f"objective sink {objective_sink!r} is not a Sink node")
    for src in inputs:
        if src not in net.nodes or not isinstance(net.nodes[src], Source):
            raise FlowError(f"input target {src!r} is not a Source node")

    from .bridge.compile import compile_network
    from .solver.branch_bound import solve_mip

    sol = solve_mip(compile_network(net, objective_sink, inputs=inputs))
    if sol.status == "infeasible":
        raise Infeasible("no feasible flow assignment")
    if sol.status == "unbounded":
        raise Unbounded("objective unbounded")
    assignment = {e.id: float(sol.values[i]) for i, e in enumerate(net.edges)}
    return float(sol.objective), assignment


# --- JSON serialization ----------------------------------------------------

_BEHAVIOR_NAMES = {
    Split: "split", Pick: "pick", Multiply: "multiply", AllEqual: "all_equal",
    Copy: "copy", Source: "source", Sink: "sink",
}


def _behavior_to_dict(beh):
    d = {"behavior": _BEHAVIOR_NAMES[type(beh)]}
    if isinstance(beh, Multiply):
        d["factor"] = beh.factor
    elif isinstance(beh, Source):
        inner = _behavior_to_dict(beh.inner)
        inner.pop("behavior")
        d["inner"] = _BEHAVIOR_NAMES[type(beh.inner)]
        d.update(inner)
    elif isinstance(beh, Sink):
        d["sense"] = beh.sense
    return d


def _behavior_from_dict(d):
    kind = d["behavior"]
    stale = sorted({"outgoing_capacities", "fixed_incoming"} & set(d))
    if stale:
        # refused, not ignored: dropping them would loosen the network
        raise ValueError(f"node {d.get('id')!r}: split keys {stale} are not "
                         "supported; set capacity and fixed_rate on the edges")
    if kind == "split":
        return Split()
    if kind == "pick":
        return Pick()
    if kind == "multiply":
        return Multiply(float(d["factor"]))
    if kind == "all_equal":
        return AllEqual()
    if kind == "copy":
        return Copy()
    if kind == "source":
        return Source(Pick() if d.get("inner", "split") == "pick" else Split())
    if kind == "sink":
        return Sink(d.get("sense", MAXIMIZE))
    raise ValueError(f"unknown behavior {kind!r}")


def network_to_dict(net):
    nodes = []
    for nid, beh in net.nodes.items():
        entry = {"id": nid}
        entry.update(_behavior_to_dict(beh))
        meta = net.node_metadata.get(nid)
        if meta:
            entry["metadata"] = dict(meta)
        nodes.append(entry)
    edges = []
    for e in net.edges:
        entry = {"id": e.id, "from": e.tail, "to": e.head}
        if e.capacity is not None:
            entry["capacity"] = e.capacity
        if e.fixed_rate is not None:
            entry["fixed_rate"] = e.fixed_rate
        if e.metadata:
            entry["metadata"] = dict(e.metadata)
        edges.append(entry)
    return {"nodes": nodes, "edges": edges}


def network_from_dict(doc):
    net = FlowNetwork()
    for entry in doc["nodes"]:
        beh = _behavior_from_dict(entry)
        net.add_node(entry["id"], beh, entry.get("metadata"))
    for entry in doc["edges"]:
        net.add_edge(
            entry["id"], entry["from"], entry["to"],
            capacity=entry.get("capacity"),
            fixed_rate=entry.get("fixed_rate"),
            metadata=entry.get("metadata"),
        )
    return net


def to_json(net, indent=2):
    return json.dumps(network_to_dict(net), indent=indent, sort_keys=False)


def from_json(text):
    return network_from_dict(json.loads(text))
