"""Flow-network views of the built-in problem families.

The TE view (demand sources over path copies over capacitated link splits)
and the VBP view (ball picks over capacitated bin splits) share their edge
ids between heuristic and benchmark so edge-level comparisons line up.
"""

import sys

import numpy as np

from ..flow import Copy, FlowNetwork, Pick, Sink, Source, Split
from ..flow import MAXIMIZE, MINIMIZE


def _instance_of(obj, kind, cls):
    """isinstance(obj, heuristics.<kind>.<cls>), importing nothing: an object
    of a class exists only once its module is loaded, so a command that
    runs one kind loads no code of the other."""
    module = sys.modules.get(f"{__package__}.{kind}")
    return module is not None and isinstance(obj, getattr(module, cls))


def _path_id(path):
    return "-".join(path)


def demand_node(dem):
    return f"demand:{dem.src}->{dem.dst}"


def link_edge_id(link):
    return f"met:{link.src}->{link.dst}"


def te_network(inst):
    """Its edges come in the order of the instance's `FlowLayout.edge_grid`."""
    from .te import _path_links

    net = FlowNetwork()
    net.add_node("unmet", Sink(sense=MINIMIZE), metadata={"role": "unmet"})
    net.add_node("met", Sink(sense=MAXIMIZE), metadata={"role": "met"})
    for link in inst.links:
        nid = f"link:{link.src}->{link.dst}"
        net.add_node(nid, Split(), metadata={"role": "link"})
        net.add_edge(link_edge_id(link), nid, "met", capacity=link.capacity,
                     metadata={"role": "met", "link": link.key})
    for k, dem in enumerate(inst.demands):
        dn = net.add_node(demand_node(dem), Source(Split()),
                          metadata={"role": "demand", "index": str(k)})
        net.add_edge(f"unmet:{dem.key}", dn, "unmet",
                     metadata={"role": "unmet", "demand": dem.key})
        for path in dem.paths:
            pid = f"path:{_path_id(path)}"
            if pid not in net.nodes:
                net.add_node(pid, Copy(), metadata={"role": "path"})
            net.add_edge(f"assign:{dem.key}:{_path_id(path)}", dn, pid,
                         metadata={"role": "assign", "demand": dem.key})
            for u, v in _path_links(path):
                net.add_edge(f"traverse:{_path_id(path)}:{u}->{v}",
                             pid, f"link:{u}->{v}",
                             metadata={"role": "traverse", "link": f"{u}->{v}"})
    return net


def ball_node(i):
    return f"ball:{i}"


def vbp_network(inst, n_bins=None):
    """One `occupied` edge per bin, then one `place` edge per (ball, bin)."""
    if inst.unbounded and n_bins is None:
        raise ValueError("unbounded bin pool: pass n_bins to fix the network size")
    if inst.dim != 1:
        raise ValueError("network view supports single-dimension instances only")
    bins = inst.bin_list(n_bins if inst.unbounded else len(inst.bins))
    net = FlowNetwork()
    net.add_node("occupancy", Sink(), metadata={"role": "occupancy"})
    for j, cap in enumerate(bins):
        net.add_node(f"bin:{j}", Split(), metadata={"role": "bin"})
        net.add_edge(f"occupied:{j}", f"bin:{j}", "occupancy", capacity=cap[0],
                     metadata={"role": "occupied", "bin": str(j)})
    for i in range(inst.n_balls):
        net.add_node(ball_node(i), Source(Pick()),
                     metadata={"role": "ball", "index": str(i)})
        for j in range(len(bins)):
            net.add_edge(f"place:{i}:{j}", ball_node(i), f"bin:{j}",
                         metadata={"role": "place", "ball": str(i), "bin": str(j)})
    return net


def project_edges(net, inst, X, decisions):
    """Each row's decisions as flows on `net`'s edges, an N x E array.

    `net` is `te_network(inst)` or a `vbp_network` of the balls of X, and
    `decisions` one side of `Scenario.evaluate(X)`. A TE edge carries, from
    0 and in path order, the flow of each path it belongs to; an unmet edge
    carries max(0, demand - routed). A VBP ball puts its size on its place
    edge and, in ball order, on its bin's occupied edge.
    """
    X = np.asarray(X, dtype=float)
    if _instance_of(inst, "te", "TeInstance"):
        lay = inst.flow_layout
        if len(lay.edge_grid) != len(net.edges):
            raise ValueError("the network is not the instance's te_network")
        # column by column as cumsum adds, N x E at a time whatever the width
        flows = decisions[:, lay.edge_grid[:, 0]]
        for w in range(1, lay.edge_grid.shape[1]):
            flows += decisions[:, lay.edge_grid[:, w]]
        short = X - flows[:, lay.unmet_edges]
        flows[:, lay.unmet_edges] = np.where(short > 0.0, short, 0.0)
        return flows
    n, n_bins = X.shape[1], len(net.edges) // (X.shape[1] + 1)
    place = np.where(decisions[:, :, None] == np.arange(n_bins), X[:, :, None], 0.0)
    occupied = np.zeros((len(X), n_bins))
    for i in range(n):
        occupied += place[:, i]
    return np.hstack([occupied, place.reshape(len(X), n * n_bins)])


def project_allocation(alloc, net, inst):
    """One allocation's decisions as an edge id -> flow mapping on `net`.

    The one-row case of `project_edges`.
    """
    if _instance_of(alloc, "te", "TeAllocation"):
        X = [alloc.demands]
        decisions = np.array([[f for row in alloc.flows for f in row] + [0.0]])
    elif _instance_of(alloc, "vbp", "VbpAllocation"):
        X = [[s[0] for s in inst.sizes]]
        decisions = np.array([alloc.assignment], dtype=np.intp)
    else:
        raise TypeError(f"cannot project {type(alloc).__name__}")
    row = project_edges(net, inst, X, decisions)[0]
    return dict(zip((e.id for e in net.edges), row.tolist()))
