"""FlowNetwork -> ConstraintProgram compiler.

One continuous nonnegative variable per edge. Behaviors compile to:
Split/Pick conservation equalities (Pick adds an exactly-one group over its
outgoing edges), Multiply proportionality, AllEqual pairwise chains, Copy
per-outgoing equalities. Capacities become variable upper bounds; fixed rates
become equalities. The objective is the signed total inflow of the chosen
sink.
"""

from ..flow import (
    AllEqual,
    Copy,
    Multiply,
    Pick,
    Sink,
    Source,
    Split,
    validate,
)
from ..solver import EQ, MAXIMIZE, MINIMIZE, ConstraintProgram


class UnsupportedBehavior(Exception):
    pass


def compile_network(net, objective_sink=None, inputs=None):
    """Compile `net` to a ConstraintProgram.

    `inputs` maps source node ids to their supplied input values; sources not
    listed compile as free supplies (their outflow is decided by the
    optimizer). `objective_sink=None` yields a feasibility program with a zero
    objective.
    """
    problems = validate(net)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))
    inputs = dict(inputs or {})

    prog = ConstraintProgram()
    idx = {}
    for e in net.edges:
        idx[e.id] = prog.add_variable(e.id, upper=e.capacity)

    for e in net.edges:
        if e.fixed_rate is not None:
            prog.add_constraint({idx[e.id]: 1.0}, EQ, e.fixed_rate)

    for nid, beh in net.nodes.items():
        ins = [idx[e.id] for e in net.in_edges(nid)]
        outs = [idx[e.id] for e in net.out_edges(nid)]
        is_source = isinstance(beh, Source)
        if is_source:
            beh = beh.inner

        if isinstance(beh, (Split, Pick)):
            if is_source:
                if nid in inputs:
                    # total outflow = supplied value + constant feeds
                    coeffs = {j: 1.0 for j in outs}
                    for j in ins:
                        coeffs[j] = coeffs.get(j, 0.0) - 1.0
                    prog.add_constraint(coeffs, EQ, float(inputs[nid]))
            else:
                coeffs = {j: 1.0 for j in ins}
                for j in outs:
                    coeffs[j] = coeffs.get(j, 0.0) - 1.0
                prog.add_constraint(coeffs, EQ, 0.0)
            if isinstance(beh, Pick) and outs:
                prog.add_group(outs)
        elif isinstance(beh, Multiply):
            prog.add_constraint({outs[0]: 1.0, ins[0]: -beh.factor}, EQ, 0.0)
        elif isinstance(beh, AllEqual):
            incident = ins + outs
            for a, b in zip(incident, incident[1:]):
                prog.add_constraint({a: 1.0, b: -1.0}, EQ, 0.0)
        elif isinstance(beh, Copy):
            for j in outs:
                coeffs = {i: 1.0 for i in ins}
                coeffs[j] = coeffs.get(j, 0.0) - 1.0
                prog.add_constraint(coeffs, EQ, 0.0)
        elif isinstance(beh, Sink):
            pass
        else:
            raise UnsupportedBehavior(f"node {nid!r}: {type(beh).__name__}")

    if objective_sink is not None:
        sink = net.nodes[objective_sink]
        if not isinstance(sink, Sink):
            raise ValueError(f"{objective_sink!r} is not a Sink node")
        sense = MAXIMIZE if sink.sense == "maximize" else MINIMIZE
        prog.set_objective(
            {idx[e.id]: 1.0 for e in net.in_edges(objective_sink)}, sense
        )
    return prog
