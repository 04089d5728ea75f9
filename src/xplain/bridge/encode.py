"""Encoder from mixed-integer linear programs onto flow networks.

Any MILP  opt { c_x.x + c_y.y : A_x x + A_y y (<=,==) b, x >= 0, y binary }
maps to a flow network whose maximal objective-sink inflow equals the MILP
optimum (shifted; see below). Construction, per inequality row i:

    sum_j a+_ij z_j + b-_i + f_i  =  sum_j a-_ij z_j + b+_i

realized as one Split node whose inflows are the positive-coefficient terms
(via Multiply nodes with factor a+_ij), a constant feed b-_i, and a slack
edge f_i, and whose outflows are the negative-coefficient terms (via
Multiply nodes with factor 1/a-_ij), plus a constant b+_i drain. One
AllEqual node per variable ties the variable's feed edge to every occurrence.
Binary variables become Pick nodes with a constant unit inflow and two
outgoing edges (the designated y edge and its complement).

The objective is introduced as an extra variable p with equality rows
p = c.z + shift and an edge from p's AllEqual node into the objective sink.
Flows are nonnegative, so the encoding restricts the feasible set to
{c.z + shift >= 0}; this is value-preserving for maximization whenever the
optimum is at least -shift. Pass `objective_shift` accordingly for problems
with negative optima (`needed_shift` gives the smallest that works once the
optimum is known; `encode-milp` uses it when the given shift is too small).
"""

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_array_1d, check_matrix, check_scalar
from ..flow import (
    AllEqual,
    FlowNetwork,
    Multiply,
    Pick,
    Sink,
    Source,
    Split,
)
from ..solver import EQ, LE


@dataclass
class Milp:
    """Dense MILP: opt c_x.x + c_y.y s.t. A_x x + A_y y (<=,==) b, x >= 0, y in {0,1}."""

    c_x: np.ndarray
    c_y: np.ndarray
    A_x: np.ndarray
    A_y: np.ndarray
    b: np.ndarray
    row_sense: list
    sense: str = "max"

    def __post_init__(self):
        self.c_x = check_array_1d(self.c_x, "c_x") if len(np.atleast_1d(self.c_x)) else np.zeros(0)
        self.c_y = check_array_1d(self.c_y, "c_y") if len(np.atleast_1d(self.c_y)) else np.zeros(0)
        nx, ny = len(self.c_x), len(self.c_y)
        m = len(np.atleast_1d(self.b))
        self.b = check_array_1d(self.b, "b") if m else np.zeros(0)
        self.A_x = check_matrix(np.asarray(self.A_x, dtype=float).reshape(m, nx), "A_x")
        self.A_y = check_matrix(np.asarray(self.A_y, dtype=float).reshape(m, ny), "A_y")
        self.row_sense = list(self.row_sense)
        if len(self.row_sense) != m:
            raise ValueError("row_sense length mismatch")
        for s in self.row_sense:
            if s not in (LE, EQ):
                raise ValueError(f"unknown row sense {s!r}")
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {self.sense!r}")

    @property
    def n_x(self):
        return len(self.c_x)

    @property
    def n_y(self):
        return len(self.c_y)

    def expand_equalities(self):
        """Equality rows become two <= rows; returns an all-<= Milp."""
        rows_x, rows_y, rhs = [], [], []
        for i, s in enumerate(self.row_sense):
            rows_x.append(self.A_x[i])
            rows_y.append(self.A_y[i])
            rhs.append(self.b[i])
            if s == EQ:
                rows_x.append(-self.A_x[i])
                rows_y.append(-self.A_y[i])
                rhs.append(-self.b[i])
        m = len(rhs)
        return Milp(
            self.c_x, self.c_y,
            np.array(rows_x).reshape(m, self.n_x),
            np.array(rows_y).reshape(m, self.n_y),
            np.array(rhs), [LE] * m, self.sense,
        )


@dataclass
class EncodingTrace:
    """What maps the encoded network's optimum back onto the MILP."""

    objective_shift: float
    sense: str
    var_edges: dict = field(default_factory=dict)   # "x0"/"y1"/"p" -> feed edge id

    def original_objective(self, sink_value):
        """Map the objective sink's optimal inflow back to the MILP optimum."""
        inner = sink_value - self.objective_shift
        return inner if self.sense == "max" else -inner

    def extract_solution(self, assignment):
        """Pull (x, y) values for the original MILP out of a FlowAssignment."""
        x = {}
        y = {}
        for key, eid in self.var_edges.items():
            if key == "p":
                continue
            (x if key.startswith("x") else y)[key] = float(assignment[eid])
        return x, y


def _decompose(M):
    pos = np.where(M > 0, M, 0.0)
    neg = np.where(M < 0, -M, 0.0)
    return pos, neg


def needed_shift(milp, optimum):
    """The smallest objective_shift that encodes `milp`, whose optimum is
    `optimum`: the encoding keeps c.z + shift >= 0 with c.z as a maximum."""
    best = optimum if milp.sense == "max" else -optimum
    return max(0.0, -best)


def encode_milp(milp, objective_shift=0.0):
    """Encode `milp` as (FlowNetwork, EncodingTrace).

    The network's objective sink, maximized, attains
    (optimum of milp normalized to max) + objective_shift.
    Integer non-binary variables are not representable here.
    """
    objective_shift = check_scalar(objective_shift, "objective_shift", low=0.0)
    m0 = milp.expand_equalities()
    flip = m0.sense == "min"
    c_x = -m0.c_x if flip else m0.c_x
    c_y = -m0.c_y if flip else m0.c_y

    # objective becomes variable p (last x column) with p = c.z + shift:
    #   c.z - p <= -shift   and   p - c.z <= shift
    nx, ny = m0.n_x, m0.n_y
    A_x = np.hstack([m0.A_x, np.zeros((len(m0.b), 1))])
    rows_x = np.vstack([
        A_x,
        np.concatenate([c_x, [-1.0]]),
        np.concatenate([-c_x, [1.0]]),
    ])
    rows_y = np.vstack([m0.A_y, c_y.reshape(1, ny), -c_y.reshape(1, ny)])
    rhs = np.concatenate([m0.b, [-objective_shift, objective_shift]])

    ax_pos, ax_neg = _decompose(rows_x)
    ay_pos, ay_neg = _decompose(rows_y)
    b_pos, b_neg = _decompose(rhs)

    net = FlowNetwork()
    trace = EncodingTrace(objective_shift, milp.sense)

    net.add_node("origin", Source(Split()), metadata={"role": "supply"})
    net.add_node("drain", Sink(), metadata={"role": "absorber"})
    net.add_node("objective", Sink(), metadata={"role": "objective"})

    n_rows = rows_x.shape[0]
    var_keys = [f"x{j}" for j in range(nx)] + ["p"] + [f"y{j}" for j in range(ny)]

    for key in var_keys:
        node = key
        net.add_node(node, AllEqual(), metadata={"role": "variable"})
        if key.startswith("y"):
            pick = f"{key}:pick"
            net.add_node(pick, Pick(), metadata={"role": "binary-choice"})
            net.add_edge(f"{key}:unit", "origin", pick, fixed_rate=1.0)
            net.add_edge(f"{key}:feed", pick, node)
            net.add_edge(f"{key}:complement", pick, "drain")
        else:
            net.add_edge(f"{key}:feed", "origin", node)
        trace.var_edges[key] = f"{key}:feed"

    for i in range(n_rows):
        row = f"row{i}"
        net.add_node(row, Split(), metadata={"role": "constraint"})
        net.add_edge(f"slack:{i}", "origin", row)
        if b_neg[i] > 0:
            net.add_edge(f"const_in:{i}", "origin", row, fixed_rate=float(b_neg[i]))
        if b_pos[i] > 0:
            net.add_edge(f"const_out:{i}", row, "drain", fixed_rate=float(b_pos[i]))

        def occurrence(key, col, pos_mat, neg_mat):
            a_pos = pos_mat[i, col]
            a_neg = neg_mat[i, col]
            if a_pos > 0:
                mul = f"mul_pos:{i}:{key}"
                net.add_node(mul, Multiply(float(a_pos)), metadata={"role": "coef"})
                net.add_edge(f"occ_pos:{i}:{key}", key, mul)
                net.add_edge(f"u_pos:{i}:{key}", mul, row)
            if a_neg > 0:
                mul = f"mul_neg:{i}:{key}"
                net.add_node(mul, Multiply(float(1.0 / a_neg)), metadata={"role": "coef"})
                net.add_edge(f"u_neg:{i}:{key}", row, mul)
                net.add_edge(f"occ_neg:{i}:{key}", mul, key)

        for j in range(nx):
            occurrence(f"x{j}", j, ax_pos, ax_neg)
        occurrence("p", nx, ax_pos, ax_neg)
        for j in range(ny):
            occurrence(f"y{j}", j, ay_pos, ay_neg)

    net.add_edge("p:objective", "p", "objective")
    return net, trace


def milp_to_program(milp):
    """Express the MILP directly as a ConstraintProgram (no network detour).

    This is the reference route for checking the network encoding against.
    """
    from ..solver import BINARY, ConstraintProgram

    prog = ConstraintProgram(sense=milp.sense)
    for j in range(milp.n_x):
        prog.add_variable(f"x{j}")
    for j in range(milp.n_y):
        prog.add_variable(f"y{j}", kind=BINARY)
    for i in range(len(milp.b)):
        coeffs = {}
        for j in range(milp.n_x):
            if milp.A_x[i, j] != 0.0:
                coeffs[f"x{j}"] = milp.A_x[i, j]
        for j in range(milp.n_y):
            if milp.A_y[i, j] != 0.0:
                coeffs[f"y{j}"] = milp.A_y[i, j]
        prog.add_constraint(coeffs, milp.row_sense[i], float(milp.b[i]))
    objective = {}
    for j in range(milp.n_x):
        if milp.c_x[j] != 0.0:
            objective[f"x{j}"] = milp.c_x[j]
    for j in range(milp.n_y):
        if milp.c_y[j] != 0.0:
            objective[f"y{j}"] = milp.c_y[j]
    prog.set_objective(objective)
    return prog


def solve_encoded(net, trace):
    """Optimize a network from encode_milp and map the result back.

    Returns (objective value in the MILP's own sense, x dict, y dict,
    FlowAssignment). Raises flow.Infeasible / flow.Unbounded as evaluate does.
    """
    from ..flow import evaluate

    sink_value, assignment = evaluate(net, {}, "objective")
    x, y = trace.extract_solution(assignment)
    return trace.original_objective(sink_value), x, y, assignment
