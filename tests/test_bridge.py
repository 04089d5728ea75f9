"""Bridge: network compilation and MILP encoding."""

import json

import numpy as np
import pytest

from xplain.bridge import (
    Milp,
    compile_network,
    encode_milp,
    load_milp,
    milp_to_program,
    solve_encoded,
)
from xplain.flow import (
    AllEqual,
    Copy,
    FlowError,
    FlowNetwork,
    Multiply,
    Pick,
    Sink,
    Source,
    Split,
    evaluate,
    validate,
)
from xplain.solver import EQ, LE, solve_mip

from oracles import assignment_violations, milp_oracle


# --- compile ----------------------------------------------------------------

def test_compile_empty_network():
    prog = compile_network(FlowNetwork())
    assert len(prog.variables) == 0
    assert len(prog.constraints) == 0
    sol = solve_mip(prog)
    assert sol.objective == pytest.approx(0.0)


def test_compile_one_variable_per_edge_with_capacity_bound():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("t", Sink())
    net.add_edge("e", "s", "t", capacity=4.0)
    prog = compile_network(net, "t")
    assert [v.name for v in prog.variables] == ["e"]
    assert prog.variables[0].upper == 4.0


def test_compile_ball_bin_picks_make_groups():
    # four ball sources (pick behavior), three bins, one occupancy sink:
    # the program must carry one exactly-one group per ball
    net = FlowNetwork()
    net.add_node("occupancy", Sink())
    for b in range(3):
        net.add_node(f"bin{b}", Split())
        net.add_edge(f"bin{b}->occ", f"bin{b}", "occupancy")
    for i in range(4):
        net.add_node(f"ball{i}", Source(Pick()))
        for b in range(3):
            net.add_edge(f"ball{i}->bin{b}", f"ball{i}", f"bin{b}")
    assert validate(net) == []
    prog = compile_network(net, "occupancy")
    assert len(prog.exactly_one_groups) == 4
    names = {v.name for v in prog.variables}
    for group in prog.exactly_one_groups:
        for idx in group:
            assert prog.variables[idx].name in names


def test_compile_copy_equals_split_all_equal_pair():
    # a copy node and its split+all-equal expansion admit the same flows
    rng = np.random.default_rng(411)
    for _ in range(10):
        r1, r2 = rng.uniform(0.5, 5.0, size=2).round(3)

        direct = FlowNetwork()
        direct.add_node("s", Source(Split()))
        direct.add_node("c", Copy())
        direct.add_node("t", Sink())
        direct.add_node("t2", Sink())
        direct.add_edge("in1", "s", "c", fixed_rate=r1)
        direct.add_edge("in2", "s", "c", fixed_rate=r2)
        direct.add_edge("out1", "c", "t")
        direct.add_edge("out2", "c", "t2")

        expanded = FlowNetwork()
        expanded.add_node("s", Source(Split()))
        expanded.add_node("gather", Split())
        expanded.add_node("eq", AllEqual())
        expanded.add_node("t", Sink())
        expanded.add_node("t2", Sink())
        expanded.add_edge("in1", "s", "gather", fixed_rate=r1)
        expanded.add_edge("in2", "s", "gather", fixed_rate=r2)
        expanded.add_edge("total", "gather", "eq")
        expanded.add_edge("out1", "eq", "t")
        expanded.add_edge("out2", "eq", "t2")

        v1, _ = evaluate(direct, {}, "t")
        v2, _ = evaluate(expanded, {}, "t")
        assert v1 == pytest.approx(v2, abs=1e-6)
        assert v1 == pytest.approx(r1 + r2, abs=1e-6)


# --- evaluate ---------------------------------------------------------------

def _random_network(rng):
    """Small random layered network; always structurally valid."""
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("t", Sink())
    net.add_node("waste", Sink())
    kinds = [Split, Copy, AllEqual, Pick, Multiply]
    n_mid = int(rng.integers(1, 5))
    mids = []
    for i in range(n_mid):
        kind = kinds[int(rng.integers(len(kinds)))]
        beh = Multiply(round(float(rng.uniform(0.5, 2.0)), 2)) if kind is Multiply else kind()
        mids.append(net.add_node(f"m{i}", beh))
    order = ["s"] + mids + ["t"]
    eid = 0
    for a, b in zip(order, order[1:]):
        cap = round(float(rng.uniform(1.0, 8.0)), 2) if rng.random() < 0.5 else None
        net.add_edge(f"e{eid}", a, b, capacity=cap)
        eid += 1
    # extra skip edges, avoiding multiply nodes (their arity is fixed above)
    for a_i in range(len(order) - 1):
        for b_i in range(a_i + 1, len(order)):
            if rng.random() > 0.25:
                continue
            a, b = order[a_i], order[b_i]
            if isinstance(net.nodes[a], Multiply) or isinstance(net.nodes[b], Multiply):
                continue
            if a == "s" and b == "t":
                continue
            cap = round(float(rng.uniform(1.0, 8.0)), 2) if rng.random() < 0.5 else None
            rate = round(float(rng.uniform(0.5, 3.0)), 2) if rng.random() < 0.2 else None
            if isinstance(net.nodes[b], Source):
                continue
            net.add_edge(f"e{eid}", a, b, capacity=cap, fixed_rate=rate)
            eid += 1
    # a relief path so picks are not always forced
    drop = mids[int(rng.integers(len(mids)))]
    if not isinstance(net.nodes[drop], Multiply):
        net.add_edge("relief", drop, "waste")
    inputs = {}
    if rng.random() < 0.5:
        inputs["s"] = round(float(rng.uniform(0.0, 6.0)), 2)
    return net, inputs


def test_evaluate_assignment_on_random_networks():
    # the assignment read back from the solved program is a feasible flow
    # whose sink inflow is the reported objective
    rng = np.random.default_rng(20240906)
    checked = 0
    for _ in range(50):
        net, inputs = _random_network(rng)
        assert validate(net) == []
        try:
            value, asg = evaluate(net, inputs, "t")
        except FlowError:
            continue
        assert assignment_violations(net, asg) == []
        inflow = sum(asg[e.id] for e in net.in_edges("t"))
        assert value == pytest.approx(inflow, abs=1e-6)
        checked += 1
    assert checked >= 20


# --- encode -----------------------------------------------------------------

def test_encode_single_upper_bound():
    m = Milp(np.array([1.0]), np.zeros(0), np.array([[1.0]]),
             np.zeros((1, 0)), np.array([5.0]), [LE])
    value, x, _, _ = solve_encoded(*encode_milp(m))
    assert value == pytest.approx(5.0)
    assert x["x0"] == pytest.approx(5.0)


def test_encode_unconstrained_binary():
    m = Milp(np.zeros(0), np.array([1.0]), np.zeros((0, 0)),
             np.zeros((0, 1)), np.zeros(0), [])
    value, _, y, _ = solve_encoded(*encode_milp(m))
    assert value == pytest.approx(1.0)
    assert y["y0"] == pytest.approx(1.0)


def test_encode_decomposition_invariant():
    # each row's multiply factors (a+ forward, 1/a- backward) and constant
    # feeds rebuild that row of A and b, with at most one side per entry
    m = Milp(np.array([1.0, -2.0]), np.array([3.0]),
             np.array([[1.5, -0.5], [-1.0, 2.0]]), np.array([[1.0], [-2.0]]),
             np.array([4.0, -1.0]), [LE, LE])
    net, _ = encode_milp(m)
    rates = {e.id: e.fixed_rate for e in net.edges}

    def coefficient(i, key):
        pos = net.nodes.get(f"mul_pos:{i}:{key}")
        neg = net.nodes.get(f"mul_neg:{i}:{key}")
        assert pos is None or neg is None
        return (pos.factor if pos else 0.0) - (1.0 / neg.factor if neg else 0.0)

    for i in range(2):
        np.testing.assert_allclose(
            [coefficient(i, f"x{j}") for j in range(m.n_x)], m.A_x[i])
        np.testing.assert_allclose(
            [coefficient(i, f"y{j}") for j in range(m.n_y)], m.A_y[i])
        b_out = rates.get(f"const_out:{i}") or 0.0
        b_in = rates.get(f"const_in:{i}") or 0.0
        assert b_out == 0.0 or b_in == 0.0
        assert b_out - b_in == pytest.approx(m.b[i])


def test_encode_structure_per_row_and_binary():
    m = Milp(np.array([2.0]), np.array([1.0]),
             np.array([[1.0]]), np.array([[-3.0]]),
             np.array([2.0]), [LE])
    net, _ = encode_milp(m)
    assert validate(net) == []
    # row 0 split: slack inflow, positive occurrence in, negative occurrence out
    assert isinstance(net.nodes["row0"], Split)
    edges = {e.id: e for e in net.edges}
    assert (edges["slack:0"].tail, edges["slack:0"].head) == ("origin", "row0")
    assert (edges["u_pos:0:x0"].tail, edges["u_pos:0:x0"].head) == (
        "mul_pos:0:x0", "row0")
    assert (edges["u_neg:0:y0"].tail, edges["u_neg:0:y0"].head) == (
        "row0", "mul_neg:0:y0")
    # multiply factors: a+ forward, 1/a- backward
    assert net.nodes["mul_pos:0:x0"] == Multiply(1.0)
    assert net.nodes["mul_neg:0:y0"] == Multiply(1.0 / 3.0)
    # binary pick: unit feed plus two outgoing edges
    pick = net.nodes["y0:pick"]
    assert isinstance(pick, Pick)
    unit = edges["y0:unit"]
    assert unit.fixed_rate == 1.0
    outs = {e.id for e in net.out_edges("y0:pick")}
    assert outs == {"y0:feed", "y0:complement"}
    # objective sink fed by the p variable's node
    obj_edge = edges["p:objective"]
    assert obj_edge.tail == "p" and obj_edge.head == "objective"


def test_encode_zero_coefficients_produce_no_multiply():
    m = Milp(np.array([1.0, 0.0]), np.zeros(0),
             np.array([[1.0, 0.0]]), np.zeros((1, 0)),
             np.array([3.0]), [LE])
    net, _ = encode_milp(m)
    assert "mul_pos:0:x1" not in net.nodes
    assert "mul_neg:0:x1" not in net.nodes


def test_encode_equality_rows_expand_to_two():
    m = Milp(np.array([1.0]), np.zeros(0), np.array([[1.0]]),
             np.zeros((1, 0)), np.array([3.0]), [EQ])
    expanded = m.expand_equalities()
    assert expanded.row_sense == [LE, LE]
    np.testing.assert_allclose(expanded.A_x, [[1.0], [-1.0]])
    np.testing.assert_allclose(expanded.b, [3.0, -3.0])
    value, _, _, _ = solve_encoded(*encode_milp(m))
    assert value == pytest.approx(3.0)


def test_encode_min_sense_maps_back():
    m = Milp(np.array([1.0]), np.zeros(0), np.array([[-1.0]]),
             np.zeros((1, 0)), np.array([-2.0]), [LE], "min")
    value, x, _, _ = solve_encoded(*encode_milp(m, objective_shift=5.0))
    assert value == pytest.approx(2.0)
    assert x["x0"] == pytest.approx(2.0)


def test_encode_rejects_negative_shift():
    m = Milp(np.array([1.0]), np.zeros(0), np.array([[1.0]]),
             np.zeros((1, 0)), np.array([5.0]), [LE])
    with pytest.raises(ValueError):
        encode_milp(m, objective_shift=-1.0)


def _random_milp(rng):
    nx = int(rng.integers(0, 3))
    ny = int(rng.integers(0, 3))
    if nx + ny == 0:
        nx = 1
    m = int(rng.integers(1, 5))
    A_x = rng.integers(-5, 6, size=(m, nx)).astype(float)
    A_y = rng.integers(-5, 6, size=(m, ny)).astype(float)
    c_x = rng.integers(-5, 6, size=nx).astype(float)
    c_y = rng.integers(-5, 6, size=ny).astype(float)
    b = rng.integers(-3, 9, size=m).astype(float)
    senses = [EQ if rng.random() < 0.15 else LE for _ in range(m)]
    return Milp(c_x, c_y, A_x, A_y, b, senses)


def test_encode_matches_raw_solver_on_100_random_milps():
    # reference route: the raw MILP handed straight to the solver
    rng = np.random.default_rng(20240907)
    done = 0
    while done < 100:
        m = _random_milp(rng)
        raw = solve_mip(milp_to_program(m))
        if raw.status != "optimal" or raw.objective < 0:
            continue
        net, trace = encode_milp(m)
        sink_value, _ = evaluate(net, {}, "objective")
        assert sink_value == pytest.approx(raw.objective, abs=1e-6)
        done += 1


def test_encode_feasibility_matches_per_binary_pattern():
    # soundness and completeness, pattern by pattern, on a 2-binary instance
    m = Milp(np.array([1.0]), np.array([2.0, 3.0]),
             np.array([[1.0], [1.0]]), np.array([[2.0, -1.0], [-3.0, 2.0]]),
             np.array([4.0, 3.0]), [LE, LE])
    net, trace = encode_milp(m)
    base = compile_network(net, "objective")
    for y0 in (0.0, 1.0):
        for y1 in (0.0, 1.0):
            fixed = milp_to_program(m)
            names = [v.name for v in fixed.variables]
            fixed.add_constraint({"y0": 1.0}, EQ, y0)
            fixed.add_constraint({"y1": 1.0}, EQ, y1)
            raw = solve_mip(fixed)

            pinned = compile_network(net, "objective")
            pinned.add_constraint({trace.var_edges["y0"]: 1.0}, EQ, y0)
            pinned.add_constraint({trace.var_edges["y1"]: 1.0}, EQ, y1)
            enc = solve_mip(pinned)

            assert (raw.status == "optimal") == (enc.status == "optimal")
            if raw.status == "optimal":
                assert enc.objective == pytest.approx(raw.objective, abs=1e-6)


def test_encoded_assignment_satisfies_network():
    m = Milp(np.array([3.0, 2.0]), np.array([4.0]),
             np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[2.0], [1.0]]),
             np.array([6.0, 3.0]), [LE, LE])
    net, trace = encode_milp(m)
    value, x, y, asg = solve_encoded(net, trace)
    assert assignment_violations(net, asg) == []
    # extracted point is feasible for the original rows
    z = np.array([x["x0"], x["x1"], y["y0"]])
    A = np.hstack([m.A_x, m.A_y])
    assert np.all(A @ z <= m.b + 1e-6)
    c = np.concatenate([m.c_x, m.c_y])
    assert float(c @ z) == pytest.approx(value, abs=1e-6)


def test_encode_against_independent_enumeration_oracle():
    # second opinion from the vertex-pattern oracle, away from the solver
    rng = np.random.default_rng(77)
    done = 0
    while done < 25:
        m = _random_milp(rng)
        status, value = milp_oracle(
            m.A_x, m.A_y, list(m.row_sense), m.b, m.c_x, m.c_y, "max",
        )
        if status != "optimal" or value < 0:
            continue
        got, _, _, _ = solve_encoded(*encode_milp(m))
        assert got == pytest.approx(value, abs=1e-6)
        done += 1


# --- io ---------------------------------------------------------------------

def test_milp_json_round_trip(tmp_path):
    doc = {"sense": "min", "c_x": [1.0, -2.0], "c_y": [3.0],
           "A_x": [[1.0, 0.5], [-1.0, 2.0]], "A_y": [[1.0], [0.0]],
           "b": [4.0, 2.0], "row_sense": [LE, EQ]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m = load_milp(path)
    assert isinstance(m, Milp) and m.sense == "min" and m.row_sense == [LE, EQ]
    for key in ("c_x", "c_y", "A_x", "A_y", "b"):
        assert getattr(m, key).tolist() == doc[key]
