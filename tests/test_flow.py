"""Flow DSL: structural validation, evaluation semantics, serialization."""

import pytest
from oracles import assignment_violations

from xplain import flow
from xplain.flow import (
    AllEqual,
    Copy,
    FlowError,
    FlowNetwork,
    Infeasible,
    Multiply,
    Pick,
    Sink,
    Source,
    Split,
    Unbounded,
    evaluate,
    from_json,
    network_from_dict,
    to_json,
    validate,
)


def chain(*caps):
    """source -> split -> ... -> sink with the given per-edge capacities."""
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("t", Sink())
    prev = "s"
    for i, cap in enumerate(caps):
        nid = f"n{i}"
        net.add_node(nid, Split())
        net.add_edge(f"e{i}", prev, nid, capacity=cap)
        prev = nid
    net.add_edge("last", prev, "t")
    return net


# --- validation -------------------------------------------------------------

def test_validate_clean_network():
    assert validate(chain(3.0, 5.0)) == []


def test_validate_duplicate_edge_id():
    net = chain(1.0)
    net.add_edge("e0", "s", "t")
    assert any("duplicate edge id" in v for v in validate(net))


def test_validate_self_loop_and_unknown_node():
    net = FlowNetwork()
    net.add_node("a", Split())
    net.add_edge("loop", "a", "a")
    net.add_edge("dangling", "a", "ghost")
    issues = validate(net)
    assert any("self-loop" in v for v in issues)
    assert any("unknown node" in v for v in issues)


def test_validate_multiply_arity():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("m", Multiply(2.0))
    net.add_node("t", Sink())
    net.add_edge("in1", "s", "m")
    net.add_edge("in2", "s", "m")
    net.add_edge("out", "m", "t")
    assert any("multiply arity" in v for v in validate(net))


def test_validate_sink_outgoing():
    net = FlowNetwork()
    net.add_node("t", Sink())
    net.add_node("a", Split())
    net.add_edge("bad", "t", "a")
    assert any("sink has outgoing" in v for v in validate(net))


def test_validate_source_incoming_must_be_constant():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("a", Split())
    net.add_edge("ok", "a", "s", fixed_rate=2.0)
    net.add_edge("bad", "a", "s")
    issues = validate(net)
    assert any("non-constant incoming" in v and "'bad'" in v for v in issues)
    assert not any("'ok'" in v for v in issues)


def test_validate_pick_needs_outgoing():
    net = FlowNetwork()
    net.add_node("p", Pick())
    assert any("pick requires" in v for v in validate(net))


def test_behavior_constructors_reject_bad_values():
    with pytest.raises(ValueError):
        Multiply(0.0)
    with pytest.raises(ValueError):
        Sink("sideways")
    with pytest.raises(TypeError):
        Source(Sink())


# --- evaluation -------------------------------------------------------------

def test_split_capacities_cap_the_sink():
    # 10 available in, outgoing capacities 3 and 4: conservation limits the
    # split to passing 7
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("mid", Split())
    net.add_node("t", Sink())
    net.add_edge("supply", "s", "mid", capacity=10.0)
    net.add_edge("a", "mid", "t", capacity=3.0)
    net.add_edge("b", "mid", "t", capacity=4.0)
    value, asg = evaluate(net, {}, "t")
    assert value == pytest.approx(7.0)
    assert asg["a"] == pytest.approx(3.0)
    assert asg["b"] == pytest.approx(4.0)
    assert assignment_violations(net, asg) == []


def test_zero_input_zero_objective():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("t", Sink())
    net.add_edge("only", "s", "t")
    value, asg = evaluate(net, {"s": 0.0}, "t")
    assert value == pytest.approx(0.0)
    assert asg["only"] == pytest.approx(0.0)


def test_pick_with_zero_inflow_is_feasible():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("p", Pick())
    net.add_node("t", Sink())
    net.add_node("u", Sink())
    net.add_edge("in", "s", "p")
    net.add_edge("a", "p", "t")
    net.add_edge("b", "p", "u")
    value, asg = evaluate(net, {"s": 0.0}, "t")
    assert value == pytest.approx(0.0)
    assert assignment_violations(net, asg) == []


def test_source_value_is_binding():
    net = chain(100.0)
    value, asg = evaluate(net, {"s": 2.5}, "t")
    assert value == pytest.approx(2.5)
    assert asg["e0"] == pytest.approx(2.5)


def test_absent_source_is_free_supply():
    value, _ = evaluate(chain(6.0, 9.0), {}, "t")
    assert value == pytest.approx(6.0)


def test_unbounded_free_supply():
    with pytest.raises(Unbounded):
        evaluate(chain(), {}, "t")


def test_infeasible_fixed_rate_vs_capacity():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("mid", Split())
    net.add_node("t", Sink())
    net.add_edge("supply", "s", "mid", fixed_rate=5.0)
    net.add_edge("out", "mid", "t", capacity=1.0)
    with pytest.raises(Infeasible):
        evaluate(net, {}, "t")


def test_multiply_scales_flow():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("m", Multiply(2.5))
    net.add_node("t", Sink())
    net.add_edge("in", "s", "m")
    net.add_edge("out", "m", "t")
    value, asg = evaluate(net, {"s": 4.0}, "t")
    assert value == pytest.approx(10.0)
    assert asg["out"] == pytest.approx(2.5 * asg["in"])


def test_pick_routes_everything_one_way():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("p", Pick())
    net.add_node("t", Sink())
    net.add_node("waste", Sink())
    net.add_edge("supply", "s", "p")
    net.add_edge("good", "p", "t", capacity=7.0)
    net.add_edge("bad", "p", "waste")
    value, asg = evaluate(net, {"s": 7.0}, "t")
    assert value == pytest.approx(7.0)
    assert asg["bad"] == pytest.approx(0.0)


def test_pick_cannot_split():
    # pick must send the full 5 one way; 'good' only admits 3, so the
    # objective-optimal choice is still all-or-nothing
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("p", Pick())
    net.add_node("t", Sink())
    net.add_node("waste", Sink())
    net.add_edge("supply", "s", "p")
    net.add_edge("good", "p", "t", capacity=3.0)
    net.add_edge("bad", "p", "waste")
    value, asg = evaluate(net, {"s": 5.0}, "t")
    assert value == pytest.approx(0.0)
    assert asg["bad"] == pytest.approx(5.0)


def test_all_equal_ties_without_conservation():
    # one inflow, two outflows, all forced equal: 3 in, 3 out each way
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("eq", AllEqual())
    net.add_node("t", Sink())
    net.add_edge("in", "s", "eq", capacity=3.0)
    net.add_edge("out1", "eq", "t")
    net.add_edge("out2", "eq", "t")
    value, asg = evaluate(net, {}, "t")
    assert value == pytest.approx(6.0)
    assert asg["out1"] == pytest.approx(asg["in"])
    assert asg["out2"] == pytest.approx(asg["in"])


def test_copy_duplicates_total_inflow():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("c", Copy())
    net.add_node("t", Sink())
    net.add_edge("in1", "s", "c", fixed_rate=2.0)
    net.add_edge("in2", "s", "c", fixed_rate=1.5)
    net.add_edge("out1", "c", "t")
    net.add_edge("out2", "c", "t")
    value, asg = evaluate(net, {}, "t")
    assert value == pytest.approx(7.0)
    assert asg["out1"] == pytest.approx(3.5)
    assert asg["out2"] == pytest.approx(3.5)


def test_minimize_sink_sense():
    # min sink with a fixed feed: everything must still arrive
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("mid", Split())
    net.add_node("t", Sink(sense=flow.MINIMIZE))
    net.add_edge("supply", "s", "mid", fixed_rate=4.0)
    net.add_edge("deliver", "mid", "t")
    value, _ = evaluate(net, {}, "t")
    assert value == pytest.approx(4.0)


def test_minimize_with_escape_route():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("mid", Split())
    net.add_node("t", Sink(sense=flow.MINIMIZE))
    net.add_node("other", Sink())
    net.add_edge("supply", "s", "mid", fixed_rate=4.0)
    net.add_edge("deliver", "mid", "t")
    net.add_edge("escape", "mid", "other", capacity=3.0)
    value, asg = evaluate(net, {}, "t")
    assert value == pytest.approx(1.0)
    assert asg["escape"] == pytest.approx(3.0)


def test_evaluate_rejects_bad_arguments():
    net = chain(1.0)
    with pytest.raises(FlowError):
        evaluate(net, {}, "n0")          # not a sink
    with pytest.raises(FlowError):
        evaluate(net, {"n0": 1.0}, "t")  # input target is not a source
    bad = chain(1.0)
    bad.add_edge("e0", "s", "t")         # duplicate id
    with pytest.raises(FlowError):
        evaluate(bad, {}, "t")


def test_source_with_pick_inner():
    net = FlowNetwork()
    net.add_node("s", Source(Pick()))
    net.add_node("t", Sink())
    net.add_node("waste", Sink())
    net.add_edge("a", "s", "t", capacity=2.0)
    net.add_edge("b", "s", "waste")
    value, asg = evaluate(net, {"s": 2.0}, "t")
    assert value == pytest.approx(2.0)
    assert asg["b"] == pytest.approx(0.0)


# --- assignment checking ----------------------------------------------------

def test_assignment_violations_flags_conservation():
    net = chain(5.0)
    bad = {"e0": 2.0, "last": 1.0}
    assert any("conservation" in v for v in assignment_violations(net, bad))


def test_assignment_violations_flags_capacity():
    net = chain(5.0)
    bad = {"e0": 6.0, "last": 6.0}
    assert any("capacity" in v for v in assignment_violations(net, bad))


def test_assignment_violations_flags_pick():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("p", Pick())
    net.add_node("t", Sink())
    net.add_node("u", Sink())
    net.add_edge("in", "s", "p")
    net.add_edge("a", "p", "t")
    net.add_edge("b", "p", "u")
    bad = {"in": 2.0, "a": 1.0, "b": 1.0}
    assert any("pick" in v.lower() for v in assignment_violations(net, bad))


def test_assignment_violations_accepts_evaluate_output():
    net = FlowNetwork()
    net.add_node("s", Source(Split()))
    net.add_node("m", Multiply(3.0))
    net.add_node("eq", AllEqual())
    net.add_node("t", Sink())
    net.add_edge("in", "s", "m")
    net.add_edge("mid", "m", "eq", capacity=6.0)
    net.add_edge("out", "eq", "t")
    _, asg = evaluate(net, {"s": 2.0}, "t")
    assert assignment_violations(net, asg) == []


# --- serialization ----------------------------------------------------------

def test_json_round_trip_preserves_structure_and_value():
    net = FlowNetwork()
    net.add_node("s", Source(Split()), metadata={"role": "supply"})
    net.add_node("p", Pick())
    net.add_node("m", Multiply(2.0))
    net.add_node("eq", AllEqual())
    net.add_node("c", Copy())
    net.add_node("t", Sink(sense=flow.MINIMIZE))
    net.add_node("t2", Sink())
    net.add_edge("e1", "s", "p", metadata={"kind": "supply"})
    net.add_edge("e2", "p", "m", capacity=9.0)
    net.add_edge("e3", "p", "t")
    net.add_edge("e4", "m", "eq")
    net.add_edge("e5", "eq", "c", fixed_rate=4.0)
    net.add_edge("e6", "c", "t2")

    text = to_json(net)
    back = from_json(text)
    assert set(back.nodes) == set(net.nodes)
    assert [e.id for e in back.edges] == [e.id for e in net.edges]
    assert back.nodes["m"] == net.nodes["m"]
    assert back.nodes["t"] == net.nodes["t"]
    edges = {e.id: e for e in back.edges}
    assert edges["e2"].capacity == 9.0
    assert edges["e5"].fixed_rate == 4.0
    assert dict(edges["e1"].metadata) == {"kind": "supply"}
    assert back.node_metadata.get("s") == {"role": "supply"}
    assert to_json(back) == text


def test_json_refuses_split_capacities_and_fixed_rates():
    # a file that bounds flow on its splits must not load with the bounds dropped
    for node in ({"id": "s", "behavior": "source", "outgoing_capacities": {"a": 2.0}},
                 {"id": "mid", "behavior": "split", "fixed_incoming": {"a": 2.0}}):
        nodes = [{"id": "s", "behavior": "source"}, {"id": "mid", "behavior": "split"},
                 {"id": "t", "behavior": "sink"}]
        doc = {"nodes": [node if n["id"] == node["id"] else n for n in nodes],
               "edges": [{"id": "a", "from": "s", "to": "mid"},
                         {"id": "b", "from": "mid", "to": "t"}]}
        with pytest.raises(ValueError, match="capacity and fixed_rate on the edges"):
            network_from_dict(doc)
