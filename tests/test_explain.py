"""Edge heatmap tests: scoring rule, DOT/JSON emitters, solver-pair glue."""

import json
import re

import numpy as np
import pytest
from oracles import edge_tally, te_edge_flows, vbp_edge_flows

from xplain.analyzer import InputSpace
from xplain.explain import (
    EdgeScore,
    Heatmap,
    emit_dot,
    emit_json,
    score_edges,
)
from xplain.flow import EPS_FLOW
from xplain.heuristics import (
    VbpInstance,
    builtin,
    min_bins,
    optimal_te,
    run_dp,
    run_ff,
    sized_instance,
    vbp_network,
)
from xplain.rng import substream
from xplain.sampling import sample_region
from xplain.subspaces import Subspace, subspace_to_dict


def heuristic_twice(evaluate):
    """The heuristic's flows on both sides."""
    def twice(X):
        H, _ = evaluate(X)
        return H, H
    return twice


def swapped(evaluate):
    return lambda X: evaluate(X)[::-1]


def stub(net, heuristic, benchmark):
    """Fixed edge id -> flow mappings for every sample, as evaluate's arrays."""
    def rows(flows, n):
        return np.array([[flows.get(e.id, 0.0) for e in net.edges]] * n)
    return lambda X: (rows(heuristic, len(X)), rows(benchmark, len(X)))


@pytest.fixture(scope="module")
def fig1a():
    sc = builtin("fig1a_dp")
    return sc, sc.network, sc.edge_flows


@pytest.fixture(scope="module")
def pinnable(fig1a):
    # demand 1->3 stays pinnable (rate <= 50) while 1->2 and 2->3 are full
    sc, net, ev = fig1a
    lo = [100, 40, 0, 0, 100, 0, 0, 0]
    hi = [100, 50, 0, 0, 100, 0, 0, 0]
    sub = Subspace.box(lo, hi, labels=sc.labels())
    hm = score_edges(net, ev, sub, space=sc.space(), n_samples=400, seed=11)
    return sub, hm


def test_dp_fixture_edge_signs(pinnable):
    _, hm = pinnable
    means = {eid: sc.mean for eid, sc in hm.scores.items()}
    assert means["assign:1->3:1-2-3"] < 0
    for eid in ("met:1->4", "met:4->5", "met:5->3",
                "traverse:1-4-5-3:1->4", "traverse:1-4-5-3:4->5",
                "traverse:1-4-5-3:5->3", "assign:1->3:1-4-5-3"):
        assert means[eid] > 0, eid
    # links shared at full rate by both solvers stay neutral
    assert means["met:1->2"] == 0.0
    assert means["met:2->3"] == 0.0


def test_counts_sum_and_mean_formula(pinnable):
    _, hm = pinnable
    for sc in hm.scores.values():
        total = sc.both + sc.benchmark_only + sc.heuristic_only + sc.neither
        assert total == hm.n_samples
        assert sc.mean == (sc.benchmark_only - sc.heuristic_only) / hm.n_samples
        assert -1.0 <= sc.mean <= 1.0
        assert sc.mean_abs_flow_delta >= 0.0


def test_identical_evaluators_score_zero(fig1a):
    sc, net, ev = fig1a
    sub = Subspace.box([0] * 8, [60] * 8, labels=sc.labels())
    hm = score_edges(net, heuristic_twice(ev), sub, space=sc.space(), n_samples=50, seed=1)
    assert all(sc.mean == 0.0 for sc in hm.scores.values())
    for es in hm.scores.values():
        assert es.benchmark_only == 0 and es.heuristic_only == 0
        assert es.mean_abs_flow_delta == 0.0


def test_swapping_evaluators_negates_means(fig1a):
    sc, net, ev = fig1a
    sub = Subspace.box([0] * 8, [80] * 8, labels=sc.labels())
    fwd = score_edges(net, ev, sub, space=sc.space(), n_samples=120, seed=5)
    rev = score_edges(net, swapped(ev), sub, space=sc.space(), n_samples=120, seed=5)
    for eid in fwd.scores:
        assert rev.scores[eid].mean == -fwd.scores[eid].mean
        assert rev.scores[eid].mean_abs_flow_delta == fwd.scores[eid].mean_abs_flow_delta
        assert rev.scores[eid].both == fwd.scores[eid].both


def test_single_sample_hand_trace():
    # one sample; stub solvers disagree on where ball 0 goes
    inst = VbpInstance(((0.6,), (0.4,)), None, 1.0)
    net = vbp_network(inst, n_bins=2)
    evaluate = stub(net, {"place:0:0": 0.6, "occupied:0": 0.6},
                    {"place:0:1": 0.6, "occupied:1": 0.6})
    sub = Subspace.box([0.0], [1.0])
    space = InputSpace(((0.0, 1.0),))
    hm = score_edges(net, evaluate, sub, space=space, n_samples=1, seed=0)
    assert hm.scores["place:0:0"].mean == -1.0
    assert hm.scores["place:0:1"].mean == 1.0
    assert hm.scores["place:1:0"].mean == 0.0
    assert hm.scores["occupied:0"].heuristic_only == 1
    assert hm.scores["occupied:1"].benchmark_only == 1


def test_flow_threshold_is_strict():
    inst = VbpInstance(((0.5,),), None, 1.0)
    net = vbp_network(inst, n_bins=1)
    evaluate = stub(net, {"place:0:0": EPS_FLOW / 2, "occupied:0": EPS_FLOW / 2},
                    {"place:0:0": 0.5, "occupied:0": 0.5})
    sub = Subspace.box([0.0], [1.0])
    space = InputSpace(((0.0, 1.0),))
    hm = score_edges(net, evaluate, sub, space=space, n_samples=1, seed=0)
    # sub-threshold flow counts as "no flow"
    assert hm.scores["place:0:0"].mean == 1.0
    at = stub(net, {"place:0:0": EPS_FLOW}, {"place:0:0": 0.5})
    assert score_edges(net, at, sub, space=space, n_samples=1, seed=0).scores["place:0:0"].mean == 1.0


def test_determinism_per_seed(fig1a):
    sc, net, ev = fig1a
    sub = Subspace.box([0] * 8, [70] * 8, labels=sc.labels())
    a = score_edges(net, ev, sub, space=sc.space(), n_samples=60, seed=42)
    b = score_edges(net, ev, sub, space=sc.space(), n_samples=60, seed=42)
    assert a.scores == b.scores


@pytest.mark.parametrize("name, lo, hi, n", [
    ("fig1a_dp", [0.0] * 8, [80.0] * 8, 150),
    ("fig1a_dp", [100, 40, 0, 0, 100, 0, 0, 0], [100, 50, 0, 0, 100, 0, 0, 0], 80),
    ("ff4", [0.0] * 4, [0.7] * 4, 150),
])
def test_score_edges_matches_the_per_sample_tally(name, lo, hi, n):
    sc = builtin(name)
    sub = Subspace.box(lo, hi, labels=sc.labels())
    hm = score_edges(sc.network, sc.edge_flows, sub, space=sc.space(), n_samples=n, seed=9)

    # the same samples, one at a time through the one-row solvers on a
    # fresh instance, projected and tallied by the oracles
    inst = builtin(name).instance
    samples = []
    for x in sample_region(sub, sc.space(), n, substream(9, "explain", "samples")):
        if sc.kind == "te":
            samples.append(tuple(te_edge_flows(inst, x, alloc.flows)
                                 for alloc in (run_dp(inst, x), optimal_te(inst, x))))
        else:
            sized = sized_instance(inst, x)
            samples.append(tuple(vbp_edge_flows(x.tolist(), alloc.assignment, inst.n_balls)
                                 for alloc in (run_ff(sized), min_bins(sized))))
    expected = edge_tally([e.id for e in sc.network.edges], samples, eps=EPS_FLOW)
    got = {eid: (s.both, s.benchmark_only, s.heuristic_only, s.neither, s.mean_abs_flow_delta)
           for eid, s in hm.scores.items()}
    assert list(got) == list(expected)
    assert {eid: (*t[:4], t[4].hex()) for eid, t in got.items()} == \
        {eid: (*t[:4], t[4].hex()) for eid, t in expected.items()}
    assert any(t[1] or t[2] for t in expected.values())  # the two sides disagree somewhere


def test_score_edges_checks_the_flow_shapes(fig1a):
    sc, net, ev = fig1a
    sub = Subspace.box([0] * 8, [60] * 8, labels=sc.labels())
    with pytest.raises(ValueError, match="flows"):
        score_edges(net, lambda X: (ev(X)[0][:, 1:], ev(X)[1]), sub, space=sc.space(),
                    n_samples=5, seed=0)


def test_heatmap_validates_counts():
    bad = EdgeScore(both=1, benchmark_only=1, heuristic_only=0, neither=0,
                    mean_abs_flow_delta=0.0)
    with pytest.raises(ValueError):
        Heatmap(n_samples=5, scores={"e": bad})


# DOT output

EDGE_LINE = re.compile(
    r'^  "[^"]+" -> "[^"]+" \[color="#[0-9a-f]{6}", penwidth=\d+\.\d{2}, '
    r'tooltip="[^"]*", label="[+-]\d\.\d{2}"\];$')
NODE_LINE = re.compile(r'^  "[^"]+" \[fillcolor="#[0-9a-f]{6}", label="[^"]*"\];$')


def _check_dot_shape(dot, net):
    lines = dot.splitlines()
    assert lines[0] == "digraph heatmap {"
    assert lines[-1] == "}"
    body = lines[1:-1]
    nodes = [l for l in body if NODE_LINE.match(l)]
    edges = [l for l in body if EDGE_LINE.match(l)]
    assert len(nodes) == len(net.nodes)
    assert len(edges) == len(net.edges)
    assert dot.count("{") == dot.count("}") == 1
    return edges


def test_dot_structure_and_colors(fig1a, pinnable):
    _, net, _ = fig1a
    sub, hm = pinnable
    dot = emit_dot(hm, net)
    _check_dot_shape(dot, net)
    # the detour chain renders saturated blue, the pinned assign edge red
    blue = [l for l in dot.splitlines() if '"path:1-4-5-3" -> "link:4->5"' in l]
    assert len(blue) == 1 and '#0000ff' in blue[0]
    red = [l for l in dot.splitlines()
           if '"demand:1->3" -> "path:1-2-3"' in l]
    assert len(red) == 1 and '#ff0000' in red[0]


def test_dot_all_zero_is_neutral_gray(fig1a):
    sc, net, ev = fig1a
    sub = Subspace.box([0] * 8, [60] * 8, labels=sc.labels())
    hm = score_edges(net, heuristic_twice(ev), sub, space=sc.space(), n_samples=20, seed=2)
    dot = emit_dot(hm, net)
    for line in _check_dot_shape(dot, net):
        assert '#c0c0c0' in line


def test_dot_byte_stable(fig1a, pinnable):
    _, net, _ = fig1a
    _, hm = pinnable
    assert emit_dot(hm, net) == emit_dot(hm, net)
    assert emit_dot(hm, net).encode() == emit_dot(hm, net).encode()


def test_partial_intensity_interpolates(fig1a):
    _, net, _ = fig1a
    eid = net.edges[0].id
    half = {e.id: EdgeScore(0, 0, 0, 4, 0.0) for e in net.edges}
    half[eid] = EdgeScore(both=0, benchmark_only=3, heuristic_only=1,
                          neither=0, mean_abs_flow_delta=1.0)
    hm = Heatmap(n_samples=4, scores=half)
    dot = emit_dot(hm, net)
    line = [l for l in dot.splitlines() if f'tooltip="{eid}:' in l][0]
    assert '#8080ff' in line  # mean 0.5 sits halfway between white and blue


# JSON round trips

def json_scores(doc):
    return {eid: EdgeScore(rec["both"], rec["benchmark_only"], rec["heuristic_only"],
                           rec["neither"], rec["mean_abs_flow_delta"])
            for eid, rec in doc["edges"].items()}


def test_json_roundtrip_lossless(pinnable):
    sub, hm = pinnable
    doc = json.loads(emit_json(hm))
    assert doc["n_samples"] == hm.n_samples
    assert json_scores(doc) == hm.scores
    assert doc["subspace"] == json.loads(json.dumps(subspace_to_dict(sub)))


def test_json_without_subspace():
    hm = Heatmap(n_samples=2, scores={
        "e": EdgeScore(both=1, benchmark_only=1, heuristic_only=0, neither=0,
                       mean_abs_flow_delta=0.25)})
    doc = json.loads(emit_json(hm))
    assert doc["subspace"] is None
    assert json_scores(doc) == hm.scores


def test_json_is_valid_and_sorted(pinnable):
    _, hm = pinnable
    doc = json.loads(emit_json(hm))
    assert doc["n_samples"] == hm.n_samples
    keys = list(doc["edges"])
    assert keys == sorted(keys)
    rec = doc["edges"]["met:1->4"]
    assert rec["mean"] == hm.scores["met:1->4"].mean


# scenario glue

def test_vbp_evaluators_cover_network():
    sc = builtin("ff4")
    net = sc.network
    H, B = sc.edge_flows(np.array([(0.5, 0.5, 0.5, 0.5)]))
    assert H.shape == B.shape == (1, len(net.edges))
    hf, bf = ({e.id: v for e, v in zip(net.edges, F[0])} for F in (H, B))
    placed = sum(v for k, v in hf.items() if k.startswith("place:"))
    assert placed == pytest.approx(2.0)
    assert sum(v for k, v in bf.items() if k.startswith("occupied:")) == pytest.approx(2.0)


def test_te_evaluators_conserve_totals(fig1a):
    sc, net, ev = fig1a
    H, B = ev(np.array([(50,) * 8]))
    hf, bf = ({e.id: v for e, v in zip(net.edges, F[0])} for F in (H, B))
    met_h = sum(v for k, v in hf.items() if k.startswith("met:"))
    met_b = sum(v for k, v in bf.items() if k.startswith("met:"))
    assert met_b >= met_h  # benchmark never routes less in total
