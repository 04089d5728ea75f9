"""Problem families: pinning and first-fit against their benchmarks."""

import math

import numpy as np
import pytest

from oracles import bin_packing_oracle
from xplain.flow import Pick, Sink, Source, Split, assignment_violations, evaluate, validate
from xplain.heuristics import (
    VbpInstance,
    builtin,
    demand_node,
    dp_gap_fn,
    ff_gap_fn,
    gap,
    k_shortest_paths,
    load_scenario,
    make_instance,
    min_bins,
    optimal_te,
    optimal_vbp,
    project_allocation,
    run_dp,
    run_ff,
    save_scenario,
    sized_instance,
    to_flow_network,
    Unplaceable,
)
from xplain import solver
from xplain.generalize import InstanceFamily, generate_instances
from xplain.rng import fold
from xplain.heuristics.binpack_bounds import gilmore_gomory_bound, l2_bound
from xplain.heuristics.te import _max_flow_lp
from xplain.solver import LE, ConstraintProgram, Solution, SolverError, counting


@pytest.fixture(scope="module")
def fig1a():
    return builtin("fig1a_dp")


def paper_demands(sc):
    labels = sc.labels()
    d = np.zeros(sc.dimension)
    d[labels.index("1->3")] = 50.0
    d[labels.index("1->2")] = 100.0
    d[labels.index("2->3")] = 100.0
    return d


# --- pinning ----------------------------------------------------------------

def test_dp_pins_small_demand_and_loses_100(fig1a):
    inst = fig1a.instance
    d = paper_demands(fig1a)
    alloc = run_dp(inst, d)
    assert alloc.total == pytest.approx(150.0)
    k = fig1a.labels().index("1->3")
    dem = inst.demands[k]
    short = dem.paths.index(("1", "2", "3"))
    assert alloc.flows[k][short] == pytest.approx(50.0)


def test_dp_zero_demands(fig1a):
    assert run_dp(fig1a.instance, np.zeros(8)).total == pytest.approx(0.0)


def test_dp_without_threshold_matches_benchmark(fig1a):
    inst = fig1a.instance
    free = type(inst)(inst.nodes, inst.links, inst.demands, 0.0)
    d = paper_demands(fig1a)
    assert run_dp(free, d).total == pytest.approx(optimal_te(free, d).total)
    assert run_dp(free, d).total == pytest.approx(250.0)


def test_dp_pins_at_threshold_inclusive(fig1a):
    # the 50-unit demand is exactly at the threshold and must be pinned
    inst = fig1a.instance
    d = paper_demands(fig1a)
    k = fig1a.labels().index("1->3")
    assert d[k] == inst.threshold
    alloc = run_dp(inst, d)
    assert alloc.flows[k][inst.demands[k].paths.index(("1", "2", "3"))] > 0


def test_dp_clamps_pin_to_residual():
    # two pinned demands share one capacity-5 link; the second gets what's left
    inst = make_instance(
        ["a", "b", "c"], [("a", "b", 5.0), ("b", "c", 5.0)],
        [("a", "b"), ("a", "c")], threshold=10.0)
    alloc = run_dp(inst, [4.0, 3.0])
    assert alloc.routed(0) == pytest.approx(4.0)
    assert alloc.routed(1) == pytest.approx(1.0)


def test_dp_rejects_bad_demands(fig1a):
    with pytest.raises(ValueError):
        run_dp(fig1a.instance, np.zeros(3))
    with pytest.raises(ValueError):
        run_dp(fig1a.instance, -np.ones(8))


# --- benchmark --------------------------------------------------------------

def test_optimal_te_reroutes_long_way(fig1a):
    inst = fig1a.instance
    d = paper_demands(fig1a)
    alloc = optimal_te(inst, d)
    assert alloc.total == pytest.approx(250.0)
    k = fig1a.labels().index("1->3")
    detour = inst.demands[k].paths.index(("1", "4", "5", "3"))
    assert alloc.flows[k][detour] == pytest.approx(50.0)
    assert alloc.total_unmet == pytest.approx(0.0)


def test_optimal_te_trivial_cases(fig1a):
    assert optimal_te(fig1a.instance, np.zeros(8)).total == pytest.approx(0.0)
    inst = make_instance(["a", "b"], [("a", "b", 10.0)], [("a", "b")], 0.0)
    assert optimal_te(inst, [4.0]).total == pytest.approx(4.0)


def test_dp_never_beats_benchmark(fig1a):
    rng = np.random.default_rng(8821)
    inst = fig1a.instance
    for _ in range(25):
        d = rng.uniform(0.0, 100.0, size=8)
        assert run_dp(inst, d).total <= optimal_te(inst, d).total + 1e-6


def _reference_max_flow_program(inst, d, residual, skip):
    """The max-flow program built row by row, as a reference layout."""
    prog = ConstraintProgram(sense="max")
    var = {}
    for k, dem in enumerate(inst.demands):
        if k not in skip:
            for p in range(len(dem.paths)):
                var[(k, p)] = prog.add_variable(f"f:{k}:{p}")
    for k, dem in enumerate(inst.demands):
        if k not in skip:
            prog.add_constraint({var[(k, p)]: 1.0 for p in range(len(dem.paths))},
                                LE, d[k])
    for link in inst.links:
        hop = (link.src, link.dst)
        coeffs = {idx: 1.0 for (k, p), idx in var.items()
                  if hop in zip(inst.demands[k].paths[p], inst.demands[k].paths[p][1:])}
        if coeffs:
            prog.add_constraint(coeffs, LE, residual[inst.links.index(link)])
    prog.set_objective({idx: 1.0 for idx in var.values()}, "max")
    return prog


def test_max_flow_layout_matches_row_by_row_build(fig1a, monkeypatch):
    # capture the program handed to xplain.solver.solve_lp, as bench/tracer.py does
    captured = []

    def grab(prog):
        captured.append(prog)
        raise RuntimeError("captured")

    monkeypatch.setattr(solver, "solve_lp", grab)
    line = InstanceFamily("te-line", count=5, size_range=(2, 6),
                          capacity_range=(10.0, 60.0), seed=4)
    rng = np.random.default_rng(61)
    for sc in [fig1a, *generate_instances(line)]:
        inst = sc.instance
        for _ in range(12):
            d = rng.uniform(0.0, 100.0, size=inst.n_demands)
            skip = {k for k in range(inst.n_demands) if rng.random() < 0.4}
            residual = [float(rng.uniform(0.0, l.capacity)) for l in inst.links]
            mf = _max_flow_lp(inst, d, residual, frozenset(skip))
            b = np.concatenate([d, residual])[mf.rows]
            with pytest.raises(RuntimeError, match="captured"):
                mf.lp.solve(b)
            got = captured.pop()
            ref = _reference_max_flow_program(inst, d, residual, skip)
            assert isinstance(got, ConstraintProgram)
            assert [v.name for v in got.variables] == [v.name for v in ref.variables]
            assert got.variables == ref.variables
            assert got.constraints == ref.constraints
            assert got.objective == ref.objective and got.sense == ref.sense
            for a, b in zip(got.dense(), ref.dense()):
                assert np.array_equal(a, b)


def _te_demand_vectors(inst, rng, count):
    """Seeded demands, a third of them degenerate: zeros, the threshold, capacities."""
    caps = [l.capacity for l in inst.links]
    hi = 2.0 * max(caps)
    out = []
    for t in range(count):
        d = rng.uniform(0.0, hi, size=inst.n_demands)
        if t % 3 == 0:
            special = np.array([0.0, inst.threshold, *caps])
            pick = rng.random(inst.n_demands) < 0.5
            d[pick] = rng.choice(special, size=int(pick.sum()))
        out.append(d)
    return out


def test_te_totals_match_cold_solves_whatever_came_before(fig1a):
    # each instance's stored bases carry history from one evaluation to the
    # next; a fresh copy of the instance per call solves every LP cold
    line = InstanceFamily("te-line", count=4, size_range=(2, 6),
                          capacity_range=(10.0, 60.0), seed=12)
    rng = np.random.default_rng(4417)
    cases = [(fig1a.instance, 120)]
    cases += [(sc.instance, 25) for sc in generate_instances(line)]
    checked = 0
    for inst, count in cases:
        demands = _te_demand_vectors(inst, rng, count)
        fresh = lambda: type(inst)(inst.nodes, inst.links, inst.demands, inst.threshold)
        cold = [(run_dp(fresh(), d).total, optimal_te(fresh(), d).total)
                for d in demands]
        for order in (range(count), reversed(range(count))):
            warm_inst = fresh()
            with counting() as work:
                for i in order:
                    dp = run_dp(warm_inst, demands[i])
                    opt = optimal_te(warm_inst, demands[i])
                    assert dp.total == pytest.approx(cold[i][0], abs=1e-9)
                    assert opt.total == pytest.approx(cold[i][1], abs=1e-9)
                    assert dp.total <= opt.total + 1e-9
            assert work.lp_warm + work.lp_cold == 2 * count and work.lp_warm > 0
        checked += count
    assert checked >= 200


def test_te_instance_keeps_the_max_flows_of_the_last_pinned_sets(fig1a, monkeypatch):
    import xplain.heuristics.te as te

    monkeypatch.setattr(te, "MAX_PINNED_SETS", 3)
    inst = fig1a.instance
    fresh = lambda: type(inst)(inst.nodes, inst.links, inst.demands, inst.threshold)
    warm_inst, used = fresh(), []
    for d in _te_demand_vectors(inst, np.random.default_rng(9), 60):
        key = frozenset(k for k, rate in enumerate(d) if rate <= inst.threshold)
        assert run_dp(warm_inst, d).total == pytest.approx(run_dp(fresh(), d).total, abs=1e-9)
        used = [k for k in used if k != key] + [key]
        assert list(warm_inst._max_flow_lps) == used[-3:]
    assert len(used) > 3


def _fresh(inst):
    """A copy of a TE instance with no stored max-flow LPs."""
    return type(inst)(inst.nodes, inst.links, inst.demands, inst.threshold)


def _bits(values):
    return [float(v).hex() for v in values]


def _stack_matches_rows(make_fn, X):
    """make_fn()(X) against make_fn()(x) row by row, each on its own fresh function.

    The gaps must agree bit for bit, and so must the solver work.
    """
    rows_fn, stack_fn = make_fn(), make_fn()
    with counting() as row_work:
        rows = [rows_fn(x) for x in X]
    with counting() as stack_work:
        stack = stack_fn(X)
    assert isinstance(stack, np.ndarray) and stack.shape == (len(X),)
    assert _bits(stack) == _bits(rows)
    assert stack_work == row_work
    return stack_work


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_te_gap_of_a_stack_is_the_gaps_of_its_rows(mode):
    # every te-line instance the benchmark's generalize run probes, a third
    # of each stack on degenerate values
    line = InstanceFamily("te-line", count=10, size_range=(2, 6), seed=fold(7, "generalize", "family"))
    rng = np.random.default_rng(2024)
    for sc in generate_instances(line):
        X = np.array(_te_demand_vectors(sc.instance, rng, 60))
        work = _stack_matches_rows(lambda: dp_gap_fn(_fresh(sc.instance), mode), X)
        assert work.lp_warm > 0 and work.lp_cold > 0


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_fig1a_gap_of_a_stack_crosses_the_pinned_set_bound(fig1a, mode):
    # demands around the threshold pin a different set on most rows: the
    # stack uses more pinned sets than an instance keeps, so LPs are
    # evicted and built again, and cold-solved, inside the one stack, which
    # is also routed in more than one piece
    import xplain.heuristics.te as te

    inst = fig1a.instance
    X = np.random.default_rng(77).uniform(0.0, 2.0 * inst.threshold, size=(300, 8))
    assert len(X) > te.ROUTE_ROWS
    X[::7, 2] = inst.threshold
    assert len({tuple(row <= inst.threshold) for row in X}) > 2 * te.MAX_PINNED_SETS
    work = _stack_matches_rows(lambda: dp_gap_fn(_fresh(inst), mode), X)
    assert work.lp_cold > te.MAX_PINNED_SETS and work.lp_warm > 0


def test_ff4_gap_of_a_stack_is_the_gaps_of_its_rows():
    sc = builtin("ff4")
    lo, hi = np.array(sc.bounds).T
    X = lo + np.random.default_rng(5).random((40, 4)) * (hi - lo)
    X[::5] = [s[0] for s in sc.instance.sizes]
    _stack_matches_rows(lambda: ff_gap_fn(sc.instance), X)


def test_te_gap_checks_every_row_before_it_routes_any(fig1a):
    inst = _fresh(fig1a.instance)
    fn = dp_gap_fn(inst)
    good = np.random.default_rng(3).uniform(0.0, 100.0, size=(4, 8))
    fn(good)
    kept = {key: (mf.lp, list(mf.lp._order)) for key, mf in inst._max_flow_lps.items()}
    bad_rows = [np.full(7, 10.0), np.r_[good[0, :7], np.nan], np.r_[good[0, :7], np.inf],
                np.r_[good[0, :7], -1.0]]
    with counting() as work:
        for bad in bad_rows:
            with pytest.raises(ValueError) as alone:
                run_dp(fig1a.instance, bad)
            with pytest.raises(ValueError) as stacked:
                fn(np.vstack([good[:, :len(bad)], bad]))
            assert str(stacked.value) == str(alone.value)
        assert fn(np.zeros((0, 8))).shape == (0,)
    assert work == type(work)()  # nothing counted
    assert {key: (mf.lp, list(mf.lp._order)) for key, mf in inst._max_flow_lps.items()} == kept


def test_row_wise_pinning_and_totals_match_the_loop_reference(fig1a):
    # the one-vector loops that pinning and TeAllocation.total were before
    # they ran on stacks: the same float operations in the same order
    from xplain.heuristics.te import _pin, _totals

    def pin_loop(inst, d):
        lay = inst.flow_layout
        residual = lay.capacities.tolist()
        flows = [[0.0] * len(dem.paths) for dem in inst.demands]
        for k, rate in enumerate(d.tolist()):
            if rate > inst.threshold:
                continue
            hops = lay.shortest_links[k]
            rate = min(rate, min(residual[i] for i in hops))
            flows[k][lay.shortest_index[k]] = rate
            for i in hops:
                residual[i] -= rate
        return [x for row in flows for x in row], residual

    line = InstanceFamily("te-line", count=4, size_range=(2, 6), seed=3)
    rng = np.random.default_rng(31)
    for inst in [fig1a.instance, *(sc.instance for sc in generate_instances(line))]:
        D = np.array(_te_demand_vectors(inst, rng, 40))
        flows, residual, pinned = _pin(inst, D)
        assert np.array_equal(pinned, D <= inst.threshold)
        for d, f, r in zip(D, flows, residual):
            ref_flows, ref_residual = pin_loop(inst, d)
            assert _bits(f) == _bits(ref_flows) and _bits(r) == _bits(ref_residual)
        F = rng.uniform(0.0, 100.0, size=(40, len(inst.flow_layout.variables)))
        F[F < 30.0] = 0.0
        per_demand = [[[row[j] for j in cols] for cols in inst.flow_layout.demand_columns]
                      for row in F.tolist()]
        padded = np.hstack([F, np.zeros((40, 1))])
        assert _bits(_totals(inst, padded)) == _bits(
            [sum(sum(flows) for flows in row) for row in per_demand])


def test_te_instance_rejects_a_link_listed_twice():
    with pytest.raises(ValueError, match="twice"):
        make_instance(["a", "b"], [("a", "b", 5.0), ("a", "b", 7.0)], [("a", "b")], 1.0)


# --- first-fit --------------------------------------------------------------

def test_ff_four_balls_three_bins():
    sc = builtin("ff4")
    alloc = run_ff(sc.instance)
    assert alloc.bins_used == 3
    assert alloc.assignment == (0, 0, 1, 2)


def test_ff_seventeen_balls():
    alloc = run_ff(builtin("fig3_ff17").instance)
    assert alloc.bins_used == 9


def test_ff_empty():
    alloc = run_ff(VbpInstance(()))
    assert alloc.bins_used == 0
    assert alloc.assignment == ()


def test_ff_unplaceable_with_fixed_bins():
    inst = VbpInstance((0.6, 0.6, 0.6), bins=((1.0,), (1.0,)))
    with pytest.raises(Unplaceable) as err:
        run_ff(inst)
    assert err.value.ball == 2


def test_ff_trace_invariants():
    # replay the packing: each ball's bin had room for it, no earlier bin
    # did, and a bin is opened only as the next one
    sc = builtin("fig3_ff17")
    inst = sc.instance
    alloc = run_ff(inst)
    cap = inst.bin_capacity
    loads = []
    for i, size in enumerate(inst.sizes):
        j = alloc.assignment[i]
        assert j <= len(loads)
        if j == len(loads):
            loads.append([0.0] * inst.dim)

        def room(b):
            return [cap[d] - size[d] - loads[b][d] for d in range(inst.dim)]

        assert all(v >= 0 for v in room(j))
        for earlier in range(j):
            assert not all(v >= 0 for v in room(earlier))
        for d in range(inst.dim):
            loads[j][d] += size[d]
    assert alloc.bins_used == len(loads)
    assert alloc.loads == tuple(tuple(row) for row in loads)


def test_ff_multidimensional_fit_requires_all_axes():
    inst = VbpInstance(((0.5, 0.9), (0.5, 0.2)), bin_capacity=(1.0, 1.0))
    alloc = run_ff(inst)
    # second ball fits axis 0 of bin 0 but not axis 1
    assert alloc.assignment == (0, 1)


def test_ff_decreasing_order_is_no_worse_here():
    sizes = builtin("fig3_ff17").instance.sizes
    ordered = tuple(sorted(sizes, reverse=True))
    alloc = run_ff(VbpInstance(ordered))
    assert alloc.bins_used <= 9


# --- exact packing ----------------------------------------------------------

def test_optimal_vbp_four_balls():
    sc = builtin("ff4")
    alloc = optimal_vbp(sc.instance)
    assert alloc.bins_used == 2
    for load in alloc.loads:
        assert all(v <= 1.0 + 1e-9 for v in load)


def test_optimal_vbp_empty():
    assert optimal_vbp(VbpInstance(())).bins_used == 0


def test_optimal_vbp_respects_volume_bound():
    rng = np.random.default_rng(555)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        inst = VbpInstance(tuple(float(v) for v in rng.uniform(0.05, 0.95, n)))
        opt = optimal_vbp(inst)
        total = sum(s[0] for s in inst.sizes)
        assert opt.bins_used >= math.ceil(total - 1e-9)
        ff_bins = run_ff(inst).bins_used
        assert opt.bins_used <= ff_bins


def test_optimal_vbp_assignment_is_consistent():
    # five 0.4 balls: two per unit bin, so three bins
    inst = VbpInstance((0.4, 0.4, 0.4, 0.4, 0.4))
    alloc = optimal_vbp(inst)
    assert alloc.bins_used == 3
    counts = {}
    for j in alloc.assignment:
        counts[j] = counts.get(j, 0) + 1
    assert len(counts) == 3
    for j, load in enumerate(alloc.loads):
        assert load[0] == pytest.approx(0.4 * counts.get(j, 0))
        assert load[0] <= 1.0 + 1e-9


def test_bin_packing_oracle_known_values():
    assert bin_packing_oracle([]) == 0
    assert bin_packing_oracle([0.4] * 5) == 3
    assert bin_packing_oracle([0.5] * 4) == 2
    assert bin_packing_oracle([0.6] * 3) == 3
    assert bin_packing_oracle([0.7, 0.6, 0.3, 0.4]) == 2


def _check_packing(inst, alloc):
    assert len(alloc.assignment) == inst.n_balls
    assert alloc.bins_used == len(set(alloc.assignment))
    loads = {}
    for i, j in enumerate(alloc.assignment):
        loads[j] = loads.get(j, 0.0) + inst.sizes[i][0]
    assert all(v <= 1.0 + 1e-9 for v in loads.values())


def test_optimal_vbp_matches_subset_dp_oracle():
    # seeded uniform points of the [0, 1]^n box, four decimals as in fig3_ff17
    rng = np.random.default_rng(20241015)
    for n in range(4, 13):
        for _ in range(10):
            sizes = [float(v) for v in rng.random(n).round(4)]
            inst = VbpInstance(tuple(sizes))
            alloc = optimal_vbp(inst)
            assert alloc.bins_used == bin_packing_oracle(sizes), sizes
            _check_packing(inst, alloc)


ROADMAP_POINT = (0.637, 0.2698, 0.041, 0.0165, 0.8133, 0.9128, 0.6066, 0.7295,
                 0.5436, 0.9351, 0.8159, 0.0027, 0.8574, 0.0336, 0.7297, 0.1757,
                 0.8632)


# visited by the fig3_ff17 pattern search at seed 7; phase 1 of its root LP
# once pivoted on rounding noise (~1e-10) until the iteration limit
NOISE_PIVOT_POINT = (
    0.6046941412131923, 0.1552811641637678, 0.6441092264060563,
    0.34515189763894294, 0.4746004827170889, 0.4678080355738603,
    0.5853420651287506, 0.24125790347538956, 0.36049121027013176,
    0.2907332563138447, 0.5357595420369766, 0.31426004233688465,
    0.32440234110580723, 0.8268302750081956, 0.6057977332854801,
    0.5011699534899607, 0.5805281825713472)


@pytest.mark.parametrize("point, ff, opt", [
    ("nominal", 9, 8),
    (ROADMAP_POINT, 11, 11),  # volume bound 9: FF is optimal only by search
    (NOISE_PIVOT_POINT, 10, 9),
], ids=["nominal", "roadmap_point", "noise_pivot_point"])
def test_optimal_vbp_seventeen_balls(point, ff, opt):
    sizes = ([s[0] for s in builtin("fig3_ff17").instance.sizes]
             if point == "nominal" else list(point))
    inst = VbpInstance(tuple(sizes))
    alloc = optimal_vbp(inst)
    assert run_ff(inst).bins_used == ff
    assert alloc.bins_used == opt == bin_packing_oracle(sizes)
    _check_packing(inst, alloc)


def test_optimal_vbp_nominal_ff17_pivot_count():
    # a deterministic work count, not a timing gate
    with counting() as work:
        optimal_vbp(builtin("fig3_ff17").instance)
    assert 0 < work.pivots <= 10_000
    assert work.nodes > 0


def test_optimal_vbp_returns_first_fit_when_it_is_optimal():
    # FF meets the volume bound: no MILP at all
    inst = VbpInstance((0.5, 0.5, 0.3))
    with counting() as work:
        assert optimal_vbp(inst) == run_ff(inst)
    assert work.nodes == 0
    # FF uses 3 bins, the volume bound is 2, and no 2-bin packing exists
    inst = VbpInstance((0.6, 0.6, 0.6))
    with counting() as work:
        assert optimal_vbp(inst) == run_ff(inst)
    assert work.nodes > 0


def test_optimal_vbp_names_an_unexpected_solver_status(monkeypatch):
    import xplain.solver

    monkeypatch.setattr(xplain.solver, "solve_mip",
                        lambda prog, **kwargs: Solution(status="unbounded"))
    with pytest.raises(SolverError, match="unbounded"):
        optimal_vbp(builtin("ff4").instance)


# --- bound-first packing ----------------------------------------------------

def _found_class(rng):
    # uniform in [0.2, 0.6], n = 12-15, first-fit one bin above the volume bound
    while True:
        sizes = [float(v) for v in rng.uniform(0.2, 0.6, int(rng.integers(12, 16))).round(4)]
        if run_ff(VbpInstance(tuple(sizes))).bins_used == math.ceil(sum(sizes) - 1e-9) + 1:
            return sizes


def _grid(rng):
    return [float(v) / 20 for v in rng.integers(1, 21, int(rng.integers(4, 15)))]


def _uniform(rng):
    return [float(v) for v in rng.random(int(rng.integers(4, 15))).round(4)]


SIZE_CLASSES = {"found": _found_class, "grid": _grid, "uniform": _uniform}


@pytest.mark.parametrize("kind", list(SIZE_CLASSES))
def test_min_bins_matches_subset_dp_oracle(kind):
    rng = np.random.default_rng([20261018, list(SIZE_CLASSES).index(kind)])
    with counting() as work:
        for _ in range(30):
            sizes = SIZE_CLASSES[kind](rng)
            inst = VbpInstance(tuple(sizes))
            alloc = min_bins(inst)
            assert alloc.bins_used == bin_packing_oracle(sizes), sizes
            _check_packing(inst, alloc)
    settled = (work.vbp_bound, work.vbp_ffd, work.vbp_gg, work.vbp_search, work.vbp_milp)
    assert sum(settled) == 30
    assert work.vbp_milp == 0 and work.nodes == 0


def test_l2_bound_hand_worked_values():
    # three balls above 0.65 each need a bin no 0.35 ball can share: 3 + 1
    assert l2_bound([0.7, 0.7, 0.7, 0.35, 0.35], 1.0) == 4
    assert l2_bound([0.6, 0.6, 0.6], 1.0) == 3
    # threshold 0.4: two 0.6 bins keep 0.8 free for 1.2 of small balls
    assert l2_bound([0.6, 0.6, 0.4, 0.4, 0.4], 1.0) == 3
    assert l2_bound([0.5] * 4, 1.0) == 2
    # integer sizes, capacity 100: L2 is the volume bound, the LP bound is OPT
    sizes = [99, 94, 79, 64, 50, 46, 43, 37, 32, 19, 18, 7, 6, 3]
    assert l2_bound(sizes, 100) == 6
    assert gilmore_gomory_bound(sizes, 100) == 7 == bin_packing_oracle(sizes, 100)


def test_l2_and_gilmore_gomory_never_exceed_the_optimum():
    rng = np.random.default_rng(61)
    for kind in SIZE_CLASSES:
        for _ in range(15):
            sizes = SIZE_CLASSES[kind](rng)
            opt = bin_packing_oracle(sizes)
            assert l2_bound(sizes, 1.0) <= opt, sizes
            assert gilmore_gomory_bound(sizes, 1.0) <= opt, sizes


@pytest.mark.parametrize("bin_sizes", [(0.8, 0.05, 0.05, 0.05, 0.05),
                                       (0.4, 0.2, 0.15, 0.15, 0.1)])
def test_min_bins_fits_float_sums_just_above_a_bin(bin_sizes):
    # each group sums to 1.0000000000000002 in floats when added largest
    # first; first-fit's exact test opens a fourth bin, the tolerant one not
    sizes = list(bin_sizes) * 3
    inst = VbpInstance(tuple(sizes))
    assert run_ff(inst).bins_used == 4
    assert l2_bound(sizes, 1.0) == gilmore_gomory_bound(sizes, 1.0) == 3
    with counting() as work:
        alloc = min_bins(inst)
    assert alloc.bins_used == 3 == bin_packing_oracle(sizes)
    _check_packing(inst, alloc)
    assert work.vbp_milp == 0


@pytest.mark.parametrize("seed, i, ff, opt, l2", [
    (3, 1, 10, 10, 9),
    (3, 11, 10, 10, 9),
    (1, 2, 9, 9, 8),
    (4, 22, 9, 9, 8),
])
def test_min_bins_settles_fig3_ff17_draws_without_milp(seed, i, ff, opt, l2):
    # points the vbp-ff17 benchmark draws from the fig3_ff17 box
    bounds = np.array(builtin("fig3_ff17").bounds)
    u = np.random.default_rng([seed, i]).random(len(bounds))
    sizes = (bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])).tolist()
    inst = VbpInstance(tuple(sizes))
    assert run_ff(inst).bins_used == ff
    assert l2_bound(sizes, 1.0) == l2
    with counting() as work:
        alloc = min_bins(inst)
    assert alloc.bins_used == opt == bin_packing_oracle(sizes)
    _check_packing(inst, alloc)
    assert work.vbp_milp == 0 and work.nodes == 0


# FF and FFD use 6 bins, L2 and the Gilmore-Gomory bound say 5: only the
# search finds a 5-bin packing
SEARCH_POINT = (0.2011, 0.392, 0.2735, 0.4638, 0.3222, 0.2596, 0.2335,
                0.5345, 0.3877, 0.4074, 0.5369, 0.4269, 0.3067)


def test_min_bins_falls_back_to_the_milp_when_the_search_gives_up(monkeypatch):
    import xplain.heuristics.vbp as vbp

    inst = VbpInstance(SEARCH_POINT)
    with counting() as work:
        assert min_bins(inst).bins_used == 5
    assert work.vbp_search == 1 and work.nodes == 0
    monkeypatch.setattr(vbp, "SEARCH_NODE_LIMIT", 0)
    with counting() as work:
        alloc = min_bins(inst)
    assert alloc.bins_used == 5 == bin_packing_oracle(list(SEARCH_POINT))
    _check_packing(inst, alloc)
    assert work.vbp_milp == 1 and work.nodes > 0


def test_min_bins_hands_other_shapes_to_the_milp():
    two_d = VbpInstance(((0.5, 0.9), (0.5, 0.2), (0.4, 0.1)), bin_capacity=(1.0, 1.0))
    fixed = VbpInstance((0.5, 0.5, 0.3), bins=(1.0, 1.0))
    for inst in (two_d, fixed, VbpInstance(())):
        with counting() as work:
            assert min_bins(inst) == optimal_vbp(inst)
        assert work.vbp_milp == 1


def test_sized_instance_pools_the_one_bin_type():
    fixed = VbpInstance((0.5, 0.5), bins=(0.8, 0.8))
    sized = sized_instance(fixed, np.array([0.3, 0.3, 0.3]))
    assert sized.unbounded and sized.bin_capacity == (0.8,)
    assert sized.sizes == ((0.3,), (0.3,), (0.3,))
    with pytest.raises(ValueError, match="one bin type"):
        sized_instance(VbpInstance((0.5,), bins=(0.8, 1.0)), [0.3])


# --- gap --------------------------------------------------------------------

def test_gap_dp_paper_numbers(fig1a):
    d = paper_demands(fig1a)
    assert dp_gap_fn(fig1a.instance)(d) == pytest.approx(100.0)
    assert dp_gap_fn(fig1a.instance, "relative")(d) == pytest.approx(0.4)


def test_gap_identical_functions_zero():
    fn = lambda x: float(np.sum(x))
    assert gap(np.ones(3), fn, fn) == pytest.approx(0.0)
    assert gap(np.ones(3), fn, fn, mode="relative") == pytest.approx(0.0)


def test_gap_ff_four_balls():
    sc = builtin("ff4")
    sizes = [s[0] for s in sc.instance.sizes]
    assert ff_gap_fn(sc.instance)(sizes) == pytest.approx(1.0)
    assert ff_gap_fn(sc.instance, "relative")(sizes) == pytest.approx(0.5)


def test_gap_orientation_by_sense():
    heur = lambda x: 3.0
    bench = lambda x: 5.0
    assert gap(None, heur, bench, sense="max") == pytest.approx(2.0)
    assert gap(None, bench, heur, sense="min") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        gap(None, heur, bench, mode="typo")
    with pytest.raises(ValueError):
        gap(None, heur, bench, sense="typo")


# --- network views ----------------------------------------------------------

def test_te_network_matches_figure_layout(fig1a):
    net = to_flow_network(fig1a.instance, "opt_te")
    assert validate(net) == []
    roles = {}
    for nid, beh in net.nodes.items():
        role = net.node_metadata[nid]["role"]
        roles.setdefault(role, []).append(beh)
    assert len(roles["demand"]) == 8
    assert len(roles["path"]) == 9
    assert len(roles["link"]) == 5
    assert len(roles["unmet"]) == len(roles["met"]) == 1
    assert all(isinstance(b, Source) for b in roles["demand"])
    assert all(isinstance(b, Sink) for b in roles["unmet"] + roles["met"])
    # capacity sits on the link -> met edge
    cap = net.edge_by_id("met:1->2").capacity
    assert cap == 100.0
    assert net.edge_by_id("met:1->4").capacity == 50.0


def test_te_network_routes_250(fig1a):
    net = to_flow_network(fig1a.instance, "opt_te")
    d = paper_demands(fig1a)
    inputs = {demand_node(dem): float(d[k])
              for k, dem in enumerate(fig1a.instance.demands)}
    unmet, asg = evaluate(net, inputs, "unmet")
    assert float(d.sum()) - unmet == pytest.approx(250.0)
    assert assignment_violations(net, asg) == []


def test_te_network_zero_demands_is_empty_shell():
    inst = make_instance(["a", "b"], [("a", "b", 1.0)], [], 0.0)
    net = to_flow_network(inst, "dp")
    assert validate(net) == []
    assert not [n for n, m in net.node_metadata.items() if m["role"] == "demand"]


def test_vbp_network_matches_figure_layout():
    sc = builtin("ff4")
    net = to_flow_network(sc.instance, "ff")
    assert validate(net) == []
    balls = [b for b in net.nodes.values()
             if isinstance(b, Source) and isinstance(b.inner, Pick)]
    bins = [nid for nid, m in net.node_metadata.items() if m["role"] == "bin"]
    assert len(balls) == 4
    assert len(bins) == 3
    assert isinstance(net.nodes["occupancy"], Sink)
    assert net.edge_by_id("occupied:0").capacity == 1.0


def test_vbp_network_needs_bin_count_when_unbounded():
    sc = builtin("fig3_ff17")
    with pytest.raises(ValueError):
        to_flow_network(sc.instance, "ff")
    net = to_flow_network(sc.instance, "ff", n_bins=9)
    assert validate(net) == []


def test_unknown_model_rejected(fig1a):
    with pytest.raises(ValueError):
        to_flow_network(fig1a.instance, "simulated_annealing")


# --- projection -------------------------------------------------------------

def test_project_dp_puts_50_on_short_path(fig1a):
    inst = fig1a.instance
    net = to_flow_network(inst, "dp")
    d = paper_demands(fig1a)
    flows = project_allocation(run_dp(inst, d), net, inst)
    assert flows["assign:1->3:1-2-3"] == pytest.approx(50.0)
    assert flows["traverse:1-2-3:1->2"] == pytest.approx(50.0)
    assert flows["traverse:1-2-3:2->3"] == pytest.approx(50.0)
    assert flows["assign:1->3:1-4-5-3"] == pytest.approx(0.0)
    assert assignment_violations(net, flows) == []


def test_project_opt_uses_detour(fig1a):
    inst = fig1a.instance
    net = to_flow_network(inst, "opt_te")
    flows = project_allocation(optimal_te(inst, paper_demands(fig1a)), net, inst)
    assert flows["assign:1->3:1-4-5-3"] == pytest.approx(50.0)
    assert flows["unmet:1->3"] == pytest.approx(0.0)
    assert assignment_violations(net, flows) == []


def test_project_empty_allocation_is_all_zero(fig1a):
    inst = fig1a.instance
    net = to_flow_network(inst, "dp")
    flows = project_allocation(run_dp(inst, np.zeros(8)), net, inst)
    assert set(flows) == {e.id for e in net.edges}
    assert all(v == 0.0 for v in flows.values())


def test_project_ff_trace():
    sc = builtin("ff4")
    net = to_flow_network(sc.instance, "ff")
    alloc = run_ff(sc.instance)
    flows = project_allocation(alloc, net, sc.instance)
    positive = sorted(k for k, v in flows.items()
                      if v > 1e-9 and k.startswith("place"))
    assert positive == ["place:0:0", "place:1:0", "place:2:1", "place:3:2"]
    assert assignment_violations(net, flows) == []


# --- path generation --------------------------------------------------------

def test_k_shortest_paths_order_and_truncation(fig1a):
    inst = fig1a.instance
    paths = k_shortest_paths(inst.nodes, inst.links, "1", "3", k=4)
    assert paths == [("1", "2", "3"), ("1", "4", "5", "3")]
    assert k_shortest_paths(inst.nodes, inst.links, "1", "3", k=1) == [("1", "2", "3")]
    assert k_shortest_paths(inst.nodes, inst.links, "3", "1", k=4) == []


def test_k_shortest_paths_lexicographic_tie_break():
    nodes = ["s", "a", "b", "t"]
    links = [("s", "a", 1.0), ("s", "b", 1.0), ("a", "t", 1.0), ("b", "t", 1.0)]
    paths = k_shortest_paths(nodes, [  # two 3-node paths tie on hops
        __import__("xplain.heuristics", fromlist=["Link"]).Link(*l) for l in links
    ], "s", "t", k=4)
    assert paths == [("s", "a", "t"), ("s", "b", "t")]


# --- scenarios --------------------------------------------------------------

def test_builtin_names_and_bounds():
    sc = builtin("fig1a_dp")
    assert sc.kind == "te" and sc.dimension == 8
    assert all(b == (0.0, 100.0) for b in sc.bounds)
    assert builtin("ff4").kind == "vbp"
    with pytest.raises(KeyError):
        builtin("nope")


def test_scenario_round_trip(tmp_path, fig1a):
    path = tmp_path / "sc.json"
    save_scenario(fig1a, path)
    back = load_scenario(path)
    assert back.kind == fig1a.kind
    assert back.bounds == fig1a.bounds
    assert back.instance == fig1a.instance
    vb = builtin("fig3_ff17")
    save_scenario(vb, path)
    back = load_scenario(path)
    assert back.instance == vb.instance
    assert back.instance.unbounded
