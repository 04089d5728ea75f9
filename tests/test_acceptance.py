"""The thirteen release gates, one printed verdict line per criterion.

Each test prints [PASS]/[FAIL] with its measured numbers before
asserting, so a full run always shows the complete scoreboard.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import lp_oracle, wilcoxon_oracle

from xplain.analyzer import InputSpace, membership
from xplain.bridge import Milp, encode_milp, milp_to_program
from xplain.explain import score_edges
from xplain.flow import evaluate
from xplain.generalize import (
    InstanceFamily,
    Predicate,
    evaluate_predicate,
    generate_instances,
)
from xplain.heuristics import (
    builtin,
    optimal_te,
    optimal_vbp,
    run_dp,
    run_ff,
)
from xplain.rng import substream
from xplain.sampling import sample_region
from xplain.solver import EQ, LE, solve_mip
from xplain.solver.simplex import solve_lp_arrays
from xplain.stats import dkw_samples, wilcoxon_signed_rank
from xplain.subspaces import (
    Limits,
    SearchParams,
    StatsParams,
    Subspace,
    SubspaceParams,
    extract_path_predicates,
    fit_regression_tree,
    generate_subspaces,
    save_subspaces,
)

FIG1A_DEMANDS = [100.0, 50.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0]


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, detail


def test_criterion_01_fig1a_numbers(capsys):
    sc = builtin("fig1a_dp")
    t0 = time.perf_counter()
    dp = run_dp(sc.instance, FIG1A_DEMANDS).total
    opt = optimal_te(sc.instance, FIG1A_DEMANDS).total
    gap_abs = sc.gap_fn("absolute")(FIG1A_DEMANDS)
    gap_rel = sc.gap_fn("relative")(FIG1A_DEMANDS)
    elapsed = time.perf_counter() - t0
    ok = (abs(dp - 150.0) <= 1e-9 and abs(opt - 250.0) <= 1e-9
          and abs(gap_abs - 100.0) <= 1e-9 and abs(gap_rel - 0.40) <= 1e-9
          and elapsed < 1.0)
    report(capsys, 1, ok,
           f"DP={dp} OPT={opt} gap={gap_abs} rel={gap_rel} ({elapsed:.3f}s)")


def test_criterion_02_ff_four_balls(capsys):
    sc = builtin("ff4")
    t0 = time.perf_counter()
    ff = run_ff(sc.instance).bins_used
    opt = optimal_vbp(sc.instance).bins_used
    elapsed = time.perf_counter() - t0
    ok = ff == 3 and opt == 2 and elapsed < 1.0
    report(capsys, 2, ok, f"FF={ff} OPT={opt} ({elapsed:.3f}s)")


def test_criterion_03_ff_seventeen_balls(capsys):
    sc = builtin("fig3_ff17")
    t0 = time.perf_counter()
    ff = run_ff(sc.instance).bins_used
    opt = optimal_vbp(sc.instance, node_limit=10 ** 6).bins_used
    elapsed = time.perf_counter() - t0
    ok = ff == 9 and opt == 8 and elapsed < 60.0
    report(capsys, 3, ok, f"FF={ff} OPT={opt} ({elapsed:.2f}s)")


def _random_milp(rng):
    nx = int(rng.integers(0, 3))
    ny = int(rng.integers(0, 3))
    if nx + ny == 0:
        nx = 1
    m = int(rng.integers(1, 5))
    return Milp(
        rng.integers(-5, 6, size=nx).astype(float),
        rng.integers(-5, 6, size=ny).astype(float),
        rng.integers(-5, 6, size=(m, nx)).astype(float),
        rng.integers(-5, 6, size=(m, ny)).astype(float),
        rng.integers(-3, 9, size=m).astype(float),
        [EQ if rng.random() < 0.15 else LE for _ in range(m)],
    )


def test_criterion_04_encoder_equivalence(capsys):
    rng = np.random.default_rng(20250814)
    t0 = time.perf_counter()
    agreed = total = 0
    worst = 0.0
    while total < 100:
        milp = _random_milp(rng)
        raw = solve_mip(milp_to_program(milp))
        if raw.status != "optimal":
            continue
        total += 1
        shift = 0.0 if raw.objective >= 0 else float(np.ceil(-raw.objective) + 1)
        net, _ = encode_milp(milp, objective_shift=shift)
        sink, _ = evaluate(net, {}, "objective")
        delta = abs((sink - shift) - raw.objective)
        worst = max(worst, delta)
        agreed += delta <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = agreed == 100 and elapsed < 120.0
    report(capsys, 4, ok,
           f"{agreed}/100 MILPs agree, worst |delta|={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_simplex_vs_vertex_oracle(capsys):
    rng = np.random.default_rng(20250814)
    checked = agreed = 0
    worst = 0.0
    while checked < 200:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(-3, 7, size=m).astype(float)
        senses = [EQ if rng.random() < 0.2 else LE for _ in range(m)]
        c = rng.integers(-4, 5, size=n).astype(float)
        sense = "max" if rng.random() < 0.7 else "min"
        want_status, want_val = lp_oracle(A, senses, b, c, sense)
        status, val, _ = solve_lp_arrays(A, senses, b, c, sense)
        good = status == want_status
        if good and status == "optimal":
            worst = max(worst, abs(val - want_val))
            good = abs(val - want_val) <= 1e-7
        agreed += good
        checked += 1
    ok = agreed == 200
    report(capsys, 5, ok, f"{agreed}/200 LPs agree, worst |delta|={worst:.2e}")


def _interval_of(sub):
    lo, hi = -np.inf, np.inf
    for rows, rhs in ((sub.A, sub.C), (sub.T, sub.V)):
        for row, v in zip(rows, rhs):
            (a,) = row
            if a > 0:
                hi = min(hi, v / a)
            elif a < 0:
                lo = max(lo, v / a)
    return lo, hi


def test_criterion_06_step_subspace_recovery(capsys):
    space = InputSpace(((0.0, 1.0),))
    step = lambda x: 25.0 if 0.4 <= x[0] <= 0.6 else 0.0
    worst_cov, worst_len = 1.0, 0.0
    ok = True
    for seed in range(5):
        subs = generate_subspaces(
            space, step,
            search=SearchParams(budget=300, min_gap=0.5),
            limits=Limits(max_subspaces=1, max_iterations=6),
            seed=seed)
        if not subs:
            ok = False
            break
        lo, hi = _interval_of(subs[0])
        overlap = max(0.0, min(hi, 0.6) - max(lo, 0.4))
        worst_cov = min(worst_cov, overlap / 0.2)
        worst_len = max(worst_len, hi - lo)
    ok = ok and worst_cov >= 0.9 and worst_len <= 0.2 * 1.1
    report(capsys, 6, ok,
           f"5 seeds: coverage >= {worst_cov:.3f}, length <= {worst_len:.4f} "
           f"(bounds: 0.9, 0.22)")


def test_criterion_07_tree_threshold_recovery(capsys):
    rng = np.random.default_rng(68)
    X = rng.random((2000, 4))
    bad = (X.sum(axis=1) >= 1.5) & (X[:, 1] <= 0.5)
    y = np.where(bad, 25.0, rng.uniform(0.0, 3.0, size=2000))
    tree = fit_regression_tree(list(zip(X, y)), max_depth=3, min_leaf=30)
    T, V = extract_path_predicates(tree, np.array([0.1, 0.4, 0.9, 0.9]))
    sum_thr = x1_thr = None
    for row, v in zip(np.asarray(T), np.asarray(V)):
        if np.allclose(row, [-1, -1, -1, -1]):
            sum_thr = -v
        elif np.allclose(row, [0, 1, 0, 0]):
            x1_thr = v
    ok = (sum_thr is not None and abs(sum_thr - 1.5) <= 0.05
          and x1_thr is not None and abs(x1_thr - 0.5) <= 0.05)
    report(capsys, 7, ok, f"sum row at {sum_thr}, x1 row at {x1_thr} "
                          f"(targets 1.5, 0.5, tol 0.05)")


def test_criterion_08_ff_pipeline_end_to_end(capsys):
    sc = builtin("ff4")
    space = sc.space()
    gap_fn = sc.gap_fn()
    t0 = time.perf_counter()
    # strict shells and a deeper tree: the bad set here is bounded by
    # pairwise-sum constraints that loose boxes overshoot
    subs = generate_subspaces(
        space, gap_fn,
        search=SearchParams(budget=2000, min_gap=1.0),
        growth=SubspaceParams(rho_min=0.85, max_depth=6, min_leaf=20,
                              n_shell=250),
        limits=Limits(max_subspaces=1, max_iterations=8),
        seed=20250814)
    elapsed = time.perf_counter() - t0
    if not subs:
        report(capsys, 8, False, "no subspace returned")
    sub = subs[0]
    fresh = sample_region(sub, space, 500,
                          substream(20250814, "acceptance", "fresh"))
    frac = float(np.mean([gap_fn(x) >= 1.0 for x in fresh]))
    ok = (sub.report is not None and sub.report.p < 0.05
          and frac >= 0.80
          and membership(sub.seed.x, sub)
          and elapsed < 600.0)
    report(capsys, 8, ok,
           f"1 subspace, p={sub.report.p:.2e}, bad fraction {frac:.3f} "
           f"of 500 fresh samples, seed inside ({elapsed:.1f}s)")


def test_criterion_09_explainer_signs_stable(capsys):
    sc = builtin("fig1a_dp")
    net = sc.network
    sub = Subspace.box([100, 40, 0, 0, 100, 0, 0, 0],
                       [100, 50, 0, 0, 100, 0, 0, 0], labels=sc.labels())
    detour = ("met:1->4", "met:4->5", "met:5->3")
    pinned = "assign:1->3:1-2-3"
    baseline = None
    ok = True
    for seed in range(5):
        hm = score_edges(net, sc.edge_flows, sub,
                         space=sc.space(), n_samples=3000, seed=seed)
        signs = {eid: np.sign(sc.mean) for eid, sc in hm.scores.items()}
        ok = ok and all(signs[e] > 0 for e in detour) and signs[pinned] < 0
        if baseline is None:
            baseline = signs
        ok = ok and signs == baseline
    report(capsys, 9, ok,
           f"N=3000, 5 seeds: 1-4-5-3 positive, {pinned} negative, "
           f"signs identical across seeds")


def test_criterion_10_wilcoxon_matches_enumeration(capsys):
    rng = np.random.default_rng(20250814)
    sides = ("greater", "less", "two-sided")
    trials = agreed = 0
    worst = 0.0
    while trials < 500:
        n = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            d = rng.integers(-5, 6, size=n).astype(float)
        else:
            d = np.round(rng.normal(0.0, 2.0, size=n), 1)
        if not d.any():
            continue
        side = sides[trials % 3]
        w, p, method = wilcoxon_signed_rank(d, alternative=side, method="exact")
        w_ref, p_ref = wilcoxon_oracle(d, alternative=side)
        worst = max(worst, abs(p - p_ref))
        agreed += (abs(w - w_ref) <= 1e-12 and abs(p - p_ref) <= 1e-12
                   and method == "exact")
        trials += 1
    _, p123, _ = wilcoxon_signed_rank([1.0, 2.0, 3.0], alternative="greater")
    ok = agreed == 500 and p123 == 0.125
    report(capsys, 10, ok,
           f"{agreed}/500 trials match, worst |delta p|={worst:.2e}, "
           f"p(1,2,3)={p123}")


def test_criterion_11_dkw_sample_count(capsys):
    n = dkw_samples(0.1, 0.05)
    report(capsys, 11, n == 185, f"dkw_samples(0.1, 0.05) = {n}")


def test_criterion_12_te_line_trend(capsys):
    fam = InstanceFamily("te-line", count=8, size_range=(2, 9),
                         capacity_range=(50.0, 50.0), seed=1)
    instances = generate_instances(fam)
    finding = evaluate_predicate(
        Predicate("increasing", "pinned_shortest_path_length", alpha=0.05),
        instances, seed=20250814)
    ok = finding.holds and finding.p < 0.05 and len(instances) >= 8
    report(capsys, 12, ok,
           f"{len(instances)} instances, tau={finding.tau:.3f}, "
           f"p={finding.p:.2e}, holds={finding.holds}")


def _cli(cmd, cfg, seed, out):
    proc = subprocess.run(
        [sys.executable, "-m", "xplain", cmd, "--config", str(cfg),
         "--seed", str(seed), "--out", str(out)],
        capture_output=True)
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def test_criterion_13_cli_byte_determinism(capsys, tmp_path):
    sc = builtin("ff4")
    sub_file = tmp_path / "box.json"
    save_subspaces(sub_file, [Subspace.box([0.0, 0.47, 0.49, 0.49],
                                           [0.43, 0.51, 0.53, 0.53],
                                           labels=sc.labels())])
    milp_file = tmp_path / "milp.json"
    milp_file.write_text(json.dumps({
        "sense": "max", "c_x": [3, 2], "c_y": [4],
        "A_x": [[1, 1], [2, 0]], "A_y": [[1], [0]],
        "b": [4, 3], "row_sense": ["<=", "<="]}))

    configs = {
        "run-heuristic": {"scenario": "fig1a_dp", "inputs": FIG1A_DEMANDS},
        "analyze": {"scenario": "ff4", "analyzer": {"budget": 200}},
        "subspaces": {"scenario": "ff4",
                      "analyzer": {"budget": 300, "min_gap": 1.0},
                      "subspaces": {"n_shell": 40, "max_subspaces": 1,
                                    "max_iterations": 2},
                      "stats": {"n_pairs": 60}},
        "explain": {"scenario": "ff4", "subspace_file": str(sub_file),
                    "explainer": {"n_samples": 60}},
        "generalize": {"family": {"kind": "te-line", "count": 5,
                                  "size_range": [2, 6]},
                       "predicate": {"kind": "increasing",
                                     "feature": "pinned_shortest_path_length"}},
        "encode-milp": {"milp": str(milp_file)},
    }
    stable = []
    ok = True
    for cmd, doc in configs.items():
        cfg = tmp_path / f"{cmd}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"out-{cmd}"
        out.mkdir()
        code1, stdout1, files1 = _cli(cmd, cfg, 20250814, out)
        code2, stdout2, files2 = _cli(cmd, cfg, 20250814, out)
        same = code1 == code2 and stdout1 == stdout2 and files1 == files2
        stable.append(f"{cmd}={'ok' if same else 'DIFFERS'}")
        ok = ok and same and code1 == 0
    report(capsys, 13, ok, ", ".join(stable))
