"""Trend-predicate tests: instance generation, probing, Kendall wiring."""

import json

import pytest

from xplain.generalize import (
    FEATURES,
    InstanceFamily,
    Predicate,
    TooFewInstances,
    ball_count,
    ball_size_sum,
    evaluate_predicate,
    generate_instances,
    min_path_capacity,
    pinned_shortest_path_length,
    register_feature,
    trend_to_json,
)
from xplain.heuristics import optimal_te, run_dp, run_ff


def line_family(count=5, lo=2, hi=6, seed=0):
    return InstanceFamily("te-line", count=count, size_range=(lo, hi),
                          capacity_range=(50.0, 50.0), seed=seed)


def test_te_line_lengths_increase():
    insts = generate_instances(line_family())
    lengths = [pinned_shortest_path_length(sc) for sc in insts]
    assert lengths == [2.0, 3.0, 4.0, 5.0, 6.0]
    for sc in insts:
        pinned = sc.instance.demands[0]
        chain, detour = pinned.paths
        assert pinned.shortest == chain
        assert len(detour) == len(chain) + 1


def test_te_line_corner_gap_is_length_times_threshold():
    sc = generate_instances(line_family())[1]  # L = 3
    corner = [hi for _, hi in sc.bounds]
    dp = run_dp(sc.instance, corner)
    opt = optimal_te(sc.instance, corner)
    assert opt.total - dp.total == pytest.approx(3 * sc.instance.threshold)


def test_generation_deterministic():
    def spread(seed):
        return InstanceFamily("te-line", count=5, size_range=(2, 6),
                              capacity_range=(10.0, 60.0), seed=seed)

    a = generate_instances(spread(9))
    b = generate_instances(spread(9))
    assert a == b
    c = generate_instances(spread(10))
    assert a != c


def test_vbp_random_instances_are_runnable():
    fam = InstanceFamily("vbp-random", count=5, size_range=(4, 8),
                         capacity_range=(1.0, 1.0), seed=2)
    insts = generate_instances(fam)
    assert [sc.instance.n_balls for sc in insts] == [4, 5, 6, 7, 8]
    for sc in insts:
        assert sc.kind == "vbp"
        alloc = run_ff(sc.instance)
        assert alloc.bins_used >= 1
        assert ball_size_sum(sc) == pytest.approx(sc.instance.n_balls * 1.0)


def test_te_random_instances_validate():
    fam = InstanceFamily("te-random", count=5, size_range=(4, 8),
                         capacity_range=(10.0, 20.0), seed=5)
    insts = generate_instances(fam)
    for sc in insts:
        assert sc.kind == "te"
        assert len(sc.instance.demands) >= 1
        for d in sc.instance.demands:
            assert d.paths and d.shortest == d.paths[0]
        assert min_path_capacity(sc) >= 10.0


def test_features_guard_scenario_kind():
    te = generate_instances(line_family(count=2, lo=2, hi=3))[0]
    vbp = generate_instances(InstanceFamily("vbp-random", count=2,
                                            size_range=(3, 4), seed=0,
                                            capacity_range=(1.0, 1.0)))[0]
    with pytest.raises(ValueError):
        ball_count(te)
    with pytest.raises(ValueError):
        pinned_shortest_path_length(vbp)
    assert ball_count(vbp) == 3.0
    assert min_path_capacity(te) == 50.0


def test_family_validation():
    with pytest.raises(ValueError):
        InstanceFamily("te-grid", count=5, size_range=(2, 4))
    with pytest.raises(ValueError):
        InstanceFamily("te-line", count=1, size_range=(2, 4))
    with pytest.raises(ValueError):
        InstanceFamily("te-line", count=5, size_range=(4, 2))
    with pytest.raises(ValueError):
        InstanceFamily("te-line", count=5, size_range=(2, 4),
                       capacity_range=(0.0, 0.0))
    fam = InstanceFamily("te-line", count=3, size_range=(2, 4),
                         capacity_range=(10.0, 20.0))
    assert fam.threshold_range == (10.0, 20.0)


def test_predicate_validation():
    with pytest.raises(ValueError):
        Predicate("monotone", "ball_count")
    with pytest.raises(ValueError):
        Predicate("increasing", "no_such_feature")
    with pytest.raises(ValueError):
        Predicate("increasing", "ball_count", alpha=1.0)


def test_register_feature_rejects_a_collision():
    name = "test_only_feature"
    try:
        register_feature(name, lambda sc: 1.0)
        with pytest.raises(ValueError):
            register_feature(name, lambda sc: 2.0)
        assert FEATURES[name](None) == 1.0
        Predicate("increasing", name)  # now resolvable
    finally:
        FEATURES.pop(name, None)


def test_too_few_instances():
    insts = generate_instances(line_family(count=4, lo=2, hi=5))
    with pytest.raises(TooFewInstances):
        evaluate_predicate(Predicate("increasing", "pinned_shortest_path_length"),
                           insts, gap_probe=lambda sc, s: 1.0)


def test_constant_probe_never_holds():
    insts = generate_instances(line_family())
    finding = evaluate_predicate(
        Predicate("increasing", "pinned_shortest_path_length"),
        insts, gap_probe=lambda sc, s: 3.0)
    assert finding.tau == 0.0
    assert finding.p == 1.0
    assert not finding.holds


def test_synthetic_monotone_probe():
    insts = generate_instances(line_family())
    finding = evaluate_predicate(
        Predicate("increasing", "pinned_shortest_path_length"),
        insts, gap_probe=lambda sc, s: pinned_shortest_path_length(sc))
    assert finding.tau == 1.0
    assert finding.holds
    assert finding.p == pytest.approx(1 / 120)  # 5 observations, one ordering


def test_reversal_symmetry():
    insts = generate_instances(line_family(count=6, lo=2, hi=7, seed=4))
    probe = lambda sc, s: pinned_shortest_path_length(sc) ** 2
    up = evaluate_predicate(Predicate("increasing", "pinned_shortest_path_length"),
                            insts, gap_probe=probe)
    down = evaluate_predicate(Predicate("decreasing", "pinned_shortest_path_length"),
                              insts, gap_probe=lambda sc, s: -probe(sc, s))
    assert down.tau == -up.tau
    assert down.p == up.p
    assert down.holds == up.holds


def test_probe_seed_folds_per_instance():
    insts = generate_instances(line_family())
    seen = []
    probe = lambda sc, s: seen.append(s) or float(len(seen))
    evaluate_predicate(Predicate("increasing", "pinned_shortest_path_length"),
                       insts, gap_probe=probe, seed=12)
    assert len(set(seen)) == len(insts)  # distinct derived seeds
    again = []
    evaluate_predicate(Predicate("increasing", "pinned_shortest_path_length"),
                       insts, gap_probe=lambda sc, s: again.append(s) or 1.0,
                       seed=12)
    assert seen == again


def test_default_probe_end_to_end():
    # small family through the real analyzer; exact corner gaps are L * 50
    insts = generate_instances(line_family(count=5, lo=2, hi=6, seed=1))
    finding = evaluate_predicate(
        Predicate("increasing", "pinned_shortest_path_length"), insts, seed=0)
    assert finding.holds
    assert finding.tau == 1.0
    gaps = [g for _, _, g in finding.observations]
    for L, g in zip([2, 3, 4, 5, 6], gaps):
        assert g == pytest.approx(L * 50.0, rel=0.02)


def test_finding_records_reinterpretation_note():
    insts = generate_instances(line_family())
    finding = evaluate_predicate(
        Predicate("increasing", "pinned_shortest_path_length"),
        insts, gap_probe=lambda sc, s: 1.0)
    assert "statistical" in finding.note or "trend" in finding.note
    doc = json.loads(trend_to_json(finding))
    assert doc["note"] == finding.note


def test_trend_json_roundtrip():
    insts = generate_instances(line_family())
    finding = evaluate_predicate(
        Predicate("increasing", "pinned_shortest_path_length"),
        insts, gap_probe=lambda sc, s: pinned_shortest_path_length(sc) + 0.25)
    doc = json.loads(trend_to_json(finding))
    assert doc["predicate"] == {"kind": "increasing", "alpha": finding.predicate.alpha,
                                "feature": "pinned_shortest_path_length"}
    assert (doc["tau"], doc["p"], doc["holds"], doc["note"]) == \
        (finding.tau, finding.p, finding.holds, finding.note)
    assert [(r["instance"], r["feature"], r["max_gap"]) for r in doc["observations"]] == \
        list(finding.observations)
    assert [r["instance"] for r in doc["observations"]] == \
        [sc.name for sc in insts]


def test_default_probe_gives_what_a_plain_per_point_probe_gives():
    # the default probe hands the analyzer the scenario's batched gap
    # function; wrapped as a plain callable it is asked one point at a
    # time, and the finding must not change by one bit
    from xplain.analyzer import NotFound, find_adversarial
    from xplain.generalize import PROBE_BUDGET

    def per_point(sc, seed):
        gap_fn = sc.gap_fn()
        found = find_adversarial(sc.space(), lambda x: gap_fn(x), budget=PROBE_BUDGET,
                                 min_gap=0.0, seed=seed)
        return found.best_gap if isinstance(found, NotFound) else found.gap

    pred = Predicate("increasing", "pinned_shortest_path_length")
    findings = [evaluate_predicate(pred, generate_instances(line_family(seed=3)),
                                   gap_probe=probe, seed=11)
                for probe in (None, per_point)]
    assert findings[0] == findings[1]
    assert trend_to_json(findings[0]) == trend_to_json(findings[1])
