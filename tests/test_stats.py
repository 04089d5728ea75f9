"""Sample sizing, signed-rank test against enumeration, trend test."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import kendall_oracle, wilcoxon_oracle
from xplain.analyzer import InputSpace
from xplain.sampling import SamplingFailure, region_box, sample_region
from xplain.stats import (
    AllZero,
    check_significance,
    dkw_samples,
    kendall_trend,
    wilcoxon_signed_rank,
)


def box_region(lo, hi, T=(), V=()):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    A = np.vstack([np.eye(n), -np.eye(n)])
    C = np.concatenate([hi, -lo])
    return SimpleNamespace(A=A, C=C, T=T, V=V)


def step_gap(x):
    return 1.0 if 0.4 <= float(np.asarray(x).ravel()[0]) <= 0.6 else 0.0


def hash_noise(x):
    """Deterministic location-independent pseudo-noise in [0, 1)."""
    h = hashlib.sha256(np.asarray(x, dtype=float).round(9).tobytes()).digest()
    return int.from_bytes(h[:8], "little") / 2.0 ** 64


def test_dkw_paper_operating_point():
    assert dkw_samples(0.1, 0.05) == 185


def test_dkw_small_cases():
    assert dkw_samples(0.5, 0.9) == 2


def test_dkw_domain_checks():
    for eps, delta in ((1.0, 0.5), (0.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            dkw_samples(eps, delta)


def test_dkw_nonincreasing_in_both_arguments():
    eps_grid = [0.05, 0.1, 0.2, 0.5, 0.9]
    for lo, hi in zip(eps_grid, eps_grid[1:]):
        assert dkw_samples(hi, 0.1) <= dkw_samples(lo, 0.1)
        assert dkw_samples(0.1, hi) <= dkw_samples(0.1, lo)


def test_wilcoxon_one_two_three():
    w, p, method = wilcoxon_signed_rank((1.0, 2.0, 3.0), "greater")
    assert w == 6.0
    assert p == 0.125
    assert method == "exact"


def test_wilcoxon_mirror_case():
    _, p, _ = wilcoxon_signed_rank((-1.0, -2.0, -3.0), "greater")
    assert p == 1.0


def test_wilcoxon_all_zero():
    with pytest.raises(AllZero):
        wilcoxon_signed_rank((0.0, 0.0, 0.0))


def test_wilcoxon_rejects_bad_arguments():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank((1.0,), alternative="sideways")
    with pytest.raises(ValueError):
        wilcoxon_signed_rank((1.0,), method="montecarlo")


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 13))
        if trial % 2:
            d = rng.integers(-3, 4, n).astype(float)  # zeros and ties
        else:
            d = rng.normal(size=n)
        if np.all(d == 0.0):
            with pytest.raises(AllZero):
                wilcoxon_signed_rank(d)
            continue
        for alternative in ("greater", "less", "two-sided"):
            w_ref, p_ref = wilcoxon_oracle(d, alternative)
            w, p, method = wilcoxon_signed_rank(d, alternative)
            assert method == "exact"
            assert w == w_ref
            assert p == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_normal_approximation_tracks_exact():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(15, 21))
        d = rng.normal(0.3, 1.0, n)
        d = d[d != 0.0]
        _, p_exact, _ = wilcoxon_signed_rank(d, "greater", method="exact")
        _, p_norm, m = wilcoxon_signed_rank(d, "greater", method="normal")
        assert m == "normal-approx"
        assert abs(p_exact - p_norm) <= 0.02


def test_wilcoxon_positive_and_negative_ranks_partition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = rng.normal(size=8)
        d = d[d != 0.0]
        w_pos, _, _ = wilcoxon_signed_rank(d, "greater")
        w_neg, _, _ = wilcoxon_signed_rank(-d, "greater")
        n = len(d)
        assert w_pos + w_neg == pytest.approx(n * (n + 1) / 2.0)


def test_wilcoxon_reads_rounding_noise_as_zero_and_as_ties():
    d = np.array([0.5, -0.25, 1.0, 0.75, 0.125])
    noisy = d + np.array([1e-13, -2e-13, 0.0, 3e-13, -1e-13])
    base = wilcoxon_signed_rank(d)
    # differences of float LPs that should be zero, and ties off by noise
    assert wilcoxon_signed_rank(np.concatenate([d, [4e-10, -3e-10]])) == base
    assert wilcoxon_signed_rank(np.concatenate([noisy, [1e-14]])) == base
    tied = wilcoxon_signed_rank([0.5, -0.5 - 1e-12, 0.25])
    assert tied == wilcoxon_signed_rank([0.5, -0.5, 0.25])
    assert tied[0] == 3.5  # 0.25 ranks 1, the pair shares (2 + 3) / 2
    with pytest.raises(AllZero):
        wilcoxon_signed_rank([1e-12, -5e-10, 0.0])
    # the tolerance scales with the largest difference above 1
    assert wilcoxon_signed_rank([1e3, 2e3, 1e-7]) == wilcoxon_signed_rank([1e3, 2e3])


# the first subspace `subspaces` keeps on fig1a_dp at seed 7 (n_shell 40,
# budget 400): a box on the eight demands cut by two tree predicates
FIG1A_SEED7_SUBSPACE = SimpleNamespace(
    A=np.vstack([np.eye(8), -np.eye(8)]),
    C=np.array([100.0, 51.64991860505652, 2.0, 2.324668871143441, 100.0,
                51.827153476917516, 100.0, 100.0, -98.0, -12.64991860505652, -0.0,
                -0.0, -98.0, -17.827153476917516, -45.55330370262082,
                -33.87924966576479]),
    T=np.array([np.eye(8)[5], -np.eye(8)[5], np.eye(8)[1], -np.eye(8)[1]]),
    V=np.array([49.97195479564733, -33.805518283245924, 50.02409396348982,
                -33.613550605291536]))


def test_fig1a_significance_ignores_float_noise_in_the_gaps():
    from dataclasses import replace

    from xplain.heuristics import builtin
    from xplain.rng import fold

    sc = builtin("fig1a_dp")
    inst, space = sc.instance, sc.space()
    warm = replace(sc, instance=type(inst)(inst.nodes, inst.links, inst.demands,
                                           inst.threshold)).gap_fn("relative")
    rng = np.random.default_rng(13)

    def noisy(x):
        return warm(x) + rng.uniform(-1e-13, 1e-13)

    def cold(x):  # a fresh instance per call keeps no basis
        fresh = type(inst)(inst.nodes, inst.links, inst.demands, inst.threshold)
        return replace(sc, instance=fresh).gap_fn("relative")(x)

    seed = fold(7, "significance", 0)
    reports = [check_significance(FIG1A_SEED7_SUBSPACE, fn, space, seed=seed)
               for fn in (warm, noisy, cold)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].keep and reports[0].n < 185


def test_sample_region_stays_inside():
    space = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    region = box_region([0.2, 0.3], [0.6, 0.9],
                        T=np.array([[1.0, 1.0]]), V=np.array([1.2]))
    rng = np.random.default_rng(0)
    X = sample_region(region, space, 200, rng)
    assert X.shape == (200, 2)
    assert np.all(X[:, 0] >= 0.2) and np.all(X[:, 0] <= 0.6)
    assert np.all(X.sum(axis=1) <= 1.2 + 1e-9)


def test_sample_region_reports_thin_regions():
    space = InputSpace(((0.0, 1.0),))
    impossible = box_region([0.4], [0.6],
                            T=np.array([[1.0], [-1.0]]),
                            V=np.array([0.45, -0.55]))
    with pytest.raises(SamplingFailure):
        sample_region(impossible, space, 20, np.random.default_rng(0))


def test_region_box_intersects_space():
    space = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    lo, hi = region_box(box_region([0.2, -3.0], [0.6, 9.0]), space)
    assert np.allclose(lo, [0.2, 0.0])
    assert np.allclose(hi, [0.6, 1.0])


def test_step_interval_is_significant():
    space = InputSpace(((0.0, 1.0),))
    rep = check_significance(box_region([0.4], [0.6]), step_gap, space, seed=0)
    assert rep.keep
    assert rep.p < 0.05
    assert rep.n == 185
    assert rep.method == "normal-approx"


def test_constant_gap_is_never_kept():
    space = InputSpace(((0.0, 1.0),))
    rep = check_significance(box_region([0.4], [0.6]), lambda x: 5.0, space,
                             seed=0)
    assert not rep.keep
    assert rep.p == 1.0
    assert rep.method == "degenerate"
    assert rep.n == 0


def test_check_significance_calibration():
    # with no real inside/outside difference the keep rate stays near alpha
    space = InputSpace(((0.0, 1.0), (0.0, 1.0)))
    region = box_region([0.3, 0.3], [0.7, 0.7])
    keeps = 0
    trials = 200
    for t in range(trials):
        rep = check_significance(region, hash_noise, space, n_pairs=40,
                                 seed=t)
        keeps += bool(rep.keep)
    assert keeps / trials <= 0.05 + 0.03


def test_kendall_perfectly_increasing():
    tau, p = kendall_trend([(i, float(i)) for i in range(8)], "greater")
    assert tau == pytest.approx(1.0)
    assert p == pytest.approx(1.0 / math.factorial(8))
    assert p < 0.01


def test_kendall_constant_gaps():
    tau, p = kendall_trend([(i, 3.0) for i in range(8)], "greater")
    assert (tau, p) == (0.0, 1.0)


def test_kendall_decreasing_under_greater():
    _, p = kendall_trend([(i, -float(i)) for i in range(8)], "greater")
    assert p >= 0.99


def test_kendall_reversal_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = [(float(rng.integers(0, 4)), float(rng.integers(-2, 3)))
               for _ in range(7)]
        tau_inc, p_inc = kendall_trend(pts, "greater")
        tau_dec, p_dec = kendall_trend([(a, -b) for a, b in pts], "less")
        assert tau_inc == pytest.approx(-tau_dec)
        assert p_inc == pytest.approx(p_dec)


def test_kendall_normal_branch_on_long_series():
    pts = [(float(i), float(i) + (0.1 if i % 3 else -0.1)) for i in range(60)]
    tau, p = kendall_trend(pts, "greater")
    assert tau > 0.9
    assert p < 1e-6


def test_kendall_exact_null_matches_enumeration():
    # bit-identical to the literal n! enumeration, with and without ties
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        for x_ties in (False, True):
            for y_ties in (False, True):
                for _ in range(3):
                    x = rng.integers(0, 3, n) if x_ties else rng.permutation(n)
                    y = rng.integers(0, 3, n) if y_ties else rng.normal(size=n)
                    pairs = list(zip(x.tolist(), y.tolist()))
                    for alternative in ("greater", "less", "two-sided"):
                        tau, p = kendall_trend(pairs, alternative)
                        if len(set(x.tolist())) == 1 or len(set(y.tolist())) == 1:
                            assert (tau, p) == (0.0, 1.0)
                        else:
                            assert p == kendall_oracle(pairs, alternative)


def test_kendall_exact_on_tied_line_family_pairs():
    # the (path length, gap) pairs the te-line family yields: only the 2^5
    # swaps inside equal pairs reach the observed S
    pairs = [(size, 50.0 * size) for size in (2, 2, 3, 3, 4, 4, 5, 5, 6, 6)]
    tau, p = kendall_trend(pairs, "greater")
    assert tau == 1.0
    assert p == 32 / math.factorial(10)


def test_kendall_input_validation():
    with pytest.raises(ValueError):
        kendall_trend([(1.0, 2.0)], "greater")
    with pytest.raises(ValueError):
        kendall_trend([(1.0, 2.0), (2.0, 3.0)], "upward")
