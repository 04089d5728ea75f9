import numpy as np
import pytest

from oracles import lp_oracle, milp_oracle, reference_cold_start, reference_solve_lp
from xplain.solver import (
    BINARY,
    EQ,
    LE,
    MAXIMIZE,
    MINIMIZE,
    BudgetExceeded,
    ConstraintProgram,
    NumericalInstability,
    ParametricLP,
    solve_lp,
    counting,
    solve_mip,
    to_lp_format,
)
from xplain.heuristics import builtin
from xplain.solver.parametric import MAX_BASES
from xplain.solver.simplex import cold_start, solve_lp_arrays


def make_lp(A, senses, b, c, sense=MAXIMIZE, kinds=None, uppers=None):
    prog = ConstraintProgram()
    n = len(c)
    for j in range(n):
        kind = kinds[j] if kinds else "continuous"
        upper = uppers[j] if uppers else None
        prog.add_variable(f"x{j}", kind, upper)
    for i, row in enumerate(A):
        prog.add_constraint({j: row[j] for j in range(n)}, senses[i], b[i])
    prog.set_objective({j: c[j] for j in range(n)}, sense)
    return prog


def test_max_x_le_5():
    prog = make_lp([[1.0]], [LE], [5.0], [1.0])
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0)


def test_min_sense():
    # min x + y s.t. x + y >= 2 (as -x - y <= -2)
    prog = make_lp([[-1.0, -1.0]], [LE], [-2.0], [1.0, 1.0], sense=MINIMIZE)
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)


def test_infeasible():
    prog = make_lp([[1.0], [-1.0]], [LE, LE], [1.0, -2.0], [1.0])
    assert solve_lp(prog).status == "infeasible"


def test_unbounded():
    prog = make_lp([[-1.0]], [LE], [0.0], [1.0])
    assert solve_lp(prog).status == "unbounded"


def test_equality_row():
    prog = make_lp([[1.0, 1.0]], [EQ], [3.0], [1.0, 0.0])
    sol = solve_lp(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)


def test_upper_bounds_respected():
    prog = ConstraintProgram()
    prog.add_variable("x", upper=2.5)
    prog.set_objective({0: 1.0})
    sol = solve_lp(prog)
    assert sol.objective == pytest.approx(2.5)


def test_solve_lp_rejects_binaries_and_groups():
    prog = ConstraintProgram()
    prog.add_variable("y", BINARY)
    prog.set_objective({0: 1.0})
    with pytest.raises(ValueError):
        solve_lp(prog)
    prog2 = ConstraintProgram()
    a = prog2.add_variable("a")
    b = prog2.add_variable("b")
    prog2.add_group([a, b])
    with pytest.raises(ValueError):
        solve_lp(prog2)


def _random_lp(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    A = rng.integers(-4, 5, size=(m, n)).astype(float)
    b = rng.integers(-3, 7, size=m).astype(float)
    senses = [EQ if rng.random() < 0.2 else LE for _ in range(m)]
    c = rng.integers(-4, 5, size=n).astype(float)
    sense = MAXIMIZE if rng.random() < 0.7 else MINIMIZE
    return A, senses, b, c, sense


def test_simplex_matches_vertex_enumeration_oracle():
    # 200 seeded random LPs, <=3 vars, <=4 rows: status and value agree
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 200:
        A, senses, b, c, sense = _random_lp(rng)
        want_status, want_val = lp_oracle(A, senses, b, c, sense)
        status, val, _ = solve_lp_arrays(A, senses, b, c, sense)
        assert status == want_status, (A, senses, b, c, sense)
        if status == "optimal":
            assert val == pytest.approx(want_val, abs=1e-7)
        checked += 1


def _cold_path_lp(rng):
    """A small random LP for the cold path: <= and == rows, negative and zero
    right-hand sides, empty rows, finite upper bounds, and integer entries
    (so ratios tie) with a few near-zero ones (so Bland's row can pivot on
    rounding noise); half of them get fractions too, so sums round."""
    m, n = int(rng.integers(0, 7)), int(rng.integers(0, 7))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    c = rng.integers(-3, 4, size=n).astype(float)
    if rng.random() < 0.5:
        A += rng.uniform(-1.0, 1.0, size=(m, n)) * (rng.random((m, n)) < 0.5)
        c += rng.uniform(-1.0, 1.0, size=n)
    tiny = rng.random((m, n)) < 0.12
    A[tiny] = rng.choice([4e-8, -4e-8, 2e-9], size=int(tiny.sum()))
    A[rng.random(m) < 0.1] = 0.0
    b = rng.integers(-3, 7, size=m).astype(float)
    b[rng.random(m) < 0.3] = 0.0
    senses = [EQ if rng.random() < 0.25 else LE for _ in range(m)]
    uppers = [float(rng.integers(0, 4)) if rng.random() < 0.3 else None for _ in range(n)]
    sense = MAXIMIZE if rng.random() < 0.6 else MINIMIZE
    return make_lp(A, senses, b, c, sense, uppers=uppers)


def _cold_answer(solve, prog):
    """What `solve` makes of prog, bit for bit: the status, basis, pivots,
    objective and values (floats as .hex(), so signed zeros count), or the
    error it raises."""
    with counting() as work:
        try:
            sol = solve(prog)
        except NumericalInstability as exc:
            return ("raised", str(exc), work.pivots)
    values = None if sol.values is None else [v.hex() for v in sol.values.tolist()]
    objective = None if sol.objective is None else sol.objective.hex()
    return (sol.status, sol.basis, work.pivots, objective, values, sol.names)


def _final_tableau(start, prog):
    """The bytes of the optimal tableau `start` leaves for prog, or its status."""
    A, senses, b, c = prog.dense()
    try:
        status, tab = start(A, senses, b, c, prog.sense, up=[v.upper for v in prog.variables])
    except NumericalInstability as exc:
        return str(exc)
    if tab is None:
        return status
    return tab.T.tobytes(), tab.z.tobytes(), tab.basis.tolist(), tab.flipped.tolist()


def test_cold_path_matches_the_reference_bit_for_bit():
    # the current cold start, primal loop and recheck against their earlier
    # code (tests/oracles.py) on random LPs and on fig1a_dp's max-flow LP at
    # random demands, some pinned to 0
    rng = np.random.default_rng(2323)
    progs = [_cold_path_lp(rng) for _ in range(3000)]
    te = builtin("fig1a_dp")
    template = te.instance._max_flow.lp.program
    links = te.instance._max_flow.links
    caps = te.instance.flow_layout.capacities
    for _ in range(200):
        d = rng.uniform(0.0, 200.0, size=te.dimension) * (rng.random(te.dimension) < 0.7)
        b = np.concatenate([d, caps[links]])
        A, senses, _, c = template.dense()
        progs.append(make_lp(A, senses, b, c))
    statuses = set()
    for prog in progs:
        want = _cold_answer(reference_solve_lp, prog)
        assert _cold_answer(solve_lp, prog) == want, to_lp_format(prog)
        assert _final_tableau(cold_start, prog) == _final_tableau(reference_cold_start, prog)
        statuses.add(want[0])
    assert statuses == {"optimal", "infeasible", "unbounded", "raised"}


def test_lp_duality_on_random_feasible_bounded():
    # max{c.x : A x <= b, E x == e, 0 <= x <= u} equals its bounded dual
    # min{b.y + e.(p - q) + u.w : A^T y + E^T (p - q) + w >= c; y, p, q, w >= 0}
    # (w only on finite u), on feasible, bounded LPs with n up to 30
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 31))
        m_le = int(rng.integers(1, n + 2))
        m_eq = int(rng.integers(0, n // 3 + 2))
        A = rng.integers(-3, 5, size=(m_le, n)).astype(float)
        E = rng.integers(-3, 5, size=(m_eq, n)).astype(float)
        u = rng.integers(1, 6, size=n).astype(float)
        u[rng.random(n) < 0.2] = np.inf
        c = rng.integers(-4, 5, size=n).astype(float)
        c[np.isinf(u)] = -np.abs(c[np.isinf(u)])  # keeps the maximum finite
        x0 = rng.random(n) * np.where(np.isinf(u), 3.0, u)
        b = A @ x0 + rng.integers(0, 3, size=m_le)
        e = E @ x0
        status, val, x = solve_lp_arrays(
            np.vstack([A, E]), [LE] * m_le + [EQ] * m_eq, np.concatenate([b, e]),
            c, MAXIMIZE, u)
        assert status == "optimal"
        assert np.all(A @ x <= b + 1e-7) and np.allclose(E @ x, e, atol=1e-7)
        assert np.all(x >= -1e-9) and np.all(x <= u + 1e-9)
        assert c @ x == pytest.approx(val, abs=1e-9)

        fin = np.flatnonzero(np.isfinite(u))
        W = np.zeros((n, len(fin)))
        W[fin, np.arange(len(fin))] = 1.0
        D = np.hstack([A.T, E.T, -E.T, W])  # D @ (y, p, q, w) >= c
        dual_c = np.concatenate([b, e, -e, u[fin]])
        dstat, dval, _ = solve_lp_arrays(-D, [LE] * n, -c, dual_c, MINIMIZE)
        assert dstat == "optimal"
        assert dval == pytest.approx(val, abs=1e-6)


def test_mip_all_binary_no_constraints():
    prog = ConstraintProgram()
    for j in range(4):
        prog.add_variable(f"y{j}", BINARY)
    prog.set_objective({j: 1.0 for j in range(4)}, MAXIMIZE)
    sol = solve_mip(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0)
    assert np.allclose(sol.values, 1.0)


def test_mip_knapsack():
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binaries: best is a + c = 8
    prog = ConstraintProgram()
    for name in "abc":
        prog.add_variable(name, BINARY)
    prog.add_constraint({0: 2.0, 1: 3.0, 2: 1.0}, LE, 3.0)
    prog.set_objective({0: 5.0, 1: 4.0, 2: 3.0}, MAXIMIZE)
    sol = solve_mip(prog)
    assert sol.objective == pytest.approx(8.0)
    assert sol["a"] == pytest.approx(1.0)
    assert sol["b"] == pytest.approx(0.0)
    assert sol["c"] == pytest.approx(1.0)


def test_mip_group_branching():
    # two flows share an exactly-one group; only one may be positive
    prog = ConstraintProgram()
    a = prog.add_variable("a", upper=4.0)
    b = prog.add_variable("b", upper=10.0)
    prog.add_group([a, b])
    prog.set_objective({a: 2.0, b: 1.0}, MAXIMIZE)
    sol = solve_mip(prog)
    assert sol.status == "optimal"
    # b alone gives 10, a alone gives 8
    assert sol.objective == pytest.approx(10.0)
    assert sol["a"] == pytest.approx(0.0)


def test_mip_group_all_zero_allowed():
    # at-most-one semantics: the all-zero assignment is feasible
    prog = ConstraintProgram()
    a = prog.add_variable("a")
    b = prog.add_variable("b")
    prog.add_group([a, b])
    prog.add_constraint({a: 1.0, b: 1.0}, LE, 0.0)
    prog.set_objective({a: 1.0, b: 1.0}, MAXIMIZE)
    sol = solve_mip(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)


def test_mip_matches_enumeration_oracle_on_random_milps():
    rng = np.random.default_rng(99)
    done = 0
    while done < 60:
        n = int(rng.integers(0, 3))
        ny = int(rng.integers(0, 3))
        if n + ny == 0:
            continue
        m = int(rng.integers(1, 4))
        A_cont = rng.integers(-3, 4, size=(m, n)).astype(float)
        A_bin = rng.integers(-3, 4, size=(m, ny)).astype(float)
        b = rng.integers(-2, 6, size=m).astype(float)
        senses = [LE] * m
        c_cont = rng.integers(-3, 4, size=n).astype(float)
        c_bin = rng.integers(-3, 4, size=ny).astype(float)
        want_status, want_val = milp_oracle(A_cont, A_bin, senses, b, c_cont, c_bin)

        prog = ConstraintProgram()
        for j in range(n):
            prog.add_variable(f"x{j}")
        for j in range(ny):
            prog.add_variable(f"y{j}", BINARY)
        for i in range(m):
            coeffs = {j: A_cont[i, j] for j in range(n)}
            coeffs.update({n + j: A_bin[i, j] for j in range(ny)})
            prog.add_constraint(coeffs, LE, b[i])
        obj = {j: c_cont[j] for j in range(n)}
        obj.update({n + j: c_bin[j] for j in range(ny)})
        prog.set_objective(obj, MAXIMIZE)

        sol = solve_mip(prog)
        assert sol.status == want_status, (A_cont, A_bin, b, c_cont, c_bin)
        if want_status == "optimal":
            assert sol.objective == pytest.approx(want_val, abs=1e-6)
        done += 1


def test_mip_bound_vs_relaxation():
    # MIP optimum <= LP relaxation optimum for maximization
    rng = np.random.default_rng(3)
    for _ in range(20):
        ny = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        A = rng.integers(0, 4, size=(m, ny)).astype(float)
        b = rng.integers(1, 6, size=m).astype(float)
        c = rng.integers(0, 4, size=ny).astype(float)
        prog = ConstraintProgram()
        for j in range(ny):
            prog.add_variable(f"y{j}", BINARY)
        for i in range(m):
            prog.add_constraint({j: A[i, j] for j in range(ny)}, LE, b[i])
        prog.set_objective({j: c[j] for j in range(ny)}, MAXIMIZE)
        mip = solve_mip(prog)
        relax = ConstraintProgram()
        for j in range(ny):
            relax.add_variable(f"y{j}", upper=1.0)
        for i in range(m):
            relax.add_constraint({j: A[i, j] for j in range(ny)}, LE, b[i])
        relax.set_objective({j: c[j] for j in range(ny)}, MAXIMIZE)
        lp = solve_lp(relax)
        assert mip.objective <= lp.objective + 1e-9


def test_node_limit_raises():
    prog = ConstraintProgram()
    for j in range(12):
        prog.add_variable(f"y{j}", BINARY)
    # fractional-friendly knapsack forces branching
    prog.add_constraint({j: 2.0 for j in range(12)}, LE, 11.0)
    prog.set_objective({j: 1.0 for j in range(12)}, MAXIMIZE)
    with pytest.raises(BudgetExceeded):
        solve_mip(prog, node_limit=2)


def test_determinism_identical_solutions():
    prog = make_lp([[1.0, 2.0], [3.0, 1.0]], [LE, LE], [4.0, 6.0], [1.0, 1.0])
    a = solve_lp(prog)
    b = solve_lp(prog)
    assert repr(a.values.tolist()) == repr(b.values.tolist())
    assert a.objective == b.objective


def test_lp_format_export():
    prog = ConstraintProgram()
    x = prog.add_variable("x", upper=4.0)
    y = prog.add_variable("y", BINARY)
    prog.add_constraint({x: 1.0, y: -2.0}, LE, 3.0)
    prog.add_group([x])
    prog.set_objective({x: 1.0, y: 5.0}, MAXIMIZE)
    text = to_lp_format(prog)
    assert text.startswith("Maximize")
    assert "Subject To" in text
    assert "Binary" in text
    assert "x <= 4" in text
    assert text.endswith("End\n")


def _knapsack():
    prog = ConstraintProgram()
    for j in range(5):
        prog.add_variable(f"y{j}", BINARY)
    prog.add_constraint({j: 2.0 for j in range(5)}, LE, 5.0)  # root LP: 2.5
    prog.set_objective({j: 1.0 for j in range(5)}, MAXIMIZE)
    return prog


def test_work_counters_count_inside_their_block_only():
    lp = make_lp([[1.0, 2.0], [3.0, 1.0]], [LE, LE], [4.0, 6.0], [1.0, 1.0])
    solve_mip(_knapsack())  # no block open: nothing is counted anywhere
    with counting() as outer:
        solve_lp(lp)
        with counting() as inner:
            solve_mip(_knapsack())
    assert outer.pivots == 2 and outer.nodes == 0
    assert inner.pivots > 0 and inner.nodes > 1
    with counting() as again:
        solve_mip(_knapsack())
    assert again == inner  # deterministic


# --- ParametricLP -----------------------------------------------------------

def _le_lp(A, b, c):
    return make_lp(A, [LE] * len(b), b, c)


def _assert_matches_cold(A, b, c, sol):
    """sol is optimal for {max c.x : A x <= b, x >= 0}, as a cold solve_lp says."""
    cold = solve_lp(_le_lp(A, b, c))
    assert sol.status == cold.status == "optimal"
    assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
    assert np.all(A @ sol.values <= b + 1e-6) and np.all(sol.values >= -1e-6)
    assert sol.objective == pytest.approx(float(c @ sol.values), abs=1e-9)


def test_parametric_lp_matches_cold_solves():
    # seeded <= LPs with b >= 0, half of the b degenerate (zeros, or
    # b = A x0 at a sparse x0, so that several rows are tight at once); the
    # sequences bring more distinct optimal bases than ParametricLP keeps
    rng = np.random.default_rng(1207)
    warm = cold = evicting = 0
    for _ in range(12):
        m, n = int(rng.integers(3, 7)), int(rng.integers(3, 8))
        A = rng.integers(0, 4, size=(m, n)).astype(float)
        A[rng.integers(0, m, size=n), np.arange(n)] += 1.0  # bounded
        c = rng.integers(1, 5, size=n).astype(float)
        seen = set()
        b = rng.uniform(0.0, 10.0, size=m)
        lp = ParametricLP(_le_lp(A, b, c))
        with counting() as work:
            for t in range(80):
                if t % 4 == 0:
                    b = rng.uniform(0.0, 10.0, size=m) * (rng.random(m) < 0.6)
                elif t % 4 == 1:
                    b = A @ (rng.integers(0, 3, size=n) * (rng.random(n) < 0.4))
                else:
                    b = rng.uniform(0.0, 10.0, size=m)
                sol = lp.solve(b)
                _assert_matches_cold(A, b, c, sol)
                seen.add(sol.basis)
        assert work.lp_warm + work.lp_cold == 80
        warm, cold = warm + work.lp_warm, cold + work.lp_cold
        evicting += len(seen) > MAX_BASES  # more bases than it keeps
    assert warm > cold and evicting >= 4


def test_parametric_lp_tries_most_recent_basis_first():
    # max x1 + x2, x1 + x2 <= t, x1 <= u, x2 <= v: at b = 0 every basis is
    # feasible, and the one used last decides which is returned
    A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    c = np.ones(2)
    b_a, b_b, b_c = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.zeros(3)
    lp = ParametricLP(_le_lp(A, b_a, c))
    with counting() as work:
        basis_a = lp.solve(b_a).basis
        basis_b = lp.solve(b_b).basis
        assert basis_a != basis_b
        assert lp.solve(b_c).basis == basis_b
        assert lp.solve(b_a).basis == basis_a  # a hit: a moves to the front
        assert lp.solve(b_c).basis == basis_a
    assert (work.lp_cold, work.lp_warm) == (2, 3)


def test_parametric_lp_rejects_a_basis_just_outside_its_region():
    # max x1 + 2 x2, x1 + x2 <= t, x2 <= u: the basis {x1, x2} of t > u
    # gives x1 = t - u, which at t = u - 5e-7 is negative by less than the
    # feasibility recheck allows, and its objective t + u is 5e-7 too high
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    c = np.array([1.0, 2.0])
    lp = ParametricLP(_le_lp(A, [2.0, 1.0], c))
    lp.solve([2.0, 1.0])
    b = np.array([1.0 - 5e-7, 1.0])
    with counting() as work:
        sol = lp.solve(b)
    _assert_matches_cold(A, b, c, sol)
    assert (work.lp_warm, work.lp_cold) == (0, 1)


def test_parametric_lp_rechecks_a_stored_basis():
    # a corrupted stored inverse passes B^-1 b >= 0 but not A x <= b: the
    # solve falls back to a cold start instead of returning that x
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    c = np.array([1.0, 1.0])
    b = np.array([4.0, 6.0])
    lp = ParametricLP(_le_lp(A, b, c))
    lp.solve(b)
    lp._inv[0] *= 1.01
    with counting() as work:
        _assert_matches_cold(A, b, c, lp.solve(b))
    assert (work.lp_warm, work.lp_cold) == (0, 1)


def test_parametric_lp_cold_solves_through_the_package_solve_lp(monkeypatch):
    import xplain.solver

    seen = []
    monkeypatch.setattr(xplain.solver, "solve_lp",
                        lambda prog: seen.append(prog) or solve_lp(prog))
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    lp = ParametricLP(_le_lp(A, [4.0, 6.0], [1.0, 1.0]))
    lp.solve([8.0, 12.0])
    assert [con.rhs for con in seen[0].constraints] == [8.0, 12.0]
    lp.solve([4.0, 6.0])  # the same basis: no second cold solve
    assert len(seen) == 1
    prog = _le_lp(A, [4.0, 6.0], [1.0, 1.0])
    ParametricLP(prog).solve([4.0, 6.0])  # at its own b, the program itself
    assert seen[1] is prog


def test_parametric_lp_rejects_what_it_cannot_reuse():
    with pytest.raises(ValueError, match="upper bounds"):
        ParametricLP(make_lp([[1.0]], [LE], [1.0], [1.0], uppers=[2.0]))
    with pytest.raises(ValueError, match="binaries"):
        ParametricLP(make_lp([[1.0]], [LE], [1.0], [1.0], kinds=[BINARY]))
    with pytest.raises(ValueError, match="right-hand sides"):
        ParametricLP(make_lp([[1.0]], [LE], [1.0], [1.0])).solve([1.0, 2.0])


def _same_solution(a, b):
    """Bit for bit the same Solution (values compared as arrays)."""
    assert (a.status, a.objective, a.basis, a.names) == (b.status, b.objective, b.basis, b.names)
    assert (a.values is None) == (b.values is None)
    if a.values is not None:
        assert np.array_equal(a.values, b.values)


def test_parametric_lp_solve_many_is_solve_row_by_row():
    # the right-hand sides of test_parametric_lp_matches_cold_solves, a few
    # with an equality row: one stack per LP against one solve per row on a
    # twin, which must end with the same stored bases in the same order
    rng = np.random.default_rng(1207)
    evicting = 0
    for trial in range(12):
        m, n = int(rng.integers(3, 7)), int(rng.integers(3, 8))
        A = rng.integers(0, 4, size=(m, n)).astype(float)
        A[rng.integers(0, m, size=n), np.arange(n)] += 1.0
        c = rng.integers(1, 5, size=n).astype(float)
        senses = [LE] * m
        if trial % 3 == 0:
            senses[0] = EQ
        B = []
        for t in range(80):
            if t % 4 == 0:
                B.append(rng.uniform(0.0, 10.0, size=m) * (rng.random(m) < 0.6))
            elif t % 4 == 1:
                B.append(A @ (rng.integers(0, 3, size=n) * (rng.random(n) < 0.4)))
            else:
                B.append(rng.uniform(0.0, 10.0, size=m))
        B = np.array(B)
        one, many = (ParametricLP(make_lp(A, senses, B[0], c)) for _ in range(2))
        with counting() as row_work:
            rows = [one.solve(b) for b in B]
        with counting() as stack_work:
            stack = many.solve_many(B)
        assert len(stack) == len(B)
        for a, b in zip(rows, stack):
            _same_solution(a, b)
        assert (stack_work.lp_warm, stack_work.lp_cold) == (row_work.lp_warm, row_work.lp_cold)
        assert [one._slots[k][0] for k in one._order] == [many._slots[k][0] for k in many._order]
        assert np.array_equal(one._inv, many._inv)
        evicting += len({s.basis for s in rows}) > MAX_BASES
    assert evicting >= 4


def test_parametric_lp_solve_many_checks_the_stack_first():
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    lp = ParametricLP(_le_lp(A, [4.0, 6.0], [1.0, 1.0]))
    with counting() as work:
        empty = lp.solve_many(np.zeros((0, 2)))
    assert len(empty) == 0 and empty.values.shape == (0, 2)
    assert (work.lp_warm, work.lp_cold, lp._slots) == (0, 0, [])
    for bad in (np.zeros((3, 3)), np.zeros(2), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match="right-hand sides"):
            lp.solve_many(bad)
