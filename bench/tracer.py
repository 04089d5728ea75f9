"""Traced xplain runs and isolated layer cases, for bench/run.py.

    python3 tracer.py trace SPANS.json GAUGE.json -- <xplain arguments>
    python3 tracer.py cases CASES.json

`trace` wraps the public functions of each layer at every module that binds
them, runs `xplain.cli.main` on the given arguments under the speed gauge
of gauge.py (which writes GAUGE.json), and writes one span per call (name,
start, end, parent, error type, attributes) to SPANS.json. The gauge's
units run inside whichever span is open, adding about 5% to each.
`cases` times single layer calls on fixed inputs and writes their medians
to CASES.json. Both expect the repository's `src` on PYTHONPATH.
"""

import importlib
import json
import signal
import statistics
import sys
import time

import numpy as np

import xplain
import xplain.cli
from gauge import gauged
from xplain.solver import BINARY

# (defining module, function, span name, attributes from (args, kwargs, result))
WRAPPED = [
    ("xplain.solver.simplex", "solve_lp_arrays", "solver.simplex", None),
    ("xplain.solver.branch_bound", "solve_mip", "solver.branch_bound", None),
    ("xplain.heuristics.gap", "gap", "heuristics.gap", None),
    ("xplain.heuristics.te", "run_dp", "heuristics.te.run_dp", None),
    ("xplain.heuristics.te", "optimal_te", "heuristics.te.optimal_te", None),
    ("xplain.heuristics.vbp", "run_ff", "heuristics.vbp.run_ff", None),
    ("xplain.heuristics.vbp", "optimal_vbp", "heuristics.vbp.optimal_vbp", None),
    ("xplain.heuristics.networks", "project_allocation",
     "heuristics.networks.project_allocation", None),
    ("xplain.analyzer", "find_adversarial", "analyzer", None),
    ("xplain.subspaces.generate", "generate_subspaces", "subspaces.generate",
     lambda a, k, r: {"kept": len(r)}),
    ("xplain.subspaces.grow", "grow_rough_subspace", "subspaces.grow", None),
    ("xplain.subspaces.tree", "fit_regression_tree", "subspaces.tree",
     lambda a, k, r: {"rows": len(a[0])}),
    ("xplain.stats", "check_significance", "stats.check_significance", None),
    ("xplain.stats", "kendall_trend", "stats.kendall_trend",
     lambda a, k, r: {"n": len(a[0])}),
    ("xplain.stats", "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank",
     lambda a, k, r: {"n": len(a[0])}),
    ("xplain.sampling", "sample_region", "sampling.sample_region",
     lambda a, k, r: {"points": len(r)}),
    ("xplain.explain", "score_edges", "explain.score_edges",
     lambda a, k, r: {"samples": r.n_samples}),
    ("xplain.generalize", "generate_instances", "generalize.generate_instances",
     lambda a, k, r: {"instances": len(r)}),
    ("xplain.generalize", "evaluate_predicate", "generalize.evaluate_predicate",
     None),
]


class Terminated(BaseException):
    """Raised on SIGTERM so the spans recorded so far are still written."""


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, error, attrs]
        self.stack = []
        self.seen_inputs = set()
        self.exclusion = {"checks": 0, "rejects": 0}

    def span(self, name, fn, attrs_fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   stack[-1] if stack else -1, None, self._arg_attrs(name, args, kwargs)]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[5] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def _arg_attrs(self, name, args, kwargs):
        """Attributes known before the call, so failed calls carry them too."""
        if name == "solver.simplex":
            # rows plus finite-upper rows, times columns
            A = np.asarray(args[0])
            uppers = args[5] if len(args) > 5 else kwargs.get("uppers")
            finite = sum(1 for u in uppers or () if u is not None and np.isfinite(u))
            rows, cols = A.shape if A.ndim == 2 else (len(args[2]), len(args[3]))
            return {"cells": (rows + finite) * cols}
        if name == "heuristics.gap":
            key = np.asarray(args[0], dtype=float).tobytes()
            dup = key in self.seen_inputs
            self.seen_inputs.add(key)
            return {"dup": int(dup)}
        return None

    def install(self):
        """Patch every binding of each wrapped function in loaded xplain modules."""
        for mod_name, attr, name, attrs_fn in WRAPPED:
            # the attribute xplain.heuristics.gap is the function gap, so
            # reach each module through importlib
            original = getattr(importlib.import_module(mod_name), attr)
            traced = self.span(name, original, attrs_fn)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("xplain")
                        and getattr(mod, attr, None) is original):
                    setattr(mod, attr, traced)

        rejects = xplain.ExclusionSet.rejects
        counts = self.exclusion

        def counted(excl, x):
            hit = rejects(excl, x)
            counts["checks"] += 1
            counts["rejects"] += int(hit)
            return hit

        xplain.ExclusionSet.rejects = counted

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "exclusion": self.exclusion}, fh)


def trace(spans_path, gauge_path, argv):
    tracer = Tracer()
    tracer.install()

    def on_term(signum, frame):
        raise Terminated()

    signal.signal(signal.SIGTERM, on_term)
    main = tracer.span("cli", xplain.cli.main, lambda a, k, r: {"command": a[0][0]})
    code = 2
    try:
        code = gauged(lambda: main(argv), gauge_path)
    except Terminated:
        code = 128 + signal.SIGTERM
    finally:
        tracer.dump(spans_path)
    return code


# isolated layer cases

class _Captured(Exception):
    pass


def _capture_program(call, solver_attr):
    """The ConstraintProgram a heuristic hands to xplain.solver.<solver_attr>."""
    import xplain.solver as solver

    original = getattr(solver, solver_attr)
    box = []

    def grab(prog, *args, **kwargs):
        box.append(prog)
        raise _Captured()

    setattr(solver, solver_attr, grab)
    try:
        call()
    except _Captured:
        pass
    finally:
        setattr(solver, solver_attr, original)
    return box[0]


def _median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _relaxation(prog):
    """Arguments of solve_lp_arrays for the root LP of a MILP (binaries in [0, 1])."""
    A, senses, b, c = prog.dense()
    uppers = [1.0 if v.kind == BINARY else v.upper for v in prog.variables]
    return A, senses, b, c, prog.sense, uppers


def cases(out_path):
    from xplain.heuristics import builtin, optimal_te, optimal_vbp
    from xplain.solver import solve_mip
    from xplain.solver.simplex import solve_lp_arrays

    out = {}
    te = builtin("fig1a_dp")
    mid = [(lo + hi) / 2 for lo, hi in te.bounds]
    lp = _capture_program(lambda: optimal_te(te.instance, mid), "solve_lp")
    args = _relaxation(lp)
    out["case.lp.fig1a_dp_ms"] = 1e3 * _median_s(lambda: solve_lp_arrays(*args), 21)
    gap = te.gap_fn("relative")
    out["case.gap.fig1a_dp_ms"] = 1e3 * _median_s(lambda: gap(mid), 21)

    ff4, ff17 = builtin("ff4"), builtin("fig3_ff17")
    ff4_milp = _capture_program(lambda: optimal_vbp(ff4.instance), "solve_mip")
    ff17_milp = _capture_program(lambda: optimal_vbp(ff17.instance), "solve_mip")
    ff4_lp, ff17_lp = _relaxation(ff4_milp), _relaxation(ff17_milp)
    out["case.lp.ff4_ms"] = 1e3 * _median_s(lambda: solve_lp_arrays(*ff4_lp), 21)
    out["case.lp.fig3_ff17_ms"] = 1e3 * _median_s(lambda: solve_lp_arrays(*ff17_lp), 5)
    # no fig3_ff17 MILP case: that MILP is the vbp-ff17 workload's nominal run
    out["case.milp.ff4_ms"] = 1e3 * _median_s(
        lambda: solve_mip(ff4_milp, integral_objective=True), 11)
    ff4_gap, ff4_x = ff4.gap_fn("absolute"), ff4.baseline_inputs()
    out["case.gap.ff4_ms"] = 1e3 * _median_s(lambda: ff4_gap(ff4_x), 21)

    rng = np.random.default_rng(7)
    X = rng.random((1000, 8))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(float) + 0.1 * rng.random(1000)
    samples = [(tuple(x), float(g)) for x, g in zip(X, y)]
    out["case.tree_fit_1k_ms"] = 1e3 * _median_s(
        lambda: xplain.fit_regression_tree(samples), 3)

    space = te.space()
    box = xplain.Subspace.box([50.0] * 4 + [0.0] * 4, [100.0] * 4 + [50.0] * 4,
                              labels=space.labels)
    out["case.check_significance_ms"] = 1e3 * _median_s(
        lambda: xplain.check_significance(box, gap, space, seed=7), 1)
    out["case.sample_region_10k_ms"] = 1e3 * _median_s(
        lambda: xplain.sample_region(box, space, 10_000, np.random.default_rng(7)), 3)

    for n in (8, 10, 11):
        pairs = list(zip(range(n), rng.permutation(n).tolist()))
        out[f"case.kendall_trend.n{n}_s"] = _median_s(
            lambda: xplain.kendall_trend(pairs), 1)
    for n in (20, 200):
        diffs = rng.normal(0.2, 1.0, n)
        out[f"case.wilcoxon.n{n}_ms"] = 1e3 * _median_s(
            lambda: xplain.wilcoxon_signed_rank(diffs), 5)

    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["trace"] and sys.argv[4:5] == ["--"]:
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[5:]))
    if sys.argv[1:2] == ["cases"] and len(sys.argv) == 3:
        sys.exit(cases(sys.argv[2]))
    sys.exit(f"usage: {sys.argv[0]} trace SPANS GAUGE -- ARGS... | cases OUT")
