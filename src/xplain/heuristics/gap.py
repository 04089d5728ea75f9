"""The performance gap between a heuristic and its benchmark."""

import numpy as np

from .te import dp_and_optimal_totals
from .vbp import min_bins, run_ff, sized_instance

EPS_DEN = 1e-9


def gap(inputs, heuristic_fn, benchmark_fn, mode="absolute", sense="max"):
    """How much worse the heuristic did on `inputs`, larger = worse.

    `sense` is the benchmark's own objective sense: for a maximizing
    benchmark the gap is benchmark - heuristic, for a minimizing one it is
    heuristic - benchmark. Relative mode divides by max(|benchmark|, eps).
    The two functions may return arrays, one value per input; the gaps
    then come back as an array, entry by entry as for single values.
    """
    if mode not in ("absolute", "relative"):
        raise ValueError(f"unknown gap mode {mode!r}")
    if sense not in ("max", "min"):
        raise ValueError(f"unknown benchmark sense {sense!r}")
    heuristic = np.asarray(heuristic_fn(inputs), dtype=float)
    benchmark = np.asarray(benchmark_fn(inputs), dtype=float)
    out = benchmark - heuristic if sense == "max" else heuristic - benchmark
    if mode == "relative":
        out = out / np.maximum(np.abs(benchmark), EPS_DEN)
    return float(out) if out.ndim == 0 else out


def dp_gap_fn(inst, mode="absolute"):
    """demand vector -> routed-flow gap between optimal TE and pinning.

    Like every gap function of a Scenario, it also takes an N x n stack of
    inputs and returns the N gaps, bit for bit what N calls on the rows in
    turn would return, and says so by its `batched` attribute, which
    `analyzer.evaluate_gaps` reads.
    """

    def fn(d):
        d = np.asarray(d, dtype=float)
        D = d[None] if d.ndim == 1 else d
        # one pass routes each row with pinning, then without, in the order
        # per-row calls use the LPs the two share; optimal_te's totals wait here
        opt = []

        def pinning(X):
            dp, best = dp_and_optimal_totals(inst, X)
            opt.append(best)
            return dp

        gaps = gap(D, pinning, lambda _X: opt[0], mode=mode, sense="max")
        return float(gaps[0]) if d.ndim == 1 else gaps

    fn.batched = True
    return fn


def ff_gap_fn(inst, mode="absolute"):
    """ball-size vector -> bins-used gap between first-fit and the optimum.

    Both sides run with an unbounded pool of the instance's bin type, so the
    gap is defined on the whole size box. A stack of size vectors is
    evaluated one row at a time.
    """
    if inst.dim != 1:
        raise ValueError("gap search expects single-dimension balls")

    def one(sizes):
        sized = sized_instance(inst, sizes)
        return gap(
            sizes,
            lambda _x: run_ff(sized).bins_used,
            lambda _x: min_bins(sized).bins_used,
            mode=mode,
            sense="min",
        )

    def fn(sizes):
        if np.ndim(sizes) == 2:
            return np.array([one(x) for x in sizes], dtype=float)
        return one(sizes)

    fn.batched = True
    return fn
