"""The performance gap between a heuristic and its benchmark."""

import numpy as np

from .te import optimal_te, run_dp
from .vbp import min_bins, run_ff, sized_instance

EPS_DEN = 1e-9


def gap(inputs, heuristic_fn, benchmark_fn, mode="absolute", sense="max"):
    """How much worse the heuristic did on `inputs`, larger = worse.

    `sense` is the benchmark's own objective sense: for a maximizing
    benchmark the gap is benchmark - heuristic, for a minimizing one it is
    heuristic - benchmark. Relative mode divides by max(|benchmark|, eps).
    """
    if mode not in ("absolute", "relative"):
        raise ValueError(f"unknown gap mode {mode!r}")
    if sense not in ("max", "min"):
        raise ValueError(f"unknown benchmark sense {sense!r}")
    heuristic = float(heuristic_fn(inputs))
    benchmark = float(benchmark_fn(inputs))
    absolute = benchmark - heuristic if sense == "max" else heuristic - benchmark
    if mode == "absolute":
        return absolute
    return absolute / max(abs(benchmark), EPS_DEN)


def dp_gap_fn(inst, mode="absolute"):
    """demand vector -> routed-flow gap between optimal TE and pinning."""

    def fn(d):
        return gap(
            np.asarray(d, dtype=float),
            lambda x: run_dp(inst, x).total,
            lambda x: optimal_te(inst, x).total,
            mode=mode,
            sense="max",
        )

    return fn


def ff_gap_fn(inst, mode="absolute"):
    """ball-size vector -> bins-used gap between first-fit and the optimum.

    Both sides run with an unbounded pool of the instance's bin type, so the
    gap is defined on the whole size box.
    """
    if inst.dim != 1:
        raise ValueError("gap search expects single-dimension balls")

    def fn(sizes):
        sized = sized_instance(inst, sizes)
        return gap(
            sizes,
            lambda _x: run_ff(sized).bins_used,
            lambda _x: min_bins(sized).bins_used,
            mode=mode,
            sense="min",
        )

    return fn
