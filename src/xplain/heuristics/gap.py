"""The performance gap between a heuristic and its benchmark."""

import numpy as np

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
