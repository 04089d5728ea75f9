"""Deterministic work counters for the solver and the exact bin packer.

    with counting() as work:
        solve_mip(prog)
    work.pivots, work.nodes

The open counter lives in a context variable, so concurrent callers (threads,
asyncio tasks) each count their own work; with no counter open nothing is
counted. A nested `counting()` shadows the outer one until it closes.
"""

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class WorkCounts:
    pivots: int = 0  # simplex basis changes, in every LP and B&B node
    nodes: int = 0   # branch-and-bound nodes popped, pruned ones included
    # ParametricLP.solve calls, by whether a stored basis settled them
    lp_warm: int = 0
    lp_cold: int = 0     # cold-solved by solve_lp
    # heuristics.vbp.min_bins calls, by the step that settled each
    vbp_bound: int = 0   # first-fit met max(volume bound, L2)
    vbp_ffd: int = 0     # first-fit decreasing met it
    vbp_gg: int = 0      # the Gilmore-Gomory bound proved the better of the two
    vbp_search: int = 0  # the packing search met the bound
    vbp_milp: int = 0    # handed to optimal_vbp


_OPEN = contextvars.ContextVar("xplain_solver_work", default=None)


@contextmanager
def counting():
    """Count the solver work done inside the block into a fresh WorkCounts."""
    counts = WorkCounts()
    token = _OPEN.set(counts)
    try:
        yield counts
    finally:
        _OPEN.reset(token)


def open_counts():
    """The WorkCounts of the innermost open `counting()` block, or None."""
    return _OPEN.get()
