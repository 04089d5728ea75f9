"""Deterministic work counters for the solver.

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
