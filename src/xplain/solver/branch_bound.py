"""Depth-first branch-and-bound over binaries and exactly-one groups.

The root relaxation is solved once, cold. Every other node is a bound change
on its parent: a branching fixing pins a variable to one of its bounds, and
the node re-optimises from its parent's basis with the dual simplex. A child
popped straight after its parent dives in place on the working tableau; a
later child of the most recent branching node starts from a copy of that
node's tableau; any other node is rebuilt from a copy of the root tableau by
pivoting onto its parent's basis. The stack holds only fixings, parent
bounds and bases; the three tableaux have one fixed size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .program import (
    BINARY,
    MAXIMIZE,
    BudgetExceeded,
    NumericalInstability,
    Solution,
)
from .simplex import EPS_FEAS, _iteration_limit, _verify, cold_start
from .work import open_counts

_INT_TOL = 1e-6
_FLOW_TOL = 1e-9
_BOUND_TOL = 1e-9
_ROUND_TOL = 1e-6  # an integral bound within this of an integer rounds to it

DEFAULT_NODE_LIMIT = 10 ** 6


@dataclass
class _Node:
    fixed: dict          # variable index -> pinned value (one of its bounds)
    bound: float = None  # the parent's relaxation value, when known
    start: tuple = None  # the parent's (basis, flipped), or None to solve cold


def _auto_integral(prog):
    """True when every objective term sits on a binary with an integer coefficient."""
    if not prog.objective:
        return True
    for idx, coef in prog.objective.items():
        if prog.variables[idx].kind != BINARY:
            return False
        if abs(coef - round(coef)) > 1e-12:
            return False
    return True


def _upper(var):
    """The relaxation's upper bound; a binary below 1 can only be 0."""
    if var.kind == BINARY:
        return 1.0 if var.upper is None or var.upper >= 1.0 else 0.0
    return np.inf if var.upper is None else float(var.upper)


def solve_mip(prog, node_limit=DEFAULT_NODE_LIMIT, integral_objective=None):
    """Globally optimal solve of a ConstraintProgram.

    Branches first on fractional binaries (lowest index), then on violated
    exactly-one groups (one child per designated-positive member, all other
    members fixed to zero). Depth-first with best-bound pruning; deterministic.
    A child inherits its parent's relaxation value and is pruned on it before
    any LP work.

    Parameters
    ----------
    prog : ConstraintProgram
    node_limit : int
        Maximum nodes popped (pruned ones included) before raising
        BudgetExceeded.
    integral_objective : bool or None
        When True, bounds are rounded toward the incumbent before pruning
        (valid when every attainable objective is an integer). None
        auto-detects: all objective terms on binaries with integer coefficients.

    Returns
    -------
    Solution
    """
    A, senses, b, c = prog.dense()
    sense = prog.sense
    maximize = sense == MAXIMIZE
    uppers = np.array([_upper(v) for v in prog.variables], dtype=float)
    if integral_objective is None:
        integral_objective = _auto_integral(prog)

    binaries = prog.binary_indices()
    groups = [tuple(g) for g in prog.exactly_one_groups]
    work = open_counts()

    incumbent = None  # (objective, x)
    stack = [_Node({})]
    nodes = 0
    saw_unbounded_leaf = False
    root = None  # optimal root tableau, when the root relaxation is bounded
    tab = None   # the working tableau
    live = None  # the start tuple whose basis `tab` holds, for an in-place dive
    last = None  # copy of the latest branching node's tableau, and its start
    last_start = None

    def better(a, b_):
        return a > b_ + _BOUND_TOL if maximize else a < b_ - _BOUND_TOL

    def prunable(bound):
        if incumbent is None:
            return False
        inc = incumbent[0]
        if integral_objective:
            bound = (math.floor(bound + _ROUND_TOL) if maximize
                     else math.ceil(bound - _ROUND_TOL))
            inc = round(inc)
        return not (bound > inc + _BOUND_TOL if maximize else bound < inc - _BOUND_TOL)

    def relax(node):
        """Solve the node's relaxation; returns (status, bound, x)."""
        nonlocal root, tab, live, last
        if node.start is None:
            lo = np.zeros(len(c))
            up = uppers.copy()
            for j, v in node.fixed.items():
                lo[j] = up[j] = v
            status, solved = cold_start(A, senses, b, c, sense, lo, up)
            if status != "optimal":
                return status, None, None
            if not node.fixed:  # the root: every later node warm-starts from it
                root, tab, last = solved, solved.copy(), solved.copy()
            else:
                tab = solved
        else:
            if node.start is not live:
                if node.start is last_start:
                    tab.load(last)
                else:
                    tab.restore(root, *node.start)
            for j, v in node.fixed.items():
                tab.fix(j, v)
            live = None
            status = tab.dual(_iteration_limit(tab.T))
            if status != "optimal":
                return status, None, None
        x = tab.values()
        return "optimal", float(c @ x), x

    def branched(start):
        """The children just pushed start from `tab`, which holds `start`."""
        nonlocal live, last_start
        live = start
        if start is not None:
            last.load(tab)
            last_start = start

    while stack:
        node = stack.pop()
        nodes += 1
        if work is not None:
            work.nodes += 1
        if nodes > node_limit:
            raise BudgetExceeded(f"branch-and-bound node limit {node_limit} exceeded")
        if node.bound is not None and prunable(node.bound):
            continue

        fixed = node.fixed
        status, bound, x = relax(node)
        if status == "infeasible":
            continue
        if status == "unbounded":
            # refine until the discrete variables are all fixed; an unbounded
            # relaxation with nothing left to fix is a truly unbounded program
            frac = next((i for i in binaries if i not in fixed), None)
            if frac is not None:
                for val in (1.0, 0.0):
                    if val <= uppers[frac]:
                        stack.append(_Node({**fixed, frac: val}))
                continue
            open_group = next(
                (g for g in groups
                 if sum(1 for mem in g if fixed.get(mem) != 0.0) > 1),
                None,
            )
            if open_group is not None:
                for keep_mem in reversed(open_group):
                    if any(mem != keep_mem and fixed.get(mem, 0.0) != 0.0
                           for mem in open_group):
                        continue  # contradicts an earlier nonzero fix
                    zeros = {mem: 0.0 for mem in open_group if mem != keep_mem}
                    stack.append(_Node({**fixed, **zeros}))
                continue
            saw_unbounded_leaf = True
            break
        if prunable(bound):
            continue
        # children re-optimise from this node's basis; none when it was solved
        # cold under an unbounded root
        start = None if root is None else (tab.basis.copy(), tab.flipped.copy())

        # branching target 1: fractional binary, lowest index
        frac = next(
            (i for i in binaries
             if i not in fixed and abs(x[i] - round(x[i])) > _INT_TOL),
            None,
        )
        if frac is not None:
            near = 1.0 if x[frac] >= 0.5 else 0.0
            for val in (1.0 - near, near):  # preferred child pushed last -> popped first
                stack.append(_Node({**fixed, frac: val}, bound, start))
            branched(start)
            continue

        # branching target 2: violated exactly-one group, lowest index
        viol = next(
            (g for g in groups
             if sum(1 for mem in g if x[mem] > _FLOW_TOL) > 1),
            None,
        )
        if viol is not None:
            for keep_mem in reversed(viol):
                if any(mem != keep_mem and fixed.get(mem, 0.0) != 0.0
                       for mem in viol):
                    continue
                zeros = {mem: 0.0 for mem in viol if mem != keep_mem}
                stack.append(_Node({**fixed, **zeros}, bound, start))
            branched(start)
            continue

        # integral and group-feasible: candidate incumbent
        if incumbent is None or better(bound, incumbent[0]):
            incumbent = (bound, x.copy())

    if saw_unbounded_leaf:
        return Solution(status="unbounded")
    if incumbent is None:
        return Solution(status="infeasible")
    obj, x = incumbent
    if not _verify(prog, x, A, senses, b):
        raise NumericalInstability("incumbent failed the feasibility recheck")
    for g in groups:
        if sum(1 for mem in g if x[mem] > max(_FLOW_TOL, EPS_FEAS)) > 1:
            raise NumericalInstability("incumbent violates an exactly-one group")
    return Solution(status="optimal", objective=float(obj), values=x,
                    names=tuple(v.name for v in prog.variables))
