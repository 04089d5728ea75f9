"""Scenario files: problem instances plus their input-space boxes.

A scenario's kind module (`te` or `vbp`) is imported where that kind is
handled, so a command loads only the code of the kind it runs.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import NamedTuple

import numpy as np

from .gap import gap

BUILTIN = ("fig1a_dp", "ff4", "fig3_ff17")


class Outcome(NamedTuple):
    """One side of `Scenario.evaluate` on an N x n stack."""

    values: np.ndarray     # per row: the routed total (TE), the bins used (VBP)
    # per row, the raw decisions: the per-path flows in the instance's
    # flow-layout order and a zero column (TE), the bin of each ball (VBP)
    decisions: np.ndarray


def _evaluate_te(inst, X):
    """Pinning, then the max flow alone, on each row in turn.

    So every row gets, bit for bit and with the same LP work, what `run_dp`
    then `optimal_te` on it would give.
    """
    from . import te

    D = te._checked_demands(inst, X, 2)
    flows = np.empty((2, len(D), len(inst.flow_layout.variables) + 1))
    for start in range(0, len(D), te.ROUTE_ROWS):
        rows = slice(start, start + te.ROUTE_ROWS)
        flows[:, rows] = te._route(inst, D[rows], (True, False))
    return tuple(map(Outcome, te._totals(inst, flows), flows))


def _evaluate_vbp(inst, X):
    """First-fit, then `min_bins`, on each row's sized instance in turn."""
    from .vbp import min_bins, run_ff, sized_instance

    if inst.dim != 1:
        raise ValueError("size inputs expect single-dimension balls")
    X = np.asarray(X, dtype=float)
    values = np.empty((2,) + X.shape[:1])
    decisions = np.empty((2,) + X.shape, dtype=np.intp)
    for i, x in enumerate(X):
        sized = sized_instance(inst, x)
        for side, alloc in enumerate((run_ff(sized), min_bins(sized))):
            values[side, i] = alloc.bins_used
            decisions[side, i] = alloc.assignment
    return tuple(Outcome(v, a) for v, a in zip(values, decisions))


@dataclass(frozen=True)
class Scenario:
    """A named instance with bounds on its outer inputs.

    For TE scenarios the inputs are the per-demand rates; for VBP they are
    the per-ball sizes. `bounds` is one (lo, hi) pair per input.
    """

    name: str
    kind: str            # "te" | "vbp"
    instance: object     # TeInstance | VbpInstance
    bounds: tuple        # ((lo, hi), ...)

    @property
    def dimension(self):
        return len(self.bounds)

    def labels(self):
        if self.kind == "te":
            return tuple(d.key for d in self.instance.demands)
        return tuple(f"ball{i}" for i in range(self.instance.n_balls))

    def evaluate(self, X):
        """(heuristic, benchmark) Outcomes on each row of the N x n stack X.

        TE runs demand pinning against the optimal routing, VBP first-fit
        against the optimal packing in an unbounded pool of the instance's
        bin type (`sized_instance`).
        """
        if self.kind == "te":
            return _evaluate_te(self.instance, X)
        return _evaluate_vbp(self.instance, X)

    def gap_fn(self, mode="absolute"):
        """input vector -> how much worse the heuristic did than the benchmark.

        The function also takes an N x n stack of inputs and returns the N
        gaps, bit for bit what N calls on the rows in turn would return, and
        says so by its `batched` attribute, which `analyzer.evaluate_gaps`
        reads.
        """

        def fn(x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 2 and self.kind == "vbp":
                # one gap() per row: vbp rows share no solver state, and
                # bench/tracer.py's gauge, which times a traced command only
                # after its first 20 ms of CPU, needs the per-row gap spans
                # to get there on vbp-ff4 (ROADMAP item 1)
                return np.array([fn(row) for row in x], dtype=float)
            X = x[None] if x.ndim == 1 else x
            bench = []  # the benchmark's values wait here, so gap() runs evaluate

            def heuristic(X):
                h, b = self.evaluate(X)
                bench.append(b.values)
                return h.values

            gaps = gap(X, heuristic, lambda _X: bench[0], mode=mode,
                       sense=self.benchmark_sense)
            return float(gaps[0]) if x.ndim == 1 else gaps

        fn.batched = True
        return fn

    @cached_property
    def network(self):
        """The flow network both sides share: for VBP, one bin per ball."""
        from .networks import te_network, vbp_network  # loads flow: import on use

        if self.kind == "te":
            return te_network(self.instance)
        from .vbp import sized_instance

        sized = sized_instance(self.instance, self.baseline_inputs())
        return vbp_network(sized, n_bins=self.instance.n_balls)

    def edge_flows(self, X):
        """(heuristic, benchmark) flows on `network`'s edges, N x E each."""
        from .networks import project_edges

        X = np.asarray(X, dtype=float)
        # row by row: as one stack, a traced fig1a_dp `explain` can end before
        # bench/tracer.py's gauge takes its first sample, after 20 ms of CPU
        # (ROADMAP item 1); evaluate(X) once the gauge is fixed
        rows = [self.evaluate(x[None]) for x in X]
        return tuple(project_edges(self.network, self.instance, X,
                                   np.vstack([row[side].decisions for row in rows]))
                     for side in (0, 1))

    def space(self):
        """The bounds as an analyzer search box, labelled per input."""
        from ..analyzer import InputSpace
        return InputSpace(self.bounds, labels=self.labels())

    @property
    def benchmark_sense(self):
        return "max" if self.kind == "te" else "min"

    def baseline_inputs(self):
        """The scenario's own nominal input vector."""
        if self.kind == "vbp":
            return tuple(s[0] for s in self.instance.sizes)
        return tuple(0.0 for _ in self.bounds)


def scenario_from_dict(doc):
    kind = doc["kind"]
    name = doc.get("name", "scenario")
    if kind == "te":
        from .te import Demand, Link, TeInstance, k_shortest_paths

        nodes = tuple(str(n) for n in doc["nodes"])
        links = tuple(Link(str(l["src"]), str(l["dst"]), float(l["capacity"]))
                      for l in doc["links"])
        k = int(doc.get("k_paths", 4))
        demands = []
        for d in doc["demands"]:
            src, dst = str(d["src"]), str(d["dst"])
            if "paths" in d:
                paths = tuple(tuple(str(n) for n in p) for p in d["paths"])
                shortest = (tuple(str(n) for n in d["shortest"])
                            if "shortest" in d else paths[0])
            else:
                paths = tuple(k_shortest_paths(nodes, links, src, dst, k))
                if not paths:
                    raise ValueError(f"no path from {src} to {dst}")
                shortest = paths[0]
            demands.append(Demand(src, dst, paths, shortest))
        inst = TeInstance(nodes, links, tuple(demands), float(doc["threshold"]))
        default = tuple((0.0, 2.0 * max(l.capacity for l in links))
                        for _ in demands)
    elif kind == "vbp":
        from .vbp import VbpInstance

        sizes = tuple(doc["sizes"])
        bins = doc.get("bins")
        cap = doc.get("bin_capacity", 1.0)
        if bins is None:
            inst = VbpInstance(sizes, None, cap)
        elif isinstance(bins, int):
            caps = (cap,) if not isinstance(cap, (list, tuple)) else tuple(cap)
            inst = VbpInstance(sizes, tuple(caps for _ in range(bins)))
        else:
            inst = VbpInstance(sizes, tuple(tuple(b) if isinstance(b, (list, tuple))
                                            else (b,) for b in bins))
        default = tuple((0.0, float(max(inst.bin_list(1)[0])))
                        for _ in range(inst.n_balls))
    else:
        raise ValueError(f"unknown scenario kind {kind!r}")

    bounds = doc.get("bounds")
    if bounds is None:
        bounds = default
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return Scenario(name, kind, inst, bounds)


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def builtin(name):
    """One of the bundled scenarios: fig1a_dp, ff4, fig3_ff17."""
    if name not in BUILTIN:
        raise KeyError(f"unknown builtin scenario {name!r}; have {BUILTIN}")
    text = resources.files("xplain.heuristics._data").joinpath(f"{name}.json").read_text()
    return scenario_from_dict(json.loads(text))
