"""Edge-level heatmaps of where a heuristic and its benchmark disagree.

For each sample drawn from a subspace, both solvers run and their
decisions are projected onto the shared flow network. An edge scores +1
on a sample when only the benchmark sends flow across it, -1 when only
the heuristic does, and 0 when they agree; the per-edge mean over all
samples is the heatmap value. Magnitude differences (mean |flow delta|)
are recorded alongside but not colored.
"""

import json
from dataclasses import dataclass

import numpy as np

from .analyzer import InputSpace
from .heuristics import (
    min_bins,
    optimal_te,
    project_allocation,
    run_dp,
    run_ff,
    sized_instance,
    to_flow_network,
)
from .rng import substream
from .sampling import sample_region
from .subspaces import subspace_from_dict, subspace_to_dict

__all__ = [
    "EPS_FLOW",
    "EdgeScore",
    "Heatmap",
    "emit_dot",
    "emit_json",
    "heatmap_from_json",
    "scenario_evaluators",
    "score_edges",
]

EPS_FLOW = 1e-9  # an edge "sends flow" when its rate exceeds this

N_SAMPLES = 3000


@dataclass(frozen=True)
class EdgeScore:
    """Agreement counts for one edge over the sampled inputs."""

    both: int
    benchmark_only: int
    heuristic_only: int
    neither: int
    mean_abs_flow_delta: float

    @property
    def total(self):
        return self.both + self.benchmark_only + self.heuristic_only + self.neither

    @property
    def mean(self):
        return (self.benchmark_only - self.heuristic_only) / self.total


@dataclass(frozen=True)
class Heatmap:
    n_samples: int
    scores: dict          # edge id -> EdgeScore
    subspace: object = None

    def __post_init__(self):
        for eid, sc in self.scores.items():
            if sc.total != self.n_samples:
                raise ValueError(
                    f"edge {eid!r}: counts sum to {sc.total}, not {self.n_samples}")

    def mean(self, edge_id):
        return self.scores[edge_id].mean

    def means(self):
        return {eid: sc.mean for eid, sc in self.scores.items()}


def _box_space(subspace):
    """Smallest axis box implied by the subspace's single-variable rows."""
    n = len(subspace.C) // 2
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for rows, rhs in ((subspace.A, subspace.C), (subspace.T, subspace.V)):
        for row, bound in zip(rows, rhs):
            row = np.asarray(row, dtype=float)
            (nz,) = np.nonzero(row)
            if len(nz) != 1:
                continue
            i = nz[0]
            if row[i] > 0:
                hi[i] = min(hi[i], bound / row[i])
            else:
                lo[i] = max(lo[i], bound / row[i])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("subspace rows do not bound every dimension; "
                         "pass the scenario space explicitly")
    labels = getattr(subspace, "labels", None)
    return InputSpace(tuple(zip(lo, hi)), labels=labels)


def score_edges(net, heuristic_eval, benchmark_eval, subspace, space=None,
                n_samples=N_SAMPLES, seed=0):
    """Sample the subspace and tally per-edge disagreement on `net`.

    The evaluators map an input vector to an edge-id -> flow mapping
    (normally `project_allocation` of the respective solver's output).
    Deterministic for a fixed seed. Raises SamplingFailure when the
    subspace is too thin to sample.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if space is None:
        space = _box_space(subspace)
    rng = substream(seed, "explain", "samples")
    points = sample_region(subspace, space, n_samples, rng)

    edge_ids = [e.id for e in net.edges]
    bench_only = dict.fromkeys(edge_ids, 0)
    heur_only = dict.fromkeys(edge_ids, 0)
    both = dict.fromkeys(edge_ids, 0)
    delta = dict.fromkeys(edge_ids, 0.0)

    for x in points:
        hflow = heuristic_eval(x)
        bflow = benchmark_eval(x)
        for eid in edge_ids:
            h = hflow.get(eid, 0.0)
            b = bflow.get(eid, 0.0)
            hs, bs = h > EPS_FLOW, b > EPS_FLOW
            if hs and bs:
                both[eid] += 1
            elif bs:
                bench_only[eid] += 1
            elif hs:
                heur_only[eid] += 1
            delta[eid] += abs(b - h)

    scores = {
        eid: EdgeScore(
            both=both[eid],
            benchmark_only=bench_only[eid],
            heuristic_only=heur_only[eid],
            neither=n_samples - both[eid] - bench_only[eid] - heur_only[eid],
            mean_abs_flow_delta=delta[eid] / n_samples,
        )
        for eid in edge_ids
    }
    return Heatmap(n_samples=n_samples, scores=scores, subspace=subspace)


def scenario_evaluators(scenario):
    """(net, heuristic_eval, benchmark_eval) for a scenario's solver pair.

    TE compares demand pinning against the optimal routing; VBP compares
    first-fit against the optimal packing, both over a pool of one bin
    per ball so every assignment fits the shared network.
    """
    inst = scenario.instance
    if scenario.kind == "te":
        net = to_flow_network(inst, "dp")

        def heuristic_eval(x):
            return project_allocation(run_dp(inst, x), net, inst)

        def benchmark_eval(x):
            return project_allocation(optimal_te(inst, x), net, inst)

        return net, heuristic_eval, benchmark_eval

    if scenario.kind == "vbp":
        net = to_flow_network(sized_instance(inst, scenario.baseline_inputs()), "ff",
                              n_bins=inst.n_balls)

        def heuristic_eval(x):
            s = sized_instance(inst, x)
            return project_allocation(run_ff(s), net, s)

        def benchmark_eval(x):
            s = sized_instance(inst, x)
            return project_allocation(min_bins(s), net, s)

        return net, heuristic_eval, benchmark_eval

    raise ValueError(f"unknown scenario kind {scenario.kind!r}")


NODE_FILLS = {
    "Source": "#d5e8d4",
    "Sink": "#f8cecc",
    "Split": "#dae8fc",
    "Pick": "#ffe6cc",
    "Copy": "#e1d5e7",
    "Multiply": "#fff2cc",
    "AllEqual": "#f0f0f0",
}

NEUTRAL = "#c0c0c0"


def _behavior_name(beh):
    kind = type(beh).__name__
    if kind == "Source":
        return f"Source({type(beh.inner).__name__})"
    return kind


def _edge_color(mean):
    if mean == 0.0:
        return NEUTRAL
    # white at |mean| -> 0, saturated blue (positive) or red (negative) at 1
    fade = round(255 * (1.0 - abs(mean)))
    if mean > 0:
        return f"#{fade:02x}{fade:02x}ff"
    return f"#ff{fade:02x}{fade:02x}"


def emit_dot(hm, net):
    """Graphviz rendering: blue = benchmark-only edges, red = heuristic-only."""
    lines = [
        "digraph heatmap {",
        "  rankdir=LR;",
        '  node [style=filled, fontname="Helvetica"];',
        '  edge [fontname="Helvetica"];',
    ]
    for nid in sorted(net.nodes):
        beh = _behavior_name(net.nodes[nid])
        fill = NODE_FILLS.get(type(net.nodes[nid]).__name__, NEUTRAL)
        lines.append(f'  "{nid}" [fillcolor="{fill}", label="{nid}\\n{beh}"];')
    for e in sorted(net.edges, key=lambda e: e.id):
        sc = hm.scores.get(e.id)
        if sc is None:
            mean, tooltip = 0.0, "no samples"
        else:
            mean = sc.mean
            tooltip = (f"{e.id}: both={sc.both} benchmark_only={sc.benchmark_only} "
                       f"heuristic_only={sc.heuristic_only} neither={sc.neither} "
                       f"mean={mean:+.4f}")
        width = 1.0 + 3.0 * abs(mean)
        lines.append(
            f'  "{e.tail}" -> "{e.head}" [color="{_edge_color(mean)}", '
            f'penwidth={width:.2f}, tooltip="{tooltip}", label="{mean:+.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_json(hm):
    doc = {
        "n_samples": hm.n_samples,
        "subspace": None if hm.subspace is None else subspace_to_dict(hm.subspace),
        "edges": {
            eid: {
                "both": sc.both,
                "benchmark_only": sc.benchmark_only,
                "heuristic_only": sc.heuristic_only,
                "neither": sc.neither,
                "mean": sc.mean,
                "mean_abs_flow_delta": sc.mean_abs_flow_delta,
            }
            for eid, sc in sorted(hm.scores.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def heatmap_from_json(text):
    doc = json.loads(text)
    scores = {
        eid: EdgeScore(
            both=int(rec["both"]),
            benchmark_only=int(rec["benchmark_only"]),
            heuristic_only=int(rec["heuristic_only"]),
            neither=int(rec["neither"]),
            mean_abs_flow_delta=float(rec["mean_abs_flow_delta"]),
        )
        for eid, rec in doc["edges"].items()
    }
    sub = doc.get("subspace")
    return Heatmap(
        n_samples=int(doc["n_samples"]),
        scores=scores,
        subspace=None if sub is None else subspace_from_dict(sub),
    )
