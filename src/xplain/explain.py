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

from .flow import EPS_FLOW
from .rng import substream
from .sampling import sample_region
from .subspaces import subspace_to_dict

__all__ = [
    "EdgeScore",
    "Heatmap",
    "emit_dot",
    "emit_json",
    "score_edges",
]

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


def score_edges(net, evaluate, subspace, space, n_samples=N_SAMPLES, seed=0):
    """Sample `subspace` inside the box `space`; tally per-edge disagreement.

    `evaluate` maps the N x n stack of samples to (heuristic, benchmark)
    flows, two N x E arrays with one column per edge of `net` in order
    (normally `Scenario.edge_flows`). Deterministic for a fixed seed.
    Raises SamplingFailure when the subspace is too thin to sample.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = substream(seed, "explain", "samples")
    points = sample_region(subspace, space, n_samples, rng)

    H, B = (np.asarray(flows, dtype=float) for flows in evaluate(points))
    shape = (n_samples, len(net.edges))
    if H.shape != shape or B.shape != shape:
        raise ValueError(f"evaluate gave {H.shape} and {B.shape} flows, not {shape}")
    hs, bs = H > EPS_FLOW, B > EPS_FLOW
    both = (hs & bs).sum(axis=0).tolist()
    bench_only = (bs & ~hs).sum(axis=0).tolist()
    heur_only = (hs & ~bs).sum(axis=0).tolist()
    # summed in sample order, from 0
    delta = np.cumsum(np.abs(B - H), axis=0)[-1].tolist()

    scores = {
        e.id: EdgeScore(
            both=both[j],
            benchmark_only=bench_only[j],
            heuristic_only=heur_only[j],
            neither=n_samples - both[j] - bench_only[j] - heur_only[j],
            mean_abs_flow_delta=delta[j] / n_samples,
        )
        for j, e in enumerate(net.edges)
    }
    return Heatmap(n_samples=n_samples, scores=scores, subspace=subspace)


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
