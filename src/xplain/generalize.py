"""Instance-agnostic trends: does the worst-case gap grow with a feature?

A predicate names a registered instance feature and a direction. The
evaluator probes each instance for its largest adversarial gap, pairs
the gaps with the feature values, and runs a one-sided Kendall trend
test. A monotone claim over a continuous instance family cannot be
checked as a logical universal, so the finding is a statistical trend;
every report carries a note saying exactly that.
"""

import json
from dataclasses import dataclass

import numpy as np

from .analyzer import NotFound, find_adversarial
from .heuristics import Demand, Link, Scenario, TeInstance, VbpInstance, k_shortest_paths
from .rng import fold, substream
from .stats import kendall_trend

__all__ = [
    "FEATURES",
    "InstanceFamily",
    "PROBE_BUDGET",
    "Predicate",
    "TooFewInstances",
    "TrendFinding",
    "evaluate_predicate",
    "generate_instances",
    "register_feature",
    "trend_to_json",
]

PROBE_BUDGET = 2000   # same search effort per instance keeps gaps comparable
MIN_INSTANCES = 5

STATISTICAL_NOTE = (
    "monotone predicate evaluated as a one-sided rank trend over sampled "
    "instances, not as a logical universal over the whole family")

FAMILY_KINDS = ("te-line", "te-random", "vbp-random")


class TooFewInstances(ValueError):
    pass


# feature registry: name -> callable(Scenario) -> float

FEATURES = {}


def register_feature(name, fn):
    if name in FEATURES:
        raise ValueError(f"feature {name!r} already registered")
    FEATURES[str(name)] = fn
    return fn


def _te_only(sc):
    if sc.kind != "te":
        raise ValueError("feature defined for traffic scenarios only")


def _vbp_only(sc):
    if sc.kind != "vbp":
        raise ValueError("feature defined for packing scenarios only")


def pinned_shortest_path_length(sc):
    """Most hops on the shortest path of any demand the heuristic can pin."""
    _te_only(sc)
    thr = sc.instance.threshold
    hops = [len(d.shortest) - 1
            for d, (lo, hi) in zip(sc.instance.demands, sc.bounds)
            if hi <= thr + 1e-12]
    return float(max(hops)) if hops else 0.0


def min_path_capacity(sc):
    """Tightest bottleneck over every demand's shortest path."""
    _te_only(sc)
    cap = {(l.src, l.dst): l.capacity for l in sc.instance.links}
    bottleneck = []
    for d in sc.instance.demands:
        legs = list(zip(d.shortest, d.shortest[1:]))
        bottleneck.append(min(cap[leg] for leg in legs))
    return float(min(bottleneck))


def ball_count(sc):
    _vbp_only(sc)
    return float(sc.instance.n_balls)


def ball_size_sum(sc):
    """Total volume available to the adversary: sum of size upper bounds."""
    _vbp_only(sc)
    return float(sum(hi for lo, hi in sc.bounds))


register_feature("pinned_shortest_path_length", pinned_shortest_path_length)
register_feature("min_path_capacity", min_path_capacity)
register_feature("ball_count", ball_count)
register_feature("ball_size_sum", ball_size_sum)


@dataclass(frozen=True)
class Predicate:
    kind: str        # "increasing" | "decreasing"
    feature: str
    alpha: float = 0.05

    def __post_init__(self):
        if self.kind not in ("increasing", "decreasing"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.feature not in FEATURES:
            raise ValueError(f"feature {self.feature!r} is not registered")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class InstanceFamily:
    """Recipe for a batch of related instances.

    size_range means chain length in links for te-line, node count for
    te-random and ball count for vbp-random. threshold_range defaults to
    the capacity range.
    """

    kind: str
    count: int
    size_range: tuple
    capacity_range: tuple = (50.0, 50.0)
    threshold_range: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.count < 2:
            raise ValueError("a family needs at least two instances")
        lo, hi = self.size_range
        if not (0 < lo <= hi):
            raise ValueError("size range must be a nonempty positive interval")
        clo, chi = self.capacity_range
        if not (0 < clo <= chi):
            raise ValueError("capacity range must be a nonempty positive interval")
        if self.threshold_range is None:
            object.__setattr__(self, "threshold_range", (clo, chi))
        tlo, thi = self.threshold_range
        if not (0 < tlo <= thi):
            raise ValueError("threshold range must be a nonempty positive interval")


def _uniform(rng, lo, hi):
    return float(lo) if lo == hi else float(rng.uniform(lo, hi))


def _line_scenario(length, capacity, threshold, name):
    """A capacity-C chain with one long detour for the end-to-end demand.

    Per-link filler demands saturate the chain, so pinning the end-to-end
    demand onto it costs up to length * threshold of routed flow that the
    detour would have saved.
    """
    chain = [f"v{j}" for j in range(length + 1)]
    detour = [f"m{j}" for j in range(1, length + 1)]
    nodes = tuple(chain + detour)
    side = max(capacity, threshold)
    links = [Link(chain[j], chain[j + 1], capacity) for j in range(length)]
    detour_path = [chain[0]] + detour + [chain[-1]]
    links += [Link(detour_path[j], detour_path[j + 1], side)
              for j in range(len(detour_path) - 1)]

    pinned = Demand(chain[0], chain[-1],
                    (tuple(chain), tuple(detour_path)), tuple(chain))
    fillers = [Demand(chain[j], chain[j + 1],
                      ((chain[j], chain[j + 1]),), (chain[j], chain[j + 1]))
               for j in range(length)]
    inst = TeInstance(nodes, tuple(links), (pinned, *fillers), threshold)
    bounds = ((0.0, min(threshold, capacity)),) + ((0.0, capacity),) * length
    return Scenario(name, "te", inst, bounds)


def _random_te_scenario(rng, n_nodes, capacity_range, threshold, name):
    nodes = tuple(f"n{j}" for j in range(n_nodes))
    links = [Link(nodes[j], nodes[j + 1],
                  _uniform(rng, *capacity_range))
             for j in range(n_nodes - 1)]
    have = {(l.src, l.dst) for l in links}
    extras = max(1, n_nodes // 2)
    for _ in range(extras * 4):
        if extras == 0:
            break
        i, j = rng.integers(0, n_nodes, size=2)
        if i == j or (nodes[i], nodes[j]) in have:
            continue
        links.append(Link(nodes[i], nodes[j], _uniform(rng, *capacity_range)))
        have.add((nodes[i], nodes[j]))
        extras -= 1

    demands = []
    n_dem = min(4, n_nodes - 1)
    pairs = set()
    while len(demands) < n_dem:
        i = int(rng.integers(0, n_nodes - 1))
        j = int(rng.integers(i + 1, n_nodes))
        if (i, j) in pairs:
            continue
        pairs.add((i, j))
        paths = tuple(k_shortest_paths(nodes, tuple(links), nodes[i], nodes[j], 4))
        demands.append(Demand(nodes[i], nodes[j], paths, paths[0]))
    inst = TeInstance(nodes, tuple(links), tuple(demands), threshold)
    top = max(l.capacity for l in links)
    bounds = ((0.0, top),) * len(demands)
    return Scenario(name, "te", inst, bounds)


def generate_instances(fam):
    """Deterministic batch of scenarios; size grows across the batch."""
    lo, hi = fam.size_range
    sizes = np.round(np.linspace(lo, hi, fam.count)).astype(int)
    out = []
    for i, size in enumerate(sizes):
        rng = substream(fam.seed, "instances", fam.kind, i)
        cap = _uniform(rng, *fam.capacity_range)
        thr = _uniform(rng, *fam.threshold_range)
        name = f"{fam.kind}-{i:03d}"
        if fam.kind == "te-line":
            out.append(_line_scenario(int(size), cap, thr, name))
        elif fam.kind == "te-random":
            out.append(_random_te_scenario(rng, max(2, int(size)),
                                           fam.capacity_range, thr, name))
        else:
            n_balls = int(size)
            nominal = rng.uniform(0.0, cap, size=n_balls)
            inst = VbpInstance(tuple((float(s),) for s in nominal), None, cap)
            bounds = ((0.0, cap),) * n_balls
            out.append(Scenario(name, "vbp", inst, bounds))
    return out


def _default_probe(scenario, seed):
    found = find_adversarial(scenario.space(), scenario.gap_fn(),
                             budget=PROBE_BUDGET, min_gap=0.0, seed=seed)
    if isinstance(found, NotFound):
        return float(found.best_gap if found.best_gap is not None else 0.0)
    return float(found.gap)


@dataclass(frozen=True)
class TrendFinding:
    predicate: Predicate
    tau: float
    p: float
    holds: bool
    observations: tuple   # (instance name, feature value, max gap) rows
    note: str = STATISTICAL_NOTE


def evaluate_predicate(pred, instances, gap_probe=None, seed=0):
    """Test a monotone predicate against probed worst-case gaps.

    gap_probe(scenario, seed) defaults to the analyzer with a fixed
    budget so gaps across instances reflect equal search effort.
    """
    if len(instances) < MIN_INSTANCES:
        raise TooFewInstances(
            f"need at least {MIN_INSTANCES} instances, got {len(instances)}")
    probe = gap_probe if gap_probe is not None else _default_probe
    feature = FEATURES[pred.feature]
    rows = []
    for i, sc in enumerate(instances):
        gap = float(probe(sc, fold(seed, "generalize", "probe", i)))
        rows.append((sc.name, float(feature(sc)), gap))

    pairs = [(f, g) for _, f, g in rows]
    side = "greater" if pred.kind == "increasing" else "less"
    tau, p = kendall_trend(pairs, alternative=side)
    sign_ok = tau > 0 if pred.kind == "increasing" else tau < 0
    return TrendFinding(
        predicate=pred,
        tau=tau,
        p=p,
        holds=bool(sign_ok and p < pred.alpha),
        observations=tuple(rows),
    )


def trend_to_json(finding):
    doc = {
        "predicate": {
            "kind": finding.predicate.kind,
            "feature": finding.predicate.feature,
            "alpha": finding.predicate.alpha,
        },
        "tau": finding.tau,
        "p": finding.p,
        "holds": finding.holds,
        "note": finding.note,
        "observations": [
            {"instance": name, "feature": feat, "max_gap": gap}
            for name, feat, gap in finding.observations
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
