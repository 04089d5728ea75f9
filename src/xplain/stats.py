"""Sample sizing, paired significance testing, and monotone trend testing.

The significance question is always one-sided: do points inside a candidate
region show a larger gap than their immediate outside neighbors? Pairing by
reflection across the nearest facet keeps the two samples dependent, which
is what the signed-rank test is for.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import EPS_MEM, evaluate_gaps
from .rng import substream
from .sampling import SamplingFailure, sample_region, stacked_rows

__all__ = [
    "AllZero",
    "SamplingFailure",
    "SignificanceReport",
    "check_significance",
    "dkw_samples",
    "kendall_trend",
    "wilcoxon_signed_rank",
]

WILCOXON_EXACT_LIMIT = 20   # enumerate sign patterns up to this many pairs
# paired differences within this share of max(1, max |d|) of zero count as
# zero, and magnitudes within it of each other as ties: gaps come from
# float LPs, whose rounding noise is no evidence either way
WILCOXON_TOL = 1e-9
KENDALL_EXACT_LIMIT = 10    # exact null (tie-group DP) up to this many points
ALTERNATIVES = ("greater", "less", "two-sided")


class AllZero(ValueError):
    """Every paired difference is zero; the test carries no information."""


def dkw_samples(epsilon, delta):
    """Samples needed for an empirical CDF within epsilon at confidence 1-delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))


def _noise(d):
    """The magnitude at or below which a difference in `d` is rounding noise."""
    return WILCOXON_TOL * max(1.0, float(np.abs(d).max(initial=0.0)))


def _midranks(magnitudes, tol=0.0):
    """Ranks from 1; each run of magnitudes within tol of its least shares a midrank."""
    mag = np.asarray(magnitudes, dtype=float)
    order = np.argsort(mag, kind="stable")
    ranks = np.empty(len(mag))
    i = 0
    while i < len(mag):
        j = i
        while j + 1 < len(mag) and mag[order[j + 1]] - mag[order[i]] <= tol:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_wilcoxon_p(ranks, w, alternative):
    # doubled ranks are integers even with midrank ties, so the null
    # distribution of 2W is a small integer convolution
    ranks2 = np.rint(2.0 * np.asarray(ranks)).astype(int)
    w2 = int(round(2.0 * w))
    top = int(ranks2.sum())
    counts = np.zeros(top + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:top + 1 - r]
        counts += shifted
    total = float(2 ** len(ranks2))
    p_ge = float(counts[min(w2, top):].sum()) / total if w2 <= top else 0.0
    p_le = float(counts[:max(w2, 0) + 1].sum()) / total if w2 >= 0 else 0.0
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))


def _upper_tail(z):
    # survival function of the standard normal, stable far into the tail
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _normal_wilcoxon_p(ranks, w, alternative):
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.asarray(ranks), return_counts=True)
    var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    sd = math.sqrt(var) if var > 0 else 0.0
    if sd == 0.0:
        return 1.0
    p_ge = _upper_tail((w - mu - 0.5) / sd)
    p_le = _upper_tail(-(w - mu + 0.5) / sd)
    if alternative == "greater":
        return p_ge
    if alternative == "less":
        return p_le
    return min(1.0, 2.0 * min(p_ge, p_le))


def wilcoxon_signed_rank(differences, alternative="greater", method="auto"):
    """Signed-rank test on paired differences.

    Differences within WILCOXON_TOL * max(1, max |d|) of zero are dropped
    as zeros (Pratt, JASA 1959), magnitudes within that of each other share
    a midrank, and W is the sum of the ranks of the positive differences.
    Exact enumeration of the 2^n sign patterns up to n = 20, a tie-corrected
    normal approximation with continuity correction beyond. Returns
    (W, p, method).
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"unknown alternative {alternative!r}")
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    d = np.asarray(differences, dtype=float)
    tol = _noise(d)
    d = d[np.abs(d) > tol]
    if len(d) == 0:
        raise AllZero("all differences are zero")
    ranks = _midranks(np.abs(d), tol)
    w = float(ranks[d > 0].sum())
    if method == "auto":
        method = "exact" if len(d) <= WILCOXON_EXACT_LIMIT else "normal"
    if method == "exact":
        return w, _exact_wilcoxon_p(ranks, w, alternative), "exact"
    return w, _normal_wilcoxon_p(ranks, w, alternative), "normal-approx"


@dataclass(frozen=True)
class SignificanceReport:
    """Outcome of the inside-versus-outside gap comparison."""

    n: int
    W: float
    p: float
    method: str
    keep: bool
    alpha: float


def _outside_partner(x, rows, rhs, space, margin):
    """Reflect x across its nearest facet that clipping cannot undo.

    `margin` is a fraction of the range projected on the facet normal, so
    the partner sits strictly outside rather than on the boundary.
    """
    norms = np.linalg.norm(rows, axis=1)
    usable = norms > 0
    if not np.any(usable):
        return None
    slack = np.full(len(rows), np.inf)
    slack[usable] = (rhs[usable] - rows[usable] @ x) / norms[usable]
    scale = np.zeros(len(rows))
    scale[usable] = margin * (np.abs(rows[usable]) @ space.ranges) / norms[usable]
    for r in np.argsort(slack, kind="stable"):
        if not usable[r]:
            continue
        y = space.clip(x + (slack[r] + scale[r]) * rows[r] / norms[r])
        if rows[r] @ y > rhs[r] + EPS_MEM:
            return y
    return None


def check_significance(subspace, gap_fn, space, n_pairs=None, margin=0.025,
                       alpha=0.05, seed=0):
    """Paired one-sided test: inside gaps exceed immediate-outside gaps.

    Draws n_pairs points uniformly inside the region, pairs each with its
    reflection just outside the nearest facet (clipped to the space), and
    runs the one-sided signed-rank test on the inside-minus-outside
    differences; a point with no partner keeps difference 0. All points
    and their partners go to gap_fn as one stack. n counts the
    differences the test does not drop as zeros. All-zero differences
    yield keep=False rather than an error; a region too thin to sample
    raises SamplingFailure.
    """
    if n_pairs is None:
        n_pairs = dkw_samples(0.1, 0.05)
    rng = substream(seed, "significance")
    inside = sample_region(subspace, space, n_pairs, rng)
    rows, rhs = stacked_rows(subspace, space.n)
    diffs = np.zeros(n_pairs)
    partners = [_outside_partner(x, rows, rhs, space, margin) for x in inside]
    paired = [k for k, y in enumerate(partners) if y is not None]
    # one stack, each point before its partner: the order of one pair at a time
    gaps = evaluate_gaps(gap_fn, [z for k in paired for z in (inside[k], partners[k])])
    diffs[paired] = gaps[0::2] - gaps[1::2]
    try:
        w, p, method = wilcoxon_signed_rank(diffs, "greater")
    except AllZero:
        return SignificanceReport(n=0, W=0.0, p=1.0, method="degenerate",
                                  keep=False, alpha=alpha)
    n_used = int(np.count_nonzero(np.abs(diffs) > _noise(diffs)))
    return SignificanceReport(n=n_used, W=w, p=p, method=method,
                              keep=p < alpha, alpha=alpha)


def _kendall_s(sx, sy):
    return int(np.sum(sx * sy))


def _takes(left, size, start=0):
    """Every sub-multiset of `size` items from `left` copies of each value.

    Yields ((value index, count >= 1), ...) in increasing value index.
    """
    if size == 0:
        yield ()
        return
    for v in range(start, len(left)):
        for k in range(1, min(left[v], size) + 1):
            for rest in _takes(left, size - k, v + 1):
                yield ((v, k),) + rest


def _kendall_null(x, y):
    """Exact null distribution of S over all n! pairings of y with x: {S: count}.

    S depends only on which multiset of y values each tie group of x takes,
    so a DP over the groups in increasing x replaces the n! enumeration.
    Its state is how many copies of each distinct y value the earlier
    groups took. A copy of value v joining a group adds (earlier values
    below v) - (earlier values above v) = 2*below_v + used_v - taken, and a
    group taking c_v copies of each v stands for multinomial(size; c)
    placements inside it; the m_v! orders of equal y values multiply every
    count at the end. The DP tracks T = S + (pairs across groups), which
    adds 2*below_v + used_v >= 0 per copy, as a polynomial in 2^width packed
    into one int: bit width*T holds the count of T, so adding to T is a
    left shift. No count exceeds n!, so the fields never overflow.
    """
    _, mult = np.unique(y, return_counts=True)
    _, sizes = np.unique(x, return_counts=True)
    mult, sizes = mult.tolist(), sizes.tolist()
    n = len(y)
    fact = [math.factorial(k) for k in range(n + 1)]
    width = fact[n].bit_length()
    layer = {(0,) * len(mult): 1}
    for size in sizes:
        nxt = {}
        for used, poly in layer.items():
            gain, taken = [], 0
            for u in used:
                gain.append(2 * taken + u)
                taken += u
            for take in _takes([m - u for m, u in zip(mult, used)], size):
                shift, ways, key = 0, fact[size], list(used)
                for v, k in take:
                    shift += k * gain[v]
                    ways //= fact[k]
                    key[v] += k
                key = tuple(key)
                nxt[key] = nxt.get(key, 0) + (poly << width * shift) * ways
        layer = nxt
    (poly,) = layer.values()
    across = (n * n - sum(g * g for g in sizes)) // 2
    scale = math.prod(fact[m] for m in mult)
    mask = (1 << width) - 1
    null = {}
    t = 0
    while poly:
        if poly & mask:
            null[t - across] = (poly & mask) * scale
        poly >>= width
        t += 1
    return null


def kendall_trend(pairs, alternative="greater"):
    """Kendall tau-b between feature values and gaps. Returns (tau, p).

    Exact permutation null up to KENDALL_EXACT_LIMIT points: the share of
    the n! pairings of gaps with feature values whose S reaches the
    observed one, counted by a DP over the feature's tie groups rather than
    by enumeration (see _kendall_null), in integers, so p is the same float
    the enumeration gives. Normal approximation with tie correction beyond.
    Fully tied data carries no trend information and reports (0, 1).
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"unknown alternative {alternative!r}")
    pts = [(float(a), float(b)) for a, b in pairs]
    if len(pts) < 2:
        raise ValueError("need at least two observations")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    n = len(x)
    iu, ju = np.triu_indices(n, 1)
    sx = np.sign(x[ju] - x[iu])
    sy = np.sign(y[ju] - y[iu])
    s_obs = _kendall_s(sx, sy)

    def tie_sizes(v):
        _, counts = np.unique(v, return_counts=True)
        return counts.astype(float)

    tx, ty = tie_sizes(x), tie_sizes(y)
    n0 = n * (n - 1) / 2.0
    n1 = float(np.sum(tx * (tx - 1) / 2.0))
    n2 = float(np.sum(ty * (ty - 1) / 2.0))
    den = math.sqrt((n0 - n1) * (n0 - n2))
    if den == 0.0:
        return 0.0, 1.0
    tau = s_obs / den

    if n <= KENDALL_EXACT_LIMIT:
        null = _kendall_null(x, y)
        total = math.factorial(n)
        p_ge = sum(k for s, k in null.items() if s >= s_obs) / total
        p_le = sum(k for s, k in null.items() if s <= s_obs) / total
    else:
        v0 = n * (n - 1) * (2 * n + 5)
        vt = float(np.sum(tx * (tx - 1) * (2 * tx + 5)))
        vu = float(np.sum(ty * (ty - 1) * (2 * ty + 5)))
        v1 = (np.sum(tx * (tx - 1)) * np.sum(ty * (ty - 1))) / (
            2.0 * n * (n - 1))
        v2 = (np.sum(tx * (tx - 1) * (tx - 2)) *
              np.sum(ty * (ty - 1) * (ty - 2))) / (
            9.0 * n * (n - 1) * (n - 2))
        var = (v0 - vt - vu) / 18.0 + v1 + v2
        sd = math.sqrt(var) if var > 0 else 0.0
        if sd == 0.0:
            return tau, 1.0
        p_ge = _upper_tail((s_obs - 1) / sd)
        p_le = _upper_tail(-(s_obs + 1) / sd)
    if alternative == "greater":
        return tau, p_ge
    if alternative == "less":
        return tau, p_le
    return tau, min(1.0, 2.0 * min(p_ge, p_le))
