"""Benchmark of the xplain command-line pipeline.

    python3 bench/run.py --workload te-fig1a --seed 7 --seconds 25 --trace 0

Run it from the repository root. Each workload runs xplain commands one
after another, each in a fresh interpreter, as one closed-loop client, and
repeats the whole sequence while the next pass still fits in --seconds.
With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass plus isolated layer cases and holds
the per-layer metrics. The last line of stdout is the result object; the
line before it is a report with every sample, run metadata, failure rows
with reproducers, result checks and output digests. bench/NOTES.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out"

# The subspaces command runs at this seed in every run: how far growth
# extends, and so its work, varies up to 3.5x between seeds (ff4, seeds
# 1-8), more than a 25 s run can average out. analyze, explain and the
# drawn points take the workload seed.
SUBSPACES_SEED = 7
DRAW_CAP_S = 6.0          # a drawn fig3_ff17 point still running is a failure
TRACE_DRAW_CAP_S = 60.0   # room for the solver's own error (46-67 s where seen)
SETUP_REPEATS = 5
# Nominal CPU seconds of one gauge unit (bench/gauge.py): the speed that the
# scaled times refer to. It is about what one unit took on the machine the
# bounds were set on.
UNIT_S = 0.001
TOL = 1e-9


@dataclass
class Step:
    label: str            # unique within a pass; names config and digests
    command: str
    config: dict
    seed: int
    stage: bool = False   # the workload's key stage, reported as stage_s
    cap: float = None     # wall-clock cap in seconds (drawn points only)
    inputs: list = None   # the input vector of a run-heuristic step


@dataclass
class Result:
    step: Step
    rc: object            # exit code, or "timeout"
    wall: float
    cpu: float
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)   # name -> sha256
    scaled: float = None  # CPU seconds at the gauge's reference speed

    @property
    def failed(self):
        return self.rc not in (0, 3)


def _out(workload):
    return f".bench_out/{workload}/out"


def _scenario_doc(name):
    return json.loads((SRC / "xplain/heuristics/_data" / f"{name}.json").read_text())


# workloads: name -> (set-up code, steps(seed, pass index))

TE_LINE = {"kind": "te-line", "count": 10, "size_range": [2, 6]}


def te_fig1a(seed, i):
    sc = {"scenario": "fig1a_dp", "analyzer": {"budget": 400, "min_gap": 0.05}}
    return [
        Step("analyze", "analyze", sc, seed),
        Step("subspaces", "subspaces",
             {**sc, "subspaces": {"max_subspaces": 1, "n_shell": 40}},
             SUBSPACES_SEED, stage=True),
        Step("explain", "explain",
             {"scenario": "fig1a_dp",
              "subspace_file": _out("te-fig1a") + "/subspaces.json",
              "explainer": {"n_samples": 600}}, seed),
    ]


def vbp_ff4(seed, i):
    sc = {"scenario": "ff4", "analyzer": {"budget": 200, "min_gap": 1.0}}
    return [
        Step("analyze", "analyze", sc, seed),
        Step("subspaces", "subspaces",
             {"scenario": "ff4", "analyzer": {"budget": 300, "min_gap": 1.0},
              "subspaces": {"max_subspaces": 1, "n_shell": 20},
              "stats": {"n_pairs": 40}},
             SUBSPACES_SEED, stage=True),
        Step("explain", "explain",
             {"scenario": "ff4",
              "subspace_file": _out("vbp-ff4") + "/subspaces.json",
              "explainer": {"n_samples": 200}}, seed),
    ]


def trend_te_line(seed, i):
    return [Step("generalize", "generalize",
                 {"family": TE_LINE,
                  "predicate": {"kind": "increasing",
                                "feature": "pinned_shortest_path_length"}},
                 seed, stage=True)]


def vbp_ff17(seed, i):
    bounds = np.array(_scenario_doc("fig3_ff17")["bounds"], dtype=float)
    u = np.random.default_rng([seed, i]).random(len(bounds))
    x = (bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])).tolist()
    nominal = _scenario_doc("fig3_ff17")["sizes"]
    return [
        Step("nominal", "run-heuristic", {"scenario": "fig3_ff17"}, seed,
             stage=True, inputs=nominal),
        Step(f"drawn-{i}", "run-heuristic",
             {"scenario": "fig3_ff17", "inputs": x}, seed, cap=DRAW_CAP_S, inputs=x),
    ]


def _setup_builtin(name):
    return ("import xplain.cli\nfrom xplain.heuristics import builtin\n"
            f"builtin({name!r})\n")


WORKLOADS = {
    "te-fig1a": (_setup_builtin("fig1a_dp"), te_fig1a),
    "vbp-ff4": (_setup_builtin("ff4"), vbp_ff4),
    "trend-te-line": (
        "import xplain.cli\n"
        "from xplain.generalize import InstanceFamily, generate_instances\n"
        f"generate_instances(InstanceFamily(kind={TE_LINE['kind']!r}, "
        f"count={TE_LINE['count']}, size_range={tuple(TE_LINE['size_range'])}, seed=7))\n",
        trend_te_line),
    "vbp-ff17": (_setup_builtin("fig3_ff17"), vbp_ff17),
}


# running commands

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _run(argv, cap=None):
    """Run argv to completion or cap; -> (rc, wall, cpu, stdout, stderr)."""
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=cap)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        rc = "timeout"
    except BaseException:  # interrupted, or SIGTERM (see main): leave no child behind
        proc.kill()
        proc.wait()
        raise
    return rc, time.perf_counter() - t0, _children_cpu() - cpu0, out, err


def _sha(data):
    return hashlib.sha256(data).hexdigest()


RESULT_FILES = {
    "analyze": ["point.json"],
    "subspaces": ["subspaces.json", "samples-*.csv"],
    "explain": ["heatmap.json", "heatmap.dot"],
    "generalize": ["trend.json"],
    "run-heuristic": [],
}


def _gauge_argv(path):
    return [sys.executable, str(BENCH / "gauge.py"), str(path)]


def scaled_cpu(cpu, gauge_file):
    """The process's CPU time less the gauge's units, at the reference speed."""
    g = json.loads(gauge_file.read_text())
    if not g["units"]:
        raise RuntimeError(f"the gauge took no samples: {gauge_file}")
    return (cpu - g["unit_cpu_s"]) * UNIT_S * g["units"] / g["unit_cpu_s"]


def run_step(workload, step, traced=None):
    """Run one command under the gauge, and the tracer when traced is a spans path."""
    cfg = WORK / workload / f"{step.label}.json"
    cfg.write_text(json.dumps(step.config, indent=1, sort_keys=True))
    out = _out(workload)
    for pattern in RESULT_FILES[step.command]:
        for old in (ROOT / out).glob(pattern):
            old.unlink()
    args = [step.command, "--config", str(cfg.relative_to(ROOT)),
            "--seed", str(step.seed), "--out", out]
    gauge = WORK / workload / "gauge.json"
    gauge.unlink(missing_ok=True)
    if traced is None:
        argv = [*_gauge_argv(gauge), "cli", "--", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), "trace", str(traced), str(gauge),
                "--", *args]
    rc, wall, cpu, stdout, stderr = _run(argv, step.cap)
    res = Result(step, rc, wall, cpu, stdout, stderr)
    if gauge.exists():  # not when the command hit its cap or was killed
        res.scaled = scaled_cpu(cpu, gauge)
    res.files["stdout"] = _sha(stdout.encode())
    for pattern in RESULT_FILES[step.command]:
        for path in sorted((ROOT / out).glob(pattern)):
            res.files[path.name] = _sha(path.read_bytes())
    return res


def measure_setup(workload, code):
    """Scaled, CPU and wall seconds of SETUP_REPEATS gauged fresh set-ups."""
    gauge = WORK / workload / "gauge.json"
    argv = [*_gauge_argv(gauge), "exec", code]
    _run(argv)  # warm-up: byte-compiles the sources once
    scaled, cpus, walls = [], [], []
    for _ in range(SETUP_REPEATS):
        rc, wall, cpu, _, err = _run(argv)
        if rc != 0:
            raise RuntimeError(f"setup failed: {err.strip()[-300:]}")
        scaled.append(scaled_cpu(cpu, gauge))
        cpus.append(cpu)
        walls.append(wall)
    return scaled, cpus, walls


# result checks: each returns (name, True | False | None for not run, detail)

def first_fit(sizes, cap=1.0):
    """Bins first-fit opens, the same test as xplain's: cap - size - used >= 0."""
    used = []
    for s in sizes:
        for j, u in enumerate(used):
            if cap - s - u >= 0:
                used[j] += s
                break
        else:
            used.append(s)
    return len(used)


def highs_opt(sizes, cap=1.0):
    """Minimum bins by scipy's HiGHS MILP, or None when scipy is not importable."""
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return None
    n = len(sizes)
    nx = n * n  # x[i, j]: ball i in bin j, then y[j]: bin j open
    c = np.concatenate([np.zeros(nx), np.ones(n)])
    rows, lo, hi = [], [], []
    for i in range(n):
        r = np.zeros(nx + n)
        r[i * n:(i + 1) * n] = 1.0
        rows.append(r), lo.append(1.0), hi.append(1.0)
    for j in range(n):
        r = np.zeros(nx + n)
        r[j:nx:n] = sizes
        r[nx + j] = -cap
        rows.append(r), lo.append(-np.inf), hi.append(0.0)
    for j in range(n - 1):
        r = np.zeros(nx + n)
        r[nx + j], r[nx + j + 1] = -1.0, 1.0
        rows.append(r), lo.append(-np.inf), hi.append(0.0)
    res = milp(c, constraints=LinearConstraint(np.array(rows), lo, hi),
               integrality=np.ones(nx + n), bounds=Bounds(0, 1))
    return int(round(res.fun)) if res.success else None


def _vbp_gap_checks(name, x, gap):
    """FF (first_fit) minus OPT (HiGHS) at x should equal the reported gap."""
    opt = highs_opt(x)
    if opt is None:
        return [(f"{name}.highs", None, "scipy.optimize.milp not importable")]
    ff = first_fit(x)
    return [(f"{name}.highs", abs((ff - opt) - gap) <= TOL,
             f"ff {ff} highs {opt} reported gap {gap}")]


def check(workload, res, heuristics):
    step, out = res.step, ROOT / _out(workload)
    cfg = step.config
    if res.failed:
        return []
    if step.command == "analyze":
        if res.rc == 3:
            return [("analyze", None, "no point above min_gap (exit 3)")]
        doc = json.loads(res.stdout)
        point = json.loads((out / "point.json").read_text())
        min_gap = cfg["analyzer"]["min_gap"]
        sc = heuristics.builtin(cfg["scenario"])
        again = sc.gap_fn(doc["gap_mode"])(np.array(doc["x"]))
        checks = [
            ("analyze.min_gap", doc["gap"] >= min_gap, f"{doc['gap']} >= {min_gap}"),
            ("analyze.point_file", point == doc, "point.json equals stdout"),
            ("analyze.recompute", abs(again - doc["gap"]) <= TOL, f"{again} vs {doc['gap']}"),
        ]
        if sc.kind == "vbp":
            checks += _vbp_gap_checks("analyze", doc["x"], doc["gap"])
        return checks
    if step.command == "subspaces":
        if res.rc == 3:
            return [("subspaces", None, "no significant subspace (exit 3)")]
        subs = json.loads((out / "subspaces.json").read_text())["subspaces"]
        checks = [("subspaces.kept", json.loads(res.stdout)["kept"] == len(subs) >= 1,
                   f"{len(subs)} kept")]
        for k, sub in enumerate(subs):
            x = np.array(sub["seed"]["x"])
            inside = all(
                np.all(np.array(rows).reshape(-1, len(x)) @ x <= np.array(rhs) + 1e-7)
                for rows, rhs in ((sub["A"], sub["C"]), (sub["T"], sub["V"])) if rows)
            sig = sub["significance"]
            checks += [(f"subspaces.{k}.contains_seed", inside, "A x <= C and T x <= V"),
                       (f"subspaces.{k}.p", sig["p"] < sig["alpha"],
                        f"p {sig['p']} < alpha {sig['alpha']}")]
            if cfg["scenario"] in ("ff4", "fig3_ff17"):
                checks += _vbp_gap_checks(f"subspaces.{k}.seed", sub["seed"]["x"],
                                          sub["seed"]["gap"])
        return checks
    if step.command == "explain":
        heat = json.loads((out / "heatmap.json").read_text())
        n = cfg["explainer"]["n_samples"]
        bad = [e for e, s in heat["edges"].items()
               if s["both"] + s["benchmark_only"] + s["heuristic_only"] + s["neither"] != n]
        return [("explain.n_samples", heat["n_samples"] == n, f"{heat['n_samples']}"),
                ("explain.counts", not bad and bool(heat["edges"]),
                 f"{len(heat['edges'])} edges, sums off on {bad[:3]}")]
    if step.command == "generalize":
        trend = json.loads((out / "trend.json").read_text())
        count = cfg["family"]["count"]
        return [("generalize.holds", trend["holds"] is True, f"tau {trend['tau']} p {trend['p']}"),
                ("generalize.observations", len(trend["observations"]) == count,
                 f"{len(trend['observations'])} of {count}")]
    if step.command == "run-heuristic":
        lines = dict(line.split() for line in res.stdout.strip().splitlines())
        ff, opt = int(lines["FF"]), int(lines["OPT"])
        checks = [(f"{step.label}.ff", ff == first_fit(step.inputs), f"FF {ff}")]
        if step.label == "nominal":
            checks.append(("nominal.ff9_opt8", (ff, opt) == (9, 8), f"FF {ff} OPT {opt}"))
        highs = highs_opt(step.inputs)
        checks.append((f"{step.label}.highs", None if highs is None else highs == opt,
                       f"OPT {opt} highs {highs}"))
        return checks
    return []


def failure_row(workload, res):
    step = res.step
    row = {"workload": workload, "step": step.label, "command": step.command,
           "exit": res.rc, "wall_s": round(res.wall, 3),
           "error": res.stderr.strip().splitlines()[-1:] or None,
           "reproducer": {
               "config": step.config, "seed": step.seed,
               "command": f"python3 -m xplain {step.command} --config CONFIG.json "
                          f"--seed {step.seed}  # CONFIG.json holds config"}}
    if step.inputs is not None:
        row["reproducer"]["inputs"] = step.inputs
        row["highs_opt"] = highs_opt(step.inputs)
        row["first_fit"] = first_fit(step.inputs)
    if step.cap is not None:
        row["cap_s"] = step.cap
    return row


# a run

def run_passes(workload, seed, budget_s, steps_fn):
    """Closed loop: whole passes while the next one still fits in budget_s."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append([run_step(workload, s) for s in steps_fn(seed, len(passes))])
        last = time.perf_counter() - p0
        if time.perf_counter() - t0 + last > budget_s:
            return passes


def determinism(pass_results):
    """Digest equality of every step that repeats with the same seed and config."""
    by_label = {}
    for results in pass_results:
        for r in results:
            if r.step.cap is None and not r.failed:
                by_label.setdefault(r.step.label, []).append(r.files)
    repeated = {k: v for k, v in by_label.items() if len(v) > 1}
    if not repeated:
        return [("determinism", None, "no step ran twice")]
    same = {k: all(f == v[0] for f in v) for k, v in repeated.items()}
    return [("determinism", all(same.values()),
             ", ".join(f"{k}: {'same' if ok else 'DIFFERENT'}" for k, ok in same.items()))]


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def load_spans(span_files):
    """Spans of every traced command as (name, start, end, parent, error, attrs, step)."""
    spans, excl = [], {"checks": 0, "rejects": 0}
    for path in span_files:
        if not path.exists():  # the command was killed before writing its spans
            continue
        doc = json.loads(path.read_text())
        base = len(spans)
        for name, t0, t1, parent, err, attrs in doc["spans"]:
            spans.append((name, t0, t1, parent + base if parent >= 0 else -1,
                          err, attrs or {}, path.stem))
        for k in excl:
            excl[k] += doc["exclusion"][k]
    return spans, excl


def layer_failures(spans):
    """One row per (command, layer, exception type) with its call count."""
    rows = {}
    for name, _, _, _, err, _, step in spans:
        if err and name != "cli":
            rows[(step, name, err)] = rows.get((step, name, err), 0) + 1
    return [{"step": step, "layer": name, "error": err, "calls": n}
            for (step, name, err), n in rows.items()]


def layer_metrics(spans, excl):
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def dur(ids):
        return [spans[i][2] - spans[i][1] for i in ids]

    def self_s(name):
        ids = of(name)
        return sum(dur(ids)) - sum(child[i] for i in ids)

    def under(name, parent_name):
        return [i for i in of(name) if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name]

    def failed(name):
        return sum(1 for i in of(name) if spans[i][4])

    def attr_sum(name, key):
        return sum(spans[i][5].get(key, 0) for i in of(name))

    lp, bb, gap = of("solver.simplex"), of("solver.branch_bound"), of("heuristics.gap")
    m = {
        "solver.simplex.calls": len(lp),
        "solver.simplex.self_s": self_s("solver.simplex"),
        "solver.simplex.call_ms_p50": 1e3 * _pct(dur(lp), 50),
        "solver.simplex.call_ms_p99": 1e3 * _pct(dur(lp), 99),
        "solver.simplex.tableau_cells_p50": _pct([spans[i][5].get("cells", 0) for i in lp], 50),
        "solver.simplex.failed": failed("solver.simplex"),
        "solver.branch_bound.calls": len(bb),
        "solver.branch_bound.self_s": self_s("solver.branch_bound"),
        "solver.branch_bound.lps_per_solve":
            len(under("solver.simplex", "solver.branch_bound")) / len(bb) if bb else 0.0,
        "solver.branch_bound.solve_ms_p50": 1e3 * _pct(dur(bb), 50),
        "solver.branch_bound.failed": failed("solver.branch_bound"),
        "heuristics.gap.evals": len(gap),
        "heuristics.gap.eval_ms_p50": 1e3 * _pct(dur(gap), 50),
        "heuristics.gap.eval_ms_p99": 1e3 * _pct(dur(gap), 99),
        "heuristics.gap.duplicate_share": attr_sum("heuristics.gap", "dup") / len(gap) if gap else 0.0,
        "heuristics.gap.failed": failed("heuristics.gap"),
        "analyzer.self_s": self_s("analyzer"),
        "analyzer.evals": len(under("heuristics.gap", "analyzer")),
        "analyzer.exclusion.checks": excl["checks"],
        "analyzer.exclusion.rejects": excl["rejects"],
        "subspaces.grow.self_s": self_s("subspaces.grow"),
        "subspaces.grow.evals": len(under("heuristics.gap", "subspaces.grow")),
        "subspaces.tree.fit_s": sum(dur(of("subspaces.tree"))),
        "subspaces.tree.rows": attr_sum("subspaces.tree", "rows"),
        "stats.check_significance.self_s": self_s("stats.check_significance"),
        "stats.check_significance.pairs": sum(
            spans[i][5].get("points", 0)
            for i in under("sampling.sample_region", "stats.check_significance")),
        "sampling.sample_region.s": sum(dur(of("sampling.sample_region"))),
        "sampling.sample_region.points": attr_sum("sampling.sample_region", "points"),
        "explain.score_edges.self_s": self_s("explain.score_edges"),
        "explain.score_edges.samples": attr_sum("explain.score_edges", "samples"),
        "stats.kendall_trend.s": sum(dur(of("stats.kendall_trend"))),
        "stats.kendall_trend.n": max((spans[i][5].get("n", 0) for i in of("stats.kendall_trend")), default=0),
        "stats.wilcoxon_signed_rank.s": sum(dur(of("stats.wilcoxon_signed_rank"))),
        "stats.wilcoxon_signed_rank.n": max((spans[i][5].get("n", 0) for i in of("stats.wilcoxon_signed_rank")), default=0),
        "generalize.generate_instances_s": sum(dur(of("generalize.generate_instances"))),
        "generalize.probe_self_s": self_s("generalize.evaluate_predicate"),
        "generalize.instances": attr_sum("generalize.generate_instances", "instances"),
    }
    for name in ("run_dp", "optimal_te"):
        m[f"heuristics.te.{name}.self_s"] = self_s(f"heuristics.te.{name}")
    for name in ("run_ff", "optimal_vbp"):
        m[f"heuristics.vbp.{name}.self_s"] = self_s(f"heuristics.vbp.{name}")
    m["heuristics.networks.project_allocation.self_s"] = self_s(
        "heuristics.networks.project_allocation")
    candidates = len(under("subspaces.grow", "subspaces.generate"))
    m["subspaces.kept_share"] = attr_sum("subspaces.generate", "kept") / candidates if candidates else 0.0
    for command in ("run-heuristic", "analyze", "subspaces", "explain", "generalize"):
        m[f"cli.{command.replace('-', '_')}_s"] = sum(
            spans[i][2] - spans[i][1] for i in of("cli") if spans[i][5].get("command") == command)
    return m


UNITS = {"peak_rss_mb": "MB", "results_ok": "share"}


def _median(values):
    return float(statistics.median(values))


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def timed_run(workload, seed, seconds, report):
    setup_code, steps_fn = WORKLOADS[workload]
    setup_scaled, setup_cpu, setup_wall = measure_setup(workload, setup_code)
    passes = run_passes(workload, seed, seconds, steps_fn)
    results = [r for p in passes for r in p]
    scaled, cpus, walls = {}, {}, {}  # label -> times over passes
    for r in results:
        scaled.setdefault(r.step.label, []).append(r.scaled)
        cpus.setdefault(r.step.label, []).append(r.cpu)
        walls.setdefault(r.step.label, []).append(r.wall)
    report["samples"] = {
        kind: {k: {"median": _median(v), "n": len(v), "values": v}
               for k, v in d.items() if None not in v}
        for kind, d in (("scaled", {"setup": setup_scaled, **scaled}),
                        ("cpu", {"setup": setup_cpu, **cpus}),
                        ("wall", {"setup": setup_wall, **walls}))}
    timed = [r.step for r in passes[0] if r.step.cap is None]
    # Times are CPU seconds scaled to the gauge's reference speed: the wall
    # clock counts the spells when the host runs other guests, and CPU time
    # moves with the host's changing speed (bench/gauge.py). Per-command
    # medians drop a slow phase that hits one pass of a command.
    metrics = {
        "setup_s": _median(setup_scaled),
        "scaled_cpu_s": sum(_median(scaled[s.label]) for s in timed),
        "scaled_stage_s": sum(_median(scaled[s.label]) for s in timed if s.stage),
    }
    report["cpu_s"] = sum(_median(cpus[s.label]) for s in timed)
    report["wall_s"] = sum(_median(walls[s.label]) for s in timed)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return results, passes, metrics


def traced_run(workload, seed, report):
    _, steps_fn = WORKLOADS[workload]
    plain = [run_step(workload, s) for s in steps_fn(seed, 0)]
    spans_dir = WORK / workload / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    steps = steps_fn(seed, 0)
    for s in steps:
        if s.cap is not None:
            s.cap = TRACE_DRAW_CAP_S
    span_files = [spans_dir / f"{s.label}.json" for s in steps]
    traced = [run_step(workload, s, f) for s, f in zip(steps, span_files)]
    spans, excl = load_spans(span_files)
    metrics = layer_metrics(spans, excl)
    report["layer_failures"] = layer_failures(spans)
    untraced = sum(r.scaled for r in plain if r.step.cap is None)
    traced_s = sum(r.scaled for r in traced if r.step.cap is None)
    metrics["trace.overhead_share"] = (traced_s - untraced) / untraced
    metrics["cli.cpu_s"] = sum(r.cpu for r in plain)
    metrics["cli.wall_s"] = sum(r.wall for r in plain)
    cases_file = WORK / workload / "cases.json"
    rc, _, _, _, err = _run([sys.executable, str(BENCH / "tracer.py"), "cases", str(cases_file)])
    if rc != 0:
        raise RuntimeError(f"layer cases failed: {err.strip()[-300:]}")
    metrics.update(json.loads(cases_file.read_text()))
    report["commands"] = {r.step.label: {"untraced_wall_s": r.wall, "untraced_cpu_s": r.cpu,
                                         "untraced_scaled_s": r.scaled} for r in plain}
    for r in traced:
        report["commands"][r.step.label].update(traced_wall_s=r.wall, traced_cpu_s=r.cpu,
                                                traced_scaled_s=r.scaled)
    return plain + traced, [plain, traced], metrics


def metadata():
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version,
            "platform": platform.platform()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "xplain" / "cli.py").is_file():
        sys.exit(f"no xplain sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import xplain.heuristics

    wdir = WORK / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    (ROOT / _out(args.workload)).mkdir(parents=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "meta": metadata(), "load_before": os.getloadavg()}
    if args.trace:
        results, passes, metrics = traced_run(args.workload, args.seed, report)
    else:
        results, passes, metrics = timed_run(args.workload, args.seed, args.seconds, report)
    report["load_after"] = os.getloadavg()

    checks = []
    for r in results:
        try:
            checks += check(args.workload, r, xplain.heuristics)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            checks.append((f"{r.step.label}.output", False, f"{type(exc).__name__}: {exc}"))
    checks += determinism(passes)
    ran = [ok for _, ok, _ in checks if ok is not None]
    failed = sum(r.failed for r in results)
    if args.trace:
        metrics["failed_share"] = failed / len(results)
    else:
        metrics["results_ok"] = sum(ran) / len(ran) if ran else 0.0
    report["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    report["failures"] = [failure_row(args.workload, r) for r in results if r.failed]
    report["failed_share"] = failed / len(results)
    report["digests"] = [{r.step.label: r.files for r in p} for p in passes]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(ran) and all(ran),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }, sort_keys=True))


if __name__ == "__main__":
    main()
