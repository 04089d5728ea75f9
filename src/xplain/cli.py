"""Command-line front end for the whole pipeline.

One JSON config file describes the scenario and stage parameters; a
mandatory --seed feeds every random draw through named substreams, so a
fixed (config, seed) pair produces byte-identical outputs. Progress and
errors go to standard error; machine-readable results go to standard
output and to files under --out.

Exit codes: 0 success, 1 bad configuration, 2 internal failure,
3 nothing found (no adversarial point, no significant subspace, trend
does not hold, or the target region cannot be sampled).

Each command imports what it runs when it starts, so a command pays for
its own modules only; a function is imported from the module that defines
it, so a binding patched there (as bench/tracer.py patches) is the one used.
"""

import argparse
import json
import logging
import math
import sys
from pathlib import Path

log = logging.getLogger("xplain")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTERNAL = 2
EXIT_NOT_FOUND = 3

COMMANDS = ("run-heuristic", "analyze", "subspaces", "explain",
            "generalize", "encode-milp")


class ConfigError(ValueError):
    pass


# configuration plumbing

def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _section(cfg, key):
    sec = cfg.get(key, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    return sec


def _scenario(cfg):
    from .heuristics.scenario import BUILTIN, builtin, load_scenario, scenario_from_dict
    from .heuristics.vbp import sized_instance

    ref = cfg.get("scenario")
    if ref is None:
        raise ConfigError("config needs a 'scenario' entry")
    try:
        if isinstance(ref, str):
            sc = builtin(ref) if ref in BUILTIN else load_scenario(ref)
        elif isinstance(ref, dict) and set(ref) == {"builtin"}:
            sc = builtin(ref["builtin"])
        elif isinstance(ref, dict):
            sc = scenario_from_dict(ref)
        else:
            raise ConfigError("'scenario' must be a name, path, or object")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot load scenario: {exc}") from exc
    if sc.kind == "vbp":
        try:
            sized_instance(sc.instance, sc.baseline_inputs())
        except ValueError as exc:
            raise ConfigError("commands take vbp scenarios of 1-D balls in one "
                              f"bin type: {exc}") from exc

    pair = cfg.get("pair")
    expected = "dp-vs-opt" if sc.kind == "te" else "ff-vs-opt"
    if pair is not None and pair != expected:
        raise ConfigError(
            f"pair {pair!r} does not match a {sc.kind} scenario "
            f"(expected {expected!r})")
    return sc


def _gap_settings(cfg, sc):
    """Gap mode and the adversarial threshold, with per-kind defaults.

    What counts as "underperforming enough" has no universal unit, so the
    defaults are one whole bin for packing and a 5% relative shortfall
    for routing; both can be overridden.
    """
    mode = cfg.get("gap_mode")
    analyzer = _section(cfg, "analyzer")
    min_gap = analyzer.get("min_gap")
    if mode is None:
        mode = "relative" if sc.kind == "te" else "absolute"
    if mode not in ("absolute", "relative"):
        raise ConfigError(f"gap_mode must be absolute or relative, got {mode!r}")
    if min_gap is None:
        min_gap = 0.05 if sc.kind == "te" else 1.0
    return mode, float(min_gap)


def _analyzer_budget(cfg):
    budget = _section(cfg, "analyzer").get("budget", 2000)
    if not isinstance(budget, int) or budget < 1:
        raise ConfigError("analyzer.budget must be a positive integer")
    return budget


def _growth_params(cfg):
    from .subspaces.generate import Limits
    from .subspaces.grow import SubspaceParams

    sec = _section(cfg, "subspaces")
    known = {"w0", "delta", "rho_min", "gamma", "n_shell", "max_depth",
             "min_leaf", "max_subspaces", "max_iterations"}
    extra = set(sec) - known
    if extra:
        raise ConfigError(f"unknown subspace settings: {sorted(extra)}")
    kwargs = {k: sec[k] for k in
              ("w0", "delta", "rho_min", "gamma", "n_shell", "max_depth",
               "min_leaf") if k in sec}
    try:
        growth = SubspaceParams(**kwargs)
        limits = Limits(max_subspaces=sec.get("max_subspaces", 8),
                        max_iterations=sec.get("max_iterations", 50))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return growth, limits


def _stats_params(cfg):
    from .subspaces.generate import StatsParams

    sec = _section(cfg, "stats")
    try:
        return StatsParams(n_pairs=sec.get("n_pairs"),
                           alpha=sec.get("alpha", 0.05),
                           margin=sec.get("margin", 0.025))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args):
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _num(v):
    v = float(v)
    return str(int(v)) if v == int(v) else f"{v:g}"


# commands

def cmd_run_heuristic(cfg, args):
    from .heuristics.vbp import Unplaceable, optimal_vbp, run_ff, sized_instance

    sc = _scenario(cfg)
    inputs = cfg.get("inputs", list(sc.baseline_inputs()))
    try:
        x = [float(v) for v in inputs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"inputs must be numbers: {exc}") from exc
    if not all(map(math.isfinite, x)):
        raise ConfigError("inputs must be finite")
    if len(x) != sc.dimension:
        raise ConfigError(
            f"scenario has {sc.dimension} inputs, config gives {len(x)}")

    if sc.kind == "te":
        try:
            dp, opt = sc.evaluate([x])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        sys.stdout.write(f"DP total {_num(dp.values[0])}\n")
        sys.stdout.write(f"OPT total {_num(opt.values[0])}\n")
    else:
        try:
            sized = sized_instance(sc.instance, x)
            ff = run_ff(sized)
        except (ValueError, Unplaceable) as exc:
            raise ConfigError(str(exc)) from exc
        # the MILP, not min_bins, until bench/tracer.py can time a command
        # shorter than its gauge's 20 ms sampling interval (see ROADMAP)
        opt = optimal_vbp(sized)
        sys.stdout.write(f"FF {ff.bins_used}\n")
        sys.stdout.write(f"OPT {opt.bins_used}\n")
    return EXIT_OK


def cmd_analyze(cfg, args):
    from .analyzer import NotFound, find_adversarial

    sc = _scenario(cfg)
    mode, min_gap = _gap_settings(cfg, sc)
    budget = _analyzer_budget(cfg)
    log.info("searching %s (budget %d, min_gap %g, %s gap)",
             sc.name, budget, min_gap, mode)
    found = find_adversarial(sc.space(), sc.gap_fn(mode), budget=budget,
                             min_gap=min_gap, seed=args.seed)
    if isinstance(found, NotFound):
        doc = {
            "found": False,
            "evaluations": found.evaluations,
            "best_gap": found.best_gap,
            "best_x": None if found.best_x is None else list(found.best_x),
        }
        _emit(doc)
        log.info("no input with gap >= %g", min_gap)
        return EXIT_NOT_FOUND
    doc = {
        "found": True,
        "labels": list(sc.labels()),
        "x": list(found.x),
        "gap": found.gap,
        "gap_mode": mode,
        "strategy": found.strategy,
        "evaluations": found.evaluations,
    }
    _emit(doc)
    if args.out is not None:
        out = _out_dir(args)
        (out / "point.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _write_samples_csv(path, labels, samples):
    rows = [",".join([*labels, "gap"])]
    for x, g in samples:
        rows.append(",".join([*(repr(float(v)) for v in x), repr(float(g))]))
    path.write_text("\n".join(rows) + "\n")


def cmd_subspaces(cfg, args):
    from .subspaces.generate import SearchParams, generate_subspaces
    from .subspaces.io import save_subspaces

    sc = _scenario(cfg)
    mode, min_gap = _gap_settings(cfg, sc)
    search = SearchParams(budget=_analyzer_budget(cfg), min_gap=min_gap)
    growth, limits = _growth_params(cfg)
    stats = _stats_params(cfg)
    out = _out_dir(args)
    space = sc.space()

    csv_files = []
    trace = []

    def collect(iteration, point, samples, candidate, report):
        path = out / f"samples-{iteration:03d}.csv"
        _write_samples_csv(path, space.labels, samples)
        csv_files.append(str(path))
        trace.append({
            "iteration": iteration,
            "seed_gap": point.gap,
            "kept": bool(report is not None and report.keep),
            "p": None if report is None else report.p,
        })
        log.info("iteration %d: seed gap %.6g, %s", iteration, point.gap,
                 "kept" if report is not None and report.keep else "discarded")

    subs = generate_subspaces(space, sc.gap_fn(mode), search=search,
                              growth=growth, stats=stats, limits=limits,
                              seed=args.seed, collect=collect)
    sub_path = out / "subspaces.json"
    save_subspaces(sub_path, subs)
    _emit({
        "kept": len(subs),
        "subspaces_file": str(sub_path),
        "sample_files": csv_files,
        "candidates": trace,
    })
    if not subs:
        log.info("no significant subspace found")
        return EXIT_NOT_FOUND
    return EXIT_OK


def cmd_explain(cfg, args):
    from .explain import emit_dot, emit_json, score_edges
    from .sampling import SamplingFailure
    from .subspaces.io import load_subspaces

    sc = _scenario(cfg)
    sub_file = cfg.get("subspace_file")
    if sub_file is None:
        raise ConfigError("explain needs config entry 'subspace_file'")
    try:
        subs = load_subspaces(sub_file)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load subspaces from {sub_file!r}: {exc}") from exc
    index = cfg.get("subspace_index", 0)
    if not isinstance(index, int) or not 0 <= index < len(subs):
        raise ConfigError(
            f"subspace_index {index!r} out of range (file has {len(subs)})")
    if subs[index].dimension != sc.dimension:
        raise ConfigError(
            f"subspace {index} has {subs[index].dimension} inputs, "
            f"scenario {sc.name!r} has {sc.dimension}")
    n_samples = _section(cfg, "explainer").get("n_samples", 3000)
    if not isinstance(n_samples, int) or n_samples < 1:
        raise ConfigError("explainer.n_samples must be a positive integer")

    net = sc.network
    try:
        hm = score_edges(net, sc.edge_flows, subs[index], space=sc.space(),
                         n_samples=n_samples, seed=args.seed)
    except SamplingFailure as exc:
        log.error("subspace too thin to sample: %s", exc)
        return EXIT_NOT_FOUND
    out = _out_dir(args)
    json_path = out / "heatmap.json"
    dot_path = out / "heatmap.dot"
    json_path.write_text(emit_json(hm))
    dot_path.write_text(emit_dot(hm, net))
    _emit({
        "n_samples": hm.n_samples,
        "edges": len(hm.scores),
        "files": [str(json_path), str(dot_path)],
    })
    return EXIT_OK


def cmd_generalize(cfg, args):
    from .generalize import (
        InstanceFamily,
        Predicate,
        TooFewInstances,
        evaluate_predicate,
        generate_instances,
        trend_to_json,
    )
    from .rng import fold

    fam_cfg = cfg.get("family")
    if not isinstance(fam_cfg, dict):
        raise ConfigError("generalize needs a 'family' object")
    if "seed" in fam_cfg:
        raise ConfigError("family seed comes from --seed, not the config")
    pred_cfg = cfg.get("predicate")
    if not isinstance(pred_cfg, dict):
        raise ConfigError("generalize needs a 'predicate' object")
    try:
        fam = InstanceFamily(
            kind=fam_cfg.get("kind"),
            count=fam_cfg.get("count", 8),
            size_range=tuple(fam_cfg.get("size_range", ())),
            capacity_range=tuple(fam_cfg.get("capacity_range", (50.0, 50.0))),
            threshold_range=(tuple(fam_cfg["threshold_range"])
                             if "threshold_range" in fam_cfg else None),
            seed=fold(args.seed, "generalize", "family"),
        )
        pred = Predicate(kind=pred_cfg.get("kind"),
                         feature=pred_cfg.get("feature"),
                         alpha=pred_cfg.get("alpha", 0.05))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    instances = generate_instances(fam)
    log.info("probing %d %s instances", len(instances), fam.kind)
    try:
        finding = evaluate_predicate(pred, instances,
                                     seed=fold(args.seed, "generalize"))
    except TooFewInstances as exc:
        raise ConfigError(str(exc)) from exc
    text = trend_to_json(finding)
    out = _out_dir(args)
    (out / "trend.json").write_text(text)
    sys.stdout.write(text)
    if not finding.holds:
        log.info("predicate does not hold (tau=%.3f, p=%.4g)",
                 finding.tau, finding.p)
        return EXIT_NOT_FOUND
    return EXIT_OK


def cmd_encode_milp(cfg, args):
    from . import flow
    from ._validation import check_scalar
    from .bridge.encode import encode_milp, milp_to_program, solve_encoded
    from .bridge.milp_io import load_milp
    from .solver.branch_bound import solve_mip

    path = cfg.get("milp")
    if path is None:
        raise ConfigError("encode-milp needs config entry 'milp'")
    try:
        milp = load_milp(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load MILP from {path!r}: {exc}") from exc
    try:
        shift = check_scalar(cfg.get("objective_shift", 0.0),
                             "objective_shift", low=0.0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    net, trace = encode_milp(milp, objective_shift=shift)
    out = _out_dir(args)
    net_path = out / "network.json"
    net_path.write_text(flow.to_json(net) + "\n")

    raw = solve_mip(milp_to_program(milp))
    report = {
        "objective_shift": shift,
        "network_file": str(net_path),
        "nodes": len(net.nodes),
        "edges": len(net.edges),
        "raw": {"status": raw.status, "objective": raw.objective},
    }
    try:
        value, x, y, _ = solve_encoded(net, trace)
        report["encoded"] = {"status": "optimal", "objective": value,
                             "x": x, "y": y}
    except flow.Infeasible:
        report["encoded"] = {"status": "infeasible", "objective": None}
    except flow.Unbounded:
        report["encoded"] = {"status": "unbounded", "objective": None}
    if raw.status == "optimal" and report["encoded"]["status"] == "optimal":
        report["agreement"] = bool(
            abs(raw.objective - report["encoded"]["objective"]) <= 1e-6)
    else:
        report["agreement"] = raw.status == report["encoded"]["status"]
    _emit(report)
    return EXIT_OK


DISPATCH = {
    "run-heuristic": cmd_run_heuristic,
    "analyze": cmd_analyze,
    "subspaces": cmd_subspaces,
    "explain": cmd_explain,
    "generalize": cmd_generalize,
    "encode-milp": cmd_encode_milp,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="xplain",
                     description="Adversarial analysis of allocation heuristics.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master random seed (u64); required here or in config")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        if args.seed is None:
            args.seed = cfg.get("seed")
        if args.seed is None:
            raise ConfigError("a seed is required (--seed or config 'seed')")
        args.seed = int(args.seed)
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if args.out is None and isinstance(cfg.get("out"), str):
            args.out = cfg["out"]
        return DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help and friends
        code = exc.code
        return 0 if code is None else int(code)
    except Exception as exc:  # pragma: no cover - defensive
        log.error("internal error: %s: %s", type(exc).__name__, exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
