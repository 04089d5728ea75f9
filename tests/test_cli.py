"""Command-line behavior: fixtures, exit codes, byte-stable reruns."""

import json
import subprocess
import sys

import pytest

from xplain import flow
from xplain.cli import main
from xplain.heuristics import builtin
from xplain.subspaces import Subspace, load_subspaces, save_subspaces

FIG1A_INPUTS = [100, 50, 0, 0, 100, 0, 0, 0]

TWO_BALLS = {"kind": "vbp", "name": "two-balls", "sizes": [0.6, 0.6],
             "bins": None, "bin_capacity": 1.0}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# run-heuristic

def test_run_heuristic_fig1a(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "fig1a_dp", "inputs": FIG1A_INPUTS})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 0
    assert out == "DP total 150\nOPT total 250\n"


def test_run_heuristic_ff17(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "fig3_ff17"})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 0
    assert out == "FF 9\nOPT 8\n"


def test_run_heuristic_zero_demands(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "fig1a_dp"})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 0
    assert out == "DP total 0\nOPT total 0\n"


def test_run_heuristic_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "fig1a_dp", "inputs": FIG1A_INPUTS})
    _, first = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    _, second = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert first == second


def test_run_heuristic_wrong_arity(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "fig1a_dp", "inputs": [1, 2]})
    code, _ = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 1


def test_run_heuristic_needs_one_bin_type(tmp_path, capsys):
    mixed = dict(TWO_BALLS, bins=[0.8, 1.0])
    cfg = write_config(tmp_path, "c.json", {"scenario": mixed})
    code, _ = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 1
    fixed = dict(TWO_BALLS, bins=[1.0, 1.0])
    cfg = write_config(tmp_path, "c.json", {"scenario": fixed})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 0 and out == "FF 2\nOPT 2\n"


def test_run_heuristic_negative_demand_is_config_error(tmp_path, capsys, caplog):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "fig1a_dp", "inputs": [100, -1, 0, 0, 100, 0, 0, 0]})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 1 and out == ""
    assert "config error: demands must be nonnegative" in caplog.text


def test_run_heuristic_oversized_ball_is_config_error(tmp_path, capsys, caplog):
    cfg = write_config(tmp_path, "c.json", {"scenario": "ff4", "inputs": [1.5, 0.1, 0.1, 0.1]})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 1 and out == ""
    assert "config error: ball 0 fits in no bin" in caplog.text


@pytest.mark.parametrize("scenario, inputs", [
    ("ff4", [float("nan"), 0.1, 0.1, 0.1]),
    ("fig1a_dp", [100, float("inf"), 0, 0, 100, 0, 0, 0]),
])
def test_run_heuristic_non_finite_input_is_config_error(tmp_path, capsys, caplog,
                                                        scenario, inputs):
    cfg = write_config(tmp_path, "c.json", {"scenario": scenario, "inputs": inputs})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg, "--seed", "1")
    assert code == 1 and out == ""
    assert "config error: inputs must be finite" in caplog.text


@pytest.mark.parametrize("command", ["analyze", "subspaces", "run-heuristic"])
@pytest.mark.parametrize("scenario", [
    dict(TWO_BALLS, sizes=[[0.6, 0.2], [0.6, 0.2]], bin_capacity=[1.0, 1.0]),
    dict(TWO_BALLS, bins=[0.8, 1.0]),
], ids=["2-d-balls", "mixed-bins"])
def test_vbp_scenario_no_command_can_evaluate_is_config_error(tmp_path, capsys, caplog,
                                                              command, scenario):
    cfg = write_config(tmp_path, "c.json", {"scenario": scenario, "analyzer": {"budget": 20}})
    code, out = run_cli(capsys, command, "--config", cfg, "--seed", "1",
                        "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert "1-D balls in one bin type" in caplog.text


# analyze

def test_analyze_finds_ff_gap(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "ff4", "analyzer": {"budget": 300}})
    code, out = run_cli(capsys, "analyze", "--config", cfg, "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["gap"] >= 1.0
    assert doc["labels"] == ["ball0", "ball1", "ball2", "ball3"]
    assert doc["evaluations"] <= 300


def test_analyze_not_found_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": TWO_BALLS, "analyzer": {"budget": 60}})
    code, out = run_cli(capsys, "analyze", "--config", cfg, "--seed", "3")
    assert code == 3
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["best_gap"] == 0.0


def test_analyze_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "ff4", "analyzer": {"budget": 200}})
    _, first = run_cli(capsys, "analyze", "--config", cfg, "--seed", "9")
    _, second = run_cli(capsys, "analyze", "--config", cfg, "--seed", "9")
    assert first == second
    _, other = run_cli(capsys, "analyze", "--config", cfg, "--seed", "10")
    assert first != other


def test_analyze_writes_point_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "ff4", "analyzer": {"budget": 200}})
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "analyze", "--config", cfg, "--seed", "3",
                        "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "point.json").read_text()) == json.loads(out)


# subspaces

SUBS_CFG = {
    "scenario": "ff4",
    "analyzer": {"budget": 300, "min_gap": 1.0},
    "subspaces": {"n_shell": 40, "max_subspaces": 1, "max_iterations": 2},
    "stats": {"n_pairs": 60},
}


def test_subspaces_finds_and_saves(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", SUBS_CFG)
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "subspaces", "--config", cfg, "--seed", "2",
                        "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["kept"] == 1
    subs = load_subspaces(out_dir / "subspaces.json")
    assert len(subs) == 1
    assert subs[0].contains(subs[0].seed.x)  # reload keeps seed membership
    csv = (out_dir / "samples-000.csv").read_text().splitlines()
    assert csv[0] == "ball0,ball1,ball2,ball3,gap"
    assert len(csv) > 100


def test_subspaces_none_found_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "scenario": TWO_BALLS,
        "analyzer": {"budget": 60, "min_gap": 1.0},
        "subspaces": {"n_shell": 20, "max_iterations": 2},
    })
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "subspaces", "--config", cfg, "--seed", "2",
                        "--out", str(out_dir))
    assert code == 3
    assert json.loads(out)["kept"] == 0
    assert load_subspaces(out_dir / "subspaces.json") == []


@pytest.mark.parametrize("section, key, value", [
    ("subspaces", "max_subspaces", "two"),
    ("subspaces", "max_iterations", -3),
    ("stats", "n_pairs", 0),
    ("stats", "margin", -1),
], ids=["max_subspaces-two", "max_iterations-negative", "n_pairs-zero",
        "margin-negative"])
def test_subspaces_bad_limit_is_config_error(tmp_path, capsys, section, key,
                                             value):
    cfg_doc = dict(SUBS_CFG)
    cfg_doc[section] = dict(SUBS_CFG[section], **{key: value})
    cfg = write_config(tmp_path, "c.json", cfg_doc)
    code, out = run_cli(capsys, "subspaces", "--config", cfg, "--seed", "2",
                        "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""


def test_subspaces_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", SUBS_CFG)
    out_dir = tmp_path / "out"
    _, first = run_cli(capsys, "subspaces", "--config", cfg, "--seed", "2",
                       "--out", str(out_dir))
    snap = (out_dir / "subspaces.json").read_bytes()
    _, second = run_cli(capsys, "subspaces", "--config", cfg, "--seed", "2",
                        "--out", str(out_dir))
    assert first == second
    assert (out_dir / "subspaces.json").read_bytes() == snap


# explain

def ff4_box_file(tmp_path):
    sc = builtin("ff4")
    sub = Subspace.box([0.0, 0.47, 0.49, 0.49], [0.43, 0.51, 0.53, 0.53],
                       labels=sc.labels())
    path = tmp_path / "subspaces.json"
    save_subspaces(path, [sub])
    return str(path)


def test_explain_writes_heatmap(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "scenario": "ff4",
        "subspace_file": ff4_box_file(tmp_path),
        "explainer": {"n_samples": 150},
    })
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "explain", "--config", cfg, "--seed", "4",
                        "--out", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "heatmap.json").read_text())
    assert doc["n_samples"] == 150
    dot = (out_dir / "heatmap.dot").read_text()
    assert dot.startswith("digraph heatmap {")
    assert json.loads(out)["edges"] == len(doc["edges"])


def test_explain_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "scenario": "ff4",
        "subspace_file": ff4_box_file(tmp_path),
        "explainer": {"n_samples": 60},
    })
    out_dir = tmp_path / "out"
    _, first = run_cli(capsys, "explain", "--config", cfg, "--seed", "4",
                       "--out", str(out_dir))
    snaps = [(out_dir / n).read_bytes() for n in ("heatmap.json", "heatmap.dot")]
    _, second = run_cli(capsys, "explain", "--config", cfg, "--seed", "4",
                        "--out", str(out_dir))
    assert first == second
    assert [(out_dir / n).read_bytes()
            for n in ("heatmap.json", "heatmap.dot")] == snaps


def test_explain_unsample_region_exits_3(tmp_path, capsys):
    sc = builtin("ff4")
    sub = Subspace(A=Subspace.box([0.0] * 4, [1.0] * 4).A,
                   C=[1.0] * 4 + [0.0] * 4,
                   T=[[1.0, 0.0, 0.0, 0.0]], V=[-1.0],  # x0 <= -1: empty
                   labels=sc.labels())
    path = tmp_path / "subspaces.json"
    save_subspaces(path, [sub])
    cfg = write_config(tmp_path, "c.json", {
        "scenario": "ff4", "subspace_file": str(path),
        "explainer": {"n_samples": 20},
    })
    code, _ = run_cli(capsys, "explain", "--config", cfg, "--seed", "4",
                      "--out", str(tmp_path / "out"))
    assert code == 3


def test_explain_subspace_of_another_dimension_is_config_error(tmp_path, capsys, caplog):
    cfg = write_config(tmp_path, "c.json", {"scenario": "fig1a_dp",
                                            "subspace_file": ff4_box_file(tmp_path)})
    code, out = run_cli(capsys, "explain", "--config", cfg, "--seed", "4",
                        "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert "subspace 0 has 4 inputs, scenario 'fig1a_dp' has 8" in caplog.text


def test_explain_requires_subspace_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "ff4"})
    code, _ = run_cli(capsys, "explain", "--config", cfg, "--seed", "4")
    assert code == 1


# generalize

GEN_CFG = {
    "family": {"kind": "te-line", "count": 5, "size_range": [2, 6]},
    "predicate": {"kind": "increasing",
                  "feature": "pinned_shortest_path_length"},
}


def test_generalize_trend_holds(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", GEN_CFG)
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "generalize", "--config", cfg, "--seed", "5",
                        "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["p"] < 0.05
    assert len(doc["observations"]) == 5
    assert (out_dir / "trend.json").read_text() == out


def test_generalize_not_holding_exits_3(tmp_path, capsys):
    cfg_doc = dict(GEN_CFG)
    cfg_doc["predicate"] = {"kind": "decreasing",
                            "feature": "pinned_shortest_path_length"}
    cfg = write_config(tmp_path, "c.json", cfg_doc)
    code, out = run_cli(capsys, "generalize", "--config", cfg, "--seed", "5",
                        "--out", str(tmp_path / "out"))
    assert code == 3
    assert json.loads(out)["holds"] is False


def test_generalize_rejects_family_seed(tmp_path, capsys):
    cfg_doc = {"family": dict(GEN_CFG["family"], seed=7),
               "predicate": GEN_CFG["predicate"]}
    cfg = write_config(tmp_path, "c.json", cfg_doc)
    code, _ = run_cli(capsys, "generalize", "--config", cfg, "--seed", "5")
    assert code == 1


# encode-milp

MILP_DOC = {"sense": "max", "c_x": [3, 2], "c_y": [4],
            "A_x": [[1, 1], [2, 0]], "A_y": [[1], [0]],
            "b": [4, 3], "row_sense": ["<=", "<="]}


def test_encode_milp_routes_agree(tmp_path, capsys):
    milp = write_config(tmp_path, "m.json", MILP_DOC)
    cfg = write_config(tmp_path, "c.json", {"milp": milp})
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "encode-milp", "--config", cfg, "--seed", "1",
                        "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["raw"]["objective"] == pytest.approx(doc["encoded"]["objective"])
    net = flow.from_json((out_dir / "network.json").read_text())
    assert len(net.edges) == doc["edges"]


def test_encode_milp_infeasible_agrees(tmp_path, capsys):
    doc = dict(MILP_DOC, A_x=[[1, 1], [-1, -1]], A_y=[[0], [0]], b=[1, -2])
    milp = write_config(tmp_path, "m.json", doc)
    cfg = write_config(tmp_path, "c.json", {"milp": milp})
    code, out = run_cli(capsys, "encode-milp", "--config", cfg, "--seed", "1",
                        "--out", str(tmp_path / "out"))
    assert code == 0
    rep = json.loads(out)
    assert rep["raw"]["status"] == "infeasible"
    assert rep["encoded"]["status"] == "infeasible"
    assert rep["agreement"] is True


def test_encode_milp_rerun_identical(tmp_path, capsys):
    milp = write_config(tmp_path, "m.json", MILP_DOC)
    cfg = write_config(tmp_path, "c.json", {"milp": milp})
    out_dir = tmp_path / "out"
    _, first = run_cli(capsys, "encode-milp", "--config", cfg, "--seed", "1",
                       "--out", str(out_dir))
    snap = (out_dir / "network.json").read_bytes()
    _, second = run_cli(capsys, "encode-milp", "--config", cfg, "--seed", "1",
                        "--out", str(out_dir))
    assert first == second
    assert (out_dir / "network.json").read_bytes() == snap


@pytest.mark.parametrize("shift", [-1.0, "two", "inf", "nan"],
                         ids=["negative", "non-numeric", "inf", "nan"])
def test_encode_milp_bad_objective_shift_is_config_error(tmp_path, capsys,
                                                        shift):
    milp = write_config(tmp_path, "m.json", MILP_DOC)
    cfg = write_config(tmp_path, "c.json",
                       {"milp": milp, "objective_shift": shift})
    code, out = run_cli(capsys, "encode-milp", "--config", cfg, "--seed", "1",
                        "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""


def test_encode_milp_missing_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"milp": str(tmp_path / "nope.json")})
    code, _ = run_cli(capsys, "encode-milp", "--config", cfg, "--seed", "1")
    assert code == 1


# argument handling

def test_unknown_command_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "ff4"})
    assert main(["bogus", "--config", cfg, "--seed", "1"]) == 1


def test_seed_required(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "fig1a_dp"})
    assert main(["run-heuristic", "--config", cfg]) == 1


def test_seed_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "fig1a_dp", "seed": 11})
    code, out = run_cli(capsys, "run-heuristic", "--config", cfg)
    assert code == 0 and out.startswith("DP total")


def test_threads_flag_is_gone(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "fig1a_dp"})
    assert main(["run-heuristic", "--config", cfg, "--seed", "1", "--threads", "2"]) == 1


def test_seed_range_checked(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": "fig1a_dp"})
    assert main(["run-heuristic", "--config", cfg, "--seed", str(2 ** 64)]) == 1
    assert main(["run-heuristic", "--config", cfg, "--seed", "-1"]) == 1


def test_mismatched_pair_name(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "ff4", "pair": "dp-vs-opt"})
    assert main(["analyze", "--config", cfg, "--seed", "1"]) == 1


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": "fig1a_dp", "inputs": FIG1A_INPUTS})
    proc = subprocess.run(
        [sys.executable, "-m", "xplain", "run-heuristic",
         "--config", cfg, "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "DP total 150\nOPT total 250\n"
