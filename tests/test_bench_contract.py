"""What bench/tracer.py and the README reach into the package for, by name.

The tracer wraps each (module, function) pair of its WRAPPED list, reads
further `xplain.<name>` attributes, and its layer cases capture the programs
that optimal_te and optimal_vbp hand to the solver by patching
xplain.solver; these tests keep those names working, and run the README's
library example as written.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import xplain.cli
import xplain.solver
from xplain.heuristics import builtin, optimal_te, optimal_vbp

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def wrapped_pairs():
    """The (module, function) pairs of the tracer's WRAPPED list, read from its source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("bench/tracer.py has no WRAPPED list")


def test_every_wrapped_function_resolves():
    pairs = wrapped_pairs()
    assert ("xplain.heuristics.gap", "gap") in pairs
    assert ("xplain.heuristics.networks", "project_allocation") in pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def package_names():
    """Each chain `xplain.a.b` the tracer's source reads, as "a.b" (and "a")."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "xplain":
            names.add(".".join(reversed(parts)))
    return names


def test_every_package_name_the_tracer_reads_resolves():
    names = package_names()
    assert {"ExclusionSet.rejects", "Subspace.box", "fit_regression_tree",
            "check_significance", "sample_region", "kendall_trend",
            "wilcoxon_signed_rank", "cli.main"} <= names
    for name in names:
        obj = xplain
        for part in name.split("."):
            obj = getattr(obj, part)
    # its layer cases and bench/run.py's set-up build scenarios and gaps
    assert callable(builtin("ff4").gap_fn("absolute"))


def test_readme_library_example_runs_verbatim(capsys):
    text = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2  # the example's two prints


class Captured(Exception):
    pass


def captures(solver_attr, call, monkeypatch):
    """The program `call` hands to xplain.solver.<solver_attr>."""
    def grab(prog, *args, **kwargs):
        raise Captured(prog)

    monkeypatch.setattr(xplain.solver, solver_attr, grab)
    with pytest.raises(Captured) as got:
        call()
    prog = got.value.args[0]
    assert isinstance(prog, xplain.solver.ConstraintProgram)
    return prog


def test_optimal_te_reaches_solve_lp(monkeypatch):
    # the tracer times the midpoint's max-flow LP: its right-hand side is
    # the midpoint's demands and the link capacities, in the LP's row order
    te = builtin("fig1a_dp")
    mid = [(lo + hi) / 2 for lo, hi in te.bounds]
    prog = captures("solve_lp", lambda: optimal_te(te.instance, mid), monkeypatch)
    links = te.instance._max_flow.links
    want = np.concatenate([mid, te.instance.flow_layout.capacities[links]])
    _, _, b, _ = prog.dense()
    assert [v.hex() for v in b.tolist()] == [v.hex() for v in want.tolist()]
    assert [con.rhs for con in prog.constraints] == want.tolist()


@pytest.mark.parametrize("name", ["ff4", "fig3_ff17"])
def test_optimal_vbp_reaches_solve_mip(name, monkeypatch):
    inst = builtin(name).instance
    captures("solve_mip", lambda: optimal_vbp(inst), monkeypatch)


def test_a_command_calls_the_binding_patched_on_the_defining_module(tmp_path, monkeypatch):
    # bench/tracer.py patches each wrapped function where it is defined, after
    # importing xplain.cli; a command must pick that binding up when it runs
    import xplain.analyzer

    calls = []
    original = xplain.analyzer.find_adversarial

    def spy(*args, **kwargs):
        calls.append(kwargs["budget"])
        return original(*args, **kwargs)

    monkeypatch.setattr(xplain.analyzer, "find_adversarial", spy)
    cfg = tmp_path / "ff4.json"
    cfg.write_text('{"scenario": "ff4", "analyzer": {"budget": 20}}')
    code = xplain.cli.main(["analyze", "--config", str(cfg), "--seed", "7"])
    assert code in (xplain.cli.EXIT_OK, xplain.cli.EXIT_NOT_FOUND)
    assert calls == [20]
