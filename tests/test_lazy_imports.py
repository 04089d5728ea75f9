"""Each command imports only what it runs; every public name still resolves.

The package `__init__`s import their names on first use, and the CLI
imports each command's modules when the command starts. The import checks
run in a fresh interpreter, since this one has loaded everything already.
(`python -m xplain` running a command is checked in test_cli.py.)
"""

import importlib
import json
import subprocess
import sys

import pytest

LAZY = ["xplain", "xplain.heuristics", "xplain.solver"]

NOT_FOR_EVERY_COMMAND = [
    "xplain.flow", "xplain.bridge", "xplain.explain", "xplain.generalize",
    "xplain.subspaces", "xplain.stats", "xplain.heuristics.networks",
    "xplain.solver.branch_bound",
]


def loaded_after(code, modules):
    """Which of `modules` a fresh interpreter has loaded after running `code`."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_importing_the_cli_loads_no_command_code():
    assert loaded_after("import xplain.cli", NOT_FOR_EVERY_COMMAND) == []


def test_builtin_scenarios_load_without_the_network_views():
    code = ("from xplain.heuristics import builtin\n"
            "builtin('ff4'); builtin('fig1a_dp')")
    assert loaded_after(code, ["xplain.flow", "xplain.heuristics.networks"]) == []


def test_a_scenario_loads_only_its_own_kind():
    # a stacked vbp gap runs no TE code, and a TE gap no packing code
    vbp = ("from xplain.heuristics import builtin\n"
           "builtin('ff4').gap_fn('absolute')([[0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.5, 0.5]])")
    assert loaded_after(vbp, ["xplain.heuristics.te", "xplain.solver.parametric"]) == []
    te = ("from xplain.heuristics import builtin\n"
          "builtin('fig1a_dp').gap_fn('relative')([[10.0] * 8, [60.0] * 8])")
    assert loaded_after(te, ["xplain.heuristics.vbp", "xplain.heuristics.binpack_bounds",
                             "xplain.heuristics.te"]) == ["xplain.heuristics.te"]


def test_the_network_view_loads_its_modules_on_use():
    code = "from xplain.heuristics import builtin\nbuiltin('ff4').network"
    assert loaded_after(code, ["xplain.flow", "xplain.heuristics.networks"]) == [
        "xplain.flow", "xplain.heuristics.networks"]


@pytest.mark.parametrize("package", LAZY)
def test_every_public_name_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert getattr(mod, name) is not None, name
    assert set(mod.__all__) <= set(dir(mod))
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_name")


@pytest.mark.parametrize("package", LAZY)
def test_star_import_binds_every_public_name_in_a_fresh_interpreter(package):
    code = (f"from {package} import *\n"
            f"import {package} as pkg, sys\n"
            "missing = [n for n in pkg.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "print('ok')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_a_resolved_name_is_the_defining_modules_object():
    import xplain
    import xplain.analyzer
    import xplain.solver
    import xplain.solver.program

    assert xplain.find_adversarial is xplain.analyzer.find_adversarial
    assert xplain.solver.LE is xplain.solver.program.LE
    # kept on the package, so a later lookup skips __getattr__
    assert "find_adversarial" in vars(xplain)
    assert xplain.flow is importlib.import_module("xplain.flow")


def test_heuristics_gap_stays_the_function_after_importing_its_submodule():
    # the submodule first, in a fresh interpreter: its import must not
    # leave the package attribute pointing at the module
    code = ("import sys, types\n"
            "import xplain.heuristics.gap\n"
            "import xplain.heuristics as h\n"
            "assert not isinstance(h.gap, types.ModuleType)\n"
            "assert h.gap is sys.modules['xplain.heuristics.gap'].gap\n"
            "print('ok')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
