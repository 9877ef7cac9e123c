"""The package and the CLI import a module only when something needs it.

Every check runs in a fresh interpreter, so no import made by another test
can hide one made too early.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hallrep
from hallrep import algebra, cyclic, hierarchy, wavefunctions

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs cli.main on argv (or only imports, for null) and prints the exit code and the loaded modules last
COMMAND_PROBE = """
import json, sys
import hallrep, hallrep.cli
argv = json.loads(sys.argv[1])
code = None if argv is None else hallrep.cli.main(argv)
print()
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def fresh(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def command(argv):
    probe = fresh(COMMAND_PROBE, json.dumps(argv))
    return probe["code"], set(probe["modules"])


def hallrep_modules(modules):
    return {name for name in modules if name.split(".")[0] == "hallrep"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(None, None, id="import-only"),
        (["--help"], 0),
        (["--version"], 0),
        (["ff", "decompose"], 2),
        (["ff", "decompose", "--nu", "2/4"], 2),
        (["ff", "eval", "--coeffs", "3,2"], 0),
        (["ff", "decompose", "--nu", "2/5", "--format", "table"], 0),
        (["ff", "family", "--p", "3", "--format", "csv"], 0),
        (["ff", "blokwen", "--coeffs", "1,2,4"], 0),
        (["ff", "index", "--nu", "2/5"], 0),
        (["ff", "decompose", "--nu", "3/5", "--form", "positive"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit-{v}",
)
def test_ff_and_startup_never_import_numpy(argv, expected):
    code, modules = command(argv)
    assert code == expected
    assert "numpy" not in modules
    assert hallrep_modules(modules) <= {"hallrep", "hallrep.cli", "hallrep.hierarchy"}


def test_rep_and_ladder_verbs_import_no_wavefunctions(tmp_path):
    rep_file = tmp_path / "rep.json"
    for argv in (["ladder", "build", "--p", "3", "-o", str(rep_file)], ["rep", "verify", "--in", str(rep_file)]):
        code, modules = command(argv)
        assert code == 0
        assert hallrep_modules(modules) == {"hallrep", "hallrep.cli", "hallrep.hierarchy", "hallrep.algebra", "hallrep.cyclic"}
        assert not modules & {"numpy.random", "concurrent.futures"}


def test_wf_verbs_import_wavefunctions():
    specs = '[{"variant":"laughlin","m":1,"n_electrons":2},{"variant":"laughlin","m":3,"n_electrons":2}]'
    hierarchy_spec = '{"variant":"hierarchy_r1","a0":3,"a1":2,"b":1,"n_electrons":2}'
    monte_carlo = {"hallrep.sampling", "numpy.random", "concurrent.futures"}
    for argv, loads_monte_carlo in (
        (["wf", "gram", "--specs", specs, "--method", "exact"], False),
        (["wf", "eval", "--spec", hierarchy_spec, "--config", "[[0.1,0.2],[0.3,-0.4]]"], False),
        (["wf", "gram", "--specs", specs, "--method", "mc", "--samples", "1000"], True),
    ):
        code, modules = command(argv)
        assert code == 0
        assert "hallrep.wavefunctions" in modules and "hallrep.cyclic" not in modules
        assert (modules & monte_carlo == monte_carlo) if loads_monte_carlo else not modules & monte_carlo, argv


def test_exports_are_the_modules_own_objects():
    owners = (algebra, cyclic, hierarchy, wavefunctions)
    assert len(hallrep.__all__) == len(set(hallrep.__all__)) == 44
    assert "MagnitudeSolution" not in hallrep.__all__ and "MagnitudeSolution" in cyclic.__all__
    for name in hallrep.__all__:
        (owner,) = [module for module in owners if name in module.__all__]
        assert getattr(hallrep, name) is getattr(owner, name), name
    assert set(hallrep.__all__) <= set(dir(hallrep))
    star = {}
    exec("from hallrep import *", star)
    assert set(star) - {"__builtins__"} == set(hallrep.__all__)
    not_exported = (
        "MagnitudeSolution", "primitive_root", "matrix_to_json", "matrix_from_json", "LadderRep", "GenericCyclicRep",
        "ladder_infimum_base",
    )
    for name in not_exported + ("no_such_name",):
        with pytest.raises(AttributeError):
            getattr(hallrep, name)
    assert cyclic.LadderRep is cyclic.CyclicRep  # the name the benchmark's tracer wraps


def test_an_export_imports_only_its_module():
    probe = fresh(
        "import json, sys; import hallrep; before = sorted(sys.modules); "
        "from hallrep import decompose, FillingFactor; "
        "print(json.dumps({'before': before, 'after': sorted(sys.modules), "
        "'cached': hallrep.__dict__.get('decompose') is decompose}))"
    )
    assert hallrep_modules(probe["before"]) == {"hallrep"}
    assert hallrep_modules(probe["after"]) == {"hallrep", "hallrep.hierarchy"}
    assert "numpy" not in probe["after"] and probe["cached"]


# replaces a cli name before the first command, as perfbench's tracer does, and counts the calls that reach it
REPLACE_PROBE = """
import importlib, json, sys
from hallrep import cli
name, module, resolve_first, argv = sys.argv[1], sys.argv[2], sys.argv[3] == "1", json.loads(sys.argv[4])
original = getattr(cli, name) if resolve_first else getattr(importlib.import_module(module), name)
calls = []
def replacement(*args, **kwargs):
    calls.append(name)
    return original(*args, **kwargs)
setattr(cli, name, replacement)
code = cli.main(argv)
print()
print(json.dumps({"code": code, "calls": len(calls), "kept": cli.__dict__[name] is replacement}))
"""


@pytest.mark.parametrize("resolve_first", ["1", "0"], ids=["resolved-first", "set-only"])
@pytest.mark.parametrize(
    "name, module, argv",
    [
        pytest.param("build_ladder", "hallrep.cyclic", ["ladder", "build", "--p", "2"], id="build_ladder"),
        pytest.param(
            "gram_matrix", "hallrep.wavefunctions", ["wf", "gram", "--specs", '[{"variant":"laughlin","m":1,"n_electrons":2}]'],
            id="gram_matrix",
        ),
        pytest.param("decompose", "hallrep.hierarchy", ["ff", "decompose", "--nu", "2/5"], id="decompose"),
    ],
)
def test_a_name_replaced_before_the_first_command_is_called(name, module, argv, resolve_first):
    probe = fresh(REPLACE_PROBE, name, module, resolve_first, json.dumps(argv))
    assert probe == {"code": 0, "calls": 1, "kept": True}
