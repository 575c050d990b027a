"""Which commands load scipy.

The binding orbits, their monodromy, the asymptotic spectra, the leaf
profiles, the level loops of the resonance scan and the separatrix with
its homoclinic are closed forms, quadratures or numpy calls, so importing
reeblab and running those commands must not import scipy; only the calls
that integrate, minimise or build a k-d tree import it, at the call.  Nor does
the validated model import numpy.ma, which costs every command its start-up.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reeblab

CHILD = """
import json, sys
import reeblab
from reeblab.cli import main
argv = json.loads(sys.argv[1])
code = None if argv is None else main(argv)
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _fresh(code, *args):
    """Run `code` with `args` in a fresh interpreter that imports reeblab
    from this checkout; return its last line of output."""
    src = str(Path(reeblab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def _fresh_run(argv):
    """Run cli.main on argv (or only import reeblab, for None) in a fresh
    interpreter; return its exit code and the scipy modules it loaded."""
    result = json.loads(_fresh(CHILD, json.dumps(argv)))
    return result["code"], result["scipy"]


@pytest.mark.parametrize("command, code", [
    (None, None),
    (["orbits"], 0),
    (["spectrum", "--orbit", "P1"], 0),
    (["leaf", "--which", "plane_to_P3"], 0),
    (["scan"], 0),
    (["homoclinic"], 0),
    (["atlas"], 0),
    (["plot", "--targets", "levels", "atlas", "separatrix",
      "orbit3d-projection"], 0),
    # an axis point above the energy cap: StructureMismatch before any trace
    (["--epsilon", "2", "homoclinic"], 1),
], ids=["import", "orbits", "spectrum", "leaf", "scan", "homoclinic", "atlas",
        "plot", "structure-failure"])
def test_command_loads_no_scipy(tmp_path, command, code):
    argv = None if command is None else ["--out", str(tmp_path), *command]
    got, loaded = _fresh_run(argv)
    assert got == code
    assert loaded == []


def test_integrating_command_loads_scipy(tmp_path):
    # positive control: cz runs the integrated index route too
    got, loaded = _fresh_run(["--out", str(tmp_path), "cz", "--orbit", "P2"])
    assert got == 0
    assert "scipy.integrate" in loaded


def test_validated_model_loads_no_numpy_ma():
    assert _fresh("""
import sys
import reeblab
from reeblab import orbits
p = reeblab.HamiltonianParams.from_preset("validated", 0.5)
orbits.validate_structure(p)
orbits.special_orbits(p)
print("numpy.ma" in sys.modules)
""") == "False"


def test_no_function_local_reeblab_import():
    """Every reeblab module imports the others at its top, so the import
    graph is read off the module heads; only scipy is imported at the call."""
    package = Path(reeblab.__file__).resolve().parent
    local = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["."]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(n == "." or n.split(".")[0] == "reeblab" for n in names):
                    local.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert local == []


def test_no_private_name_of_another_module():
    """No reeblab module imports another's `_`-prefixed name or reads one
    off it as `module._name`: each module is used through its public
    names alone."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    package = Path(reeblab.__file__).resolve().parent
    reached = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # local names bound to reeblab modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("reeblab")):
                continue
            source = (node.module or "").removeprefix("reeblab").lstrip(".")
            for alias in node.names:
                if not source:  # from . import model
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):  # from .model import _name
                    reached.append(
                        f"{path.name}:{node.lineno} {source}.{alias.name}")
        reached += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules and private(node.attr)]
    assert sorted(reached) == []
