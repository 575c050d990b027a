"""Which commands load scipy.

The binding orbits, their monodromy and the asymptotic spectra are closed
forms or numpy calls, so importing reeblab and running those commands must
not import scipy; only the calls that integrate, minimise or build a k-d
tree import it, at the call.
"""

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


def _fresh_run(argv):
    """Run cli.main on argv (or only import reeblab, for None) in a fresh
    interpreter; return its exit code and the scipy modules it loaded."""
    src = str(Path(reeblab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], result["scipy"]


@pytest.mark.parametrize("command, code", [
    (None, None),
    (["orbits"], 0),
    (["spectrum", "--orbit", "P1"], 0),
    # an axis point above the energy cap: StructureMismatch before any trace
    (["--epsilon", "2", "homoclinic"], 1),
], ids=["import", "orbits", "spectrum", "structure-failure"])
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
