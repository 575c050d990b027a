"""Golden reports: every report command of the CLI, run through `cli.main`.

`python tests/golden/regen.py` reruns the commands below, one output
directory per case, rewrites the JSON and CSV reports kept here and the
manifest `MANIFEST.json`.  The manifest records the Python, numpy and scipy
versions and the sha256 of every file; SVG figures are kept as digests
only.  `tests/test_golden.py` runs `generate` in a fresh process and holds
the result to these files.
"""

import hashlib
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from reeblab.cli import main  # noqa: E402

# coefficient sets of the figure checks: the first puts four figure levels
# on the saddle's value, the second has loops about off-axis wells
CUSTOM = {
    "custom": {"a": 0.3, "b": -0.7, "c": -1, "d": 0.5},
    "wells": {"a": -1.36, "b": 1.88, "c": 0.06, "d": -1.54},
}

CASES = {
    "validate": ["validate"],
    "validate_seed1": ["--seed", "1", "validate"],
    "validate_paper": ["--preset", "paper-figure", "validate"],
    "validate_eps2": ["--epsilon", "2", "validate"],
    "orbits": ["orbits"],
    **{f"cz_{o}_k{k}": ["cz", "--orbit", o, "--iterate", str(k)]
       for o, k in (("P1", 1), ("P2", 1), ("P3", 1), ("P2", 3))},
    **{f"spectrum_{o}_k{k}": ["--format", "csv", "spectrum", "--orbit", o,
                              "--iterate", str(k)]
       for o, k in (("P1", 1), ("P2", 1), ("P3", 1), ("P2", 3))},
    "link": ["link", "--pair", "P1,P3", "--self", "P2"],
    **{f"leaf_{w}": ["--format", "csv", "leaf", "--which", w]
       for w in ("disk_to_P2", "cyl_P2_P1", "cyl_P3_P1", "plane_to_P3")},
    "atlas": ["atlas"],
    "scan": ["scan"],
    **{f"homoclinic_eps{e}": ["--epsilon", e, "--format", "csv", "homoclinic"]
       for e in ("0.3", "0.5", "1.2")},
    "plot": ["plot", "--targets", "levels", "atlas", "separatrix",
             "orbit3d-projection"],
    **{f"plot_{name}": ["--config", f"{name}.json", "plot", "--targets", "levels"]
       for name in CUSTOM},
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def generate(out) -> None:
    """Run every case into `out`/<case>/; a nonzero exit raises."""
    out = Path(out)
    for name, coeffs in CUSTOM.items():
        (out / f"{name}.json").write_text(json.dumps({"coefficients": coeffs}))
    for case, argv in CASES.items():
        argv = [str(out / a) if a.endswith(".json") else a for a in argv]
        code = main(["--out", str(out / case)] + argv)
        if code != 0:
            raise RuntimeError(f"{case}: reeblab {' '.join(argv)} exited {code}")
    for name in CUSTOM:
        (out / f"{name}.json").unlink()


def digests(root: Path) -> dict:
    return {str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.glob("*/*"))}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        generate(tmp)
        files = digests(tmp)
        for case in CASES:
            shutil.rmtree(HERE / case, ignore_errors=True)
        for rel in files:
            if not rel.endswith(".svg"):
                (HERE / rel).parent.mkdir(exist_ok=True)
                shutil.copyfile(tmp / rel, HERE / rel)
    manifest = {"versions": versions(), "files": files}
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=1,
                                                   sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {HERE / 'MANIFEST.json'}")


if __name__ == "__main__":
    regenerate()
