"""The benchmark's workloads.

A workload lists the operations of one round; run.py times the round and
then hands each operation's output to the workload's check.  An operation
is one CLI call (`audit`, `figures`) or one spectral index computation
(`spectra`).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

import checks
from reeblab import cli, czindex, model, spectrum
from setup_probe import EPSILON

# The smallest grid spectrum.assemble_matrix accepts; one 256x256 solve.
SPECTRUM_NODES = 128
PATH_SAMPLES = 256
PLOT_TARGETS = ("levels", "atlas", "separatrix", "orbit3d-projection")


class OpFailed(Exception):
    """A CLI call returned a nonzero exit code."""


class RunState:
    """What the operations and checks of one run share: the seed, the model
    built in set-up, and the bytes each file had in the run's first pass."""

    def __init__(self, seed: int, params, trio):
        self.seed = seed
        self.params = params
        self.trio = {o.label: o for o in trio}
        self.first = {}

    def same_as_first(self, name: str, data: bytes) -> list:
        first = self.first.setdefault(name, data)
        return [f"{name} {p}" for p in checks.check_same_bytes(first, data)]


def _cli(state: RunState, out, *command) -> None:
    argv = ["--preset", "validated", "--epsilon", str(EPSILON),
            "--seed", str(state.seed), "--out", str(out), *command]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code:
        raise OpFailed(f"reeblab {command[0]} exited with {code}")


def _files(out, *names) -> dict:
    return {name: (out / name).read_bytes() for name in names}


class Audit:
    """`reeblab validate`: the command that produces the verdict."""

    def operations(self, state: RunState, out):
        def validate():
            _cli(state, out, "validate")
            return _files(out, "validate.json")

        return [("validate", validate)]

    def check(self, name, files: dict, state: RunState) -> list:
        data = files["validate.json"]
        return (checks.check_validate(json.loads(data), EPSILON)
                + state.same_as_first("validate.json", data))


class Figures:
    """`reeblab homoclinic`, `atlas` and `plot` of four targets."""

    def operations(self, state: RunState, out):
        def homoclinic():
            _cli(state, out, "homoclinic")
            return _files(out, "homoclinic.json")

        def atlas():
            _cli(state, out, "atlas")
            return _files(out, "atlas.json", "atlas.svg")

        def plot():
            _cli(state, out, "plot", "--targets", *PLOT_TARGETS)
            return _files(out, *(f"plot_{t}.svg" for t in PLOT_TARGETS))

        return [("homoclinic", homoclinic), ("atlas", atlas), ("plot", plot)]

    def check(self, name, files: dict, state: RunState) -> list:
        problems = []
        for fname, data in sorted(files.items()):
            if fname == "homoclinic.json":
                problems += checks.check_homoclinic(json.loads(data), EPSILON)
            elif fname == "atlas.json":
                problems += checks.check_atlas(json.loads(data))
            else:
                problems += [f"{fname}: {p}" for p in checks.check_svg(data)]
            problems += state.same_as_first(fname, data)
        return problems


class Spectra:
    """The spectral index route on nine operators: the analytic paths of P1,
    P2, P3 (constant S, exactly degenerate spectrum), their variational
    paths (finite-difference S), and the analytic iterates P2^2..P2^4."""

    CASES = ([("analytic", label, 1) for label in ("P1", "P2", "P3")]
             + [("variational", label, 1) for label in ("P1", "P2", "P3")]
             + [("analytic", "P2", k) for k in (2, 3, 4)])

    def operations(self, state: RunState, out):
        # the seed orders the cases; every round solves all nine
        cases = list(self.CASES)
        random.Random(state.seed).shuffle(cases)
        return [(f"{kind}:{label}^{k}", self._op(state, kind, label, k))
                for kind, label, k in cases]

    @staticmethod
    def _op(state: RunState, kind: str, label: str, k: int):
        p, orbit = state.params, state.trio[label]

        def solve():
            if kind == "analytic":
                path = czindex.iterate_path(czindex.analytic_monodromy_oracle(
                    p, label, n_samples=PATH_SAMPLES, orbit=orbit), k)
            else:
                path = model.restrict_linearized_to_xi(
                    p, orbit, "rho_orbit_frame", PATH_SAMPLES)
            op = spectrum.build_S(path)
            rep = spectrum.discretize_and_solve(op, SPECTRUM_NODES)
            fc = czindex.frame_correction_for(p, orbit)
            mu = spectrum.generalized_cz(rep, k * fc).mu_global
            audit = spectrum.spectrum_property_audit(rep)
            # iterates are taken of the hyperbolic P2 only: mu(P2^k) = 2k
            return {"op": op, "rep": rep, "mu": mu, "audit_ok": audit["ok"],
                    "want_mu": checks.INDEX[label] * k}

        return solve

    def check(self, name, res: dict, state: RunState) -> list:
        op, rep = res["op"], res["rep"]
        m = spectrum.assemble_matrix(op, SPECTRUM_NODES)
        problems = checks.check_spectrum(
            rep.all_eigenvalues, np.linalg.eigvalsh(m), float(np.linalg.norm(m)),
            res["mu"], res["want_mu"], rep.windings, res["audit_ok"],
            s_const=op.constant_S, n_nodes=SPECTRUM_NODES)
        return [f"{name}: {p}" for p in problems]


WORKLOADS = {"audit": Audit(), "spectra": Spectra(), "figures": Figures()}
