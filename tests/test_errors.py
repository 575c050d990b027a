"""Every error the package raises names the value that caused it, and
every error class is raised somewhere."""

import ast
from pathlib import Path

import numpy as np
import pytest

from reeblab import (czindex, errors, jacobi, knots, leaves, model, orbits,
                     spectrum)
from reeblab.config import RunConfig
from reeblab.errors import (
    BandTooNarrow,
    DegenerateFrame,
    DegenerateOrbit,
    HypothesisFailure,
    NoConvergence,
    NoReturn,
    NotHyperbolic,
    SamplingTooCoarse,
    UnreliableWinding,
    VanishingSection,
)
from reeblab.model import HamiltonianParams, SymplecticPath

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reeblab"


def _params(preset="validated", eps=0.5):
    p = HamiltonianParams.from_preset(preset, eps)
    orbits.validate_structure(p)
    return p


def _hypothesis():
    orbits.special_orbits(_params(eps=1.2))


def _not_hyperbolic():
    orbits.saddle_eigendirections(_params("paper-figure"))


def _gradient_zero():
    model.frame_sections(_params(), np.zeros(4))


def _lambda_x3_zero():
    # z . grad H = 0.25^2 + 0.5 Q(0.5, 0) = 0, so lambda0(X_3) = 0 here
    model.frame_sections(_params(), np.array([0.25, 0.0, 0.5, 0.0]))


def _outside_capture():
    model.surface_project(_params(), np.array([2.0, 0.0, 0.0, 0.0]))


def _vanishing_quadrant_section():
    p = _params()
    czindex.eigenframe_and_quadrants(
        p, orbits.special_orbits(p)[1],
        lambda taus: np.zeros(np.shape(np.atleast_1d(taus)) + (2,)))


def _vanishing_pushoff():
    p = _params()
    curve = knots.orbit_curve(orbits.special_orbits(p)[1])
    knots.pushoff(p, curve, np.zeros((curve.n, 4)))


def _coarse_sampling():
    czindex.winding_number(czindex.rotation_path(100.0, 64), [1.0, 0.0])


def _planar_no_return():
    p = _params()
    seed = orbits.axis_level_seeds(p, -1e-5)[0]
    orbits.planar_period_and_area(p, -1e-5, seed, max_time=5.0)


def _band_misses_zero():
    # constant S = 2 pi 1000 I pushes every trusted eigenvalue below zero
    op = spectrum.build_S(czindex.rotation_path(1000.0))
    spectrum.discretize_and_solve(op, 128)


def _stripped(path, scale=1.0):
    """`path` without its generator, every node after the first scaled."""
    mats = path.mats.copy()
    mats[1:] *= scale
    return SymplecticPath(tau=path.tau, mats=mats, period=path.period)


def _operator(s):
    return spectrum.OperatorModel(S=np.broadcast_to(s, (128, 2, 2)).copy(),
                                  tau=np.arange(128) / 128, period=1.0)


def _zero_eigenvalue():
    op = spectrum.build_S(czindex.rotation_path(0.0))
    spectrum.generalized_cz(spectrum.discretize_and_solve(op, 128), 0)


def _winding_floor():
    p = _params()
    grid = leaves.assemble_leaf(p, leaves.integrate_profile(p, "plane_to_P3"), 64)
    leaves.leaf_diagnostics(p, grid, wind_floor=1e9)


CASES = {
    "hypothesis-failure": (_hypothesis, HypothesisFailure,
                           r"T3 = 20\.5133, 2\*T1 = 4\.38315"),
    "not-hyperbolic": (_not_hyperbolic, NotHyperbolic,
                       r"-4 eps\^4 c d = -0\.03125 <= 0"),
    "gradient-zero": (_gradient_zero, DegenerateFrame, r"\|grad H\| = 0\b"),
    "lambda-x3-zero": (_lambda_x3_zero, DegenerateFrame,
                       r"\|lambda0\(X_3\)\| = \d"),
    "outside-capture": (_outside_capture, NoConvergence, r"\|H - 1/2\| = 1\.5"),
    "vanishing-quadrant-section": (_vanishing_quadrant_section,
                                   VanishingSection, r"\|section\| = 0\b"),
    "vanishing-pushoff": (_vanishing_pushoff, VanishingSection,
                          r"\|section\| = 0\b"),
    "coarse-sampling": (_coarse_sampling, SamplingTooCoarse,
                        r"up to 2\.49 exceed"),
    "planar-no-return": (_planar_no_return, NoReturn,
                         r"\(1\.27428, 0\) on level -1e-05 within time 5"),
    "band-misses-zero": (_band_misses_zero, BandTooNarrow,
                         r"126 negative and 0 nonnegative"),
    "winding-floor": (_winding_floor, UnreliableWinding,
                      r"up to [\d.e-]+ below floor 1e\+09"),
    "non-finite-S": (lambda: _operator(np.diag([1.0, np.nan])), ValueError,
                     r"S has 128 non-finite"),
    "asymmetric-S": (lambda: _operator(np.array([[1.0, 0.3], [0.2, 1.0]])),
                     ValueError, r"defect 0\.1\b"),
    "det-defect": (lambda: spectrum.build_S(
        _stripped(czindex.rotation_path(0.3, 65), 1.001)), DegenerateFrame,
        r"defect 0\.002001 exceeds"),
    "quarter-turn-step": (lambda: spectrum.build_S(
        _stripped(czindex.rotation_path(1.0, 4))), SamplingTooCoarse,
        r"half-trace -0\.5 "),
    "zero-eigenvalue": (_zero_eigenvalue, DegenerateOrbit,
                        r"gap 0 within 1\.75608e-07"),
    "action-samples": (lambda: orbits.orbit_action(np.zeros((4, 4))),
                       ValueError, r"got 4"),
    "iterate-zero": (lambda: czindex.iterate_path(czindex.rotation_path(0.3), 0),
                     ValueError, r"got 0"),
    "odd-nodes": (lambda: spectrum.assemble_matrix(
        spectrum.build_S(czindex.rotation_path(0.3)), 129), ValueError,
        r"got 129"),
    "non-square": (lambda: jacobi.jacobi_eigh(np.zeros((2, 3))), ValueError,
                   r"shape \(2, 3\)"),
    "curve-shape": (lambda: knots.ClosedCurve(np.zeros((8, 3))), ValueError,
                    r"got \(8, 3\)"),
    "config-not-object": (lambda: RunConfig.from_json("[1]"), ValueError,
                          r"got list"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_names_the_offending_value(case):
    trigger, error, pattern = CASES[case]
    with pytest.raises(error, match=pattern):
        trigger()


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.attr if isinstance(exc, ast.Attribute) else \
                getattr(exc, "id", None)


def test_every_error_class_is_raised():
    """An error class that nothing raises is dead weight in the hierarchy
    callers catch."""
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.ReebLabError)
               and obj is not errors.ReebLabError}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text())))
    assert classes
    assert sorted(classes - raised) == []
