"""Every error the package raises names the value that caused it."""

import numpy as np
import pytest

from reeblab import czindex, jacobi, knots, leaves, model, orbits, spectrum
from reeblab.config import RunConfig
from reeblab.errors import (
    BandTooNarrow,
    DegenerateFrame,
    HypothesisFailure,
    NoConvergence,
    NoReturn,
    NotHyperbolic,
    SamplingTooCoarse,
    UnreliableWinding,
    VanishingSection,
)
from reeblab.model import HamiltonianParams


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
