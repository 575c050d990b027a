import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from reeblab import knots, model, orbits
from reeblab.errors import NoSafePole, OffsetTooLarge, VanishingSection


def _gauss_linking_full(c1, c2):
    """Reference quadrature: the Gauss integrand over all point pairs at
    once, with per-pair cross products."""
    t1 = 0.5 * (np.roll(c1, -1, axis=0) - np.roll(c1, 1, axis=0))
    t2 = 0.5 * (np.roll(c2, -1, axis=0) - np.roll(c2, 1, axis=0))
    diff = c1[:, None, :] - c2[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.maximum(dist, 1e-9, out=dist)
    cross = np.cross(t1[:, None, :], t2[None, :, :])
    integrand = np.einsum("ijk,ijk->ij", diff, cross) / dist**3
    return float(np.sum(integrand) / (4.0 * np.pi))


def _pushed(params, orbit, n):
    curve = knots.orbit_curve(orbit, n)
    xbar1, _ = model.frame_sections(params, curve.samples)
    return curve, knots.pushoff(params, curve, xbar1)


LINK_CASES = [
    ("P1", "P2", 1024), ("P1", "P3", 1024), ("P2", "P3", 1024),
    ("P1", "push", 1024), ("P2", "push", 1024), ("P3", "push", 1024),
    ("P2", "push", 1000), ("hopf", "hopf", 512), ("hopf", "hopf", 1024)]


def _case_curves(params, trio, first, second, n):
    orbit = {o.label: o for o in trio}
    if first == "hopf":
        return knots.hopf_circles(n)
    if second == "push":
        return _pushed(params, orbit[first], n)
    return (knots.orbit_curve(orbit[first], n),
            knots.orbit_curve(orbit[second], n))


@pytest.mark.parametrize("first, second, n", LINK_CASES)
def test_blocked_linking_matches_full_quadrature(params, trio, first, second,
                                                 n):
    """The row-blocked kernel agrees with the all-pairs quadrature, on
    n = 1000 too, whose last block is short."""
    curves = _case_curves(params, trio, first, second, n)
    _, (p1, p2) = knots.stereographic_project(curves)
    assert abs(knots.gauss_linking_r3(p1, p2)
               - _gauss_linking_full(p1, p2)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 7, 23])
@pytest.mark.parametrize("first, second, n", LINK_CASES)
def test_crossing_count_matches_the_quadrature(params, trio, first, second,
                                               n, seed):
    """The signed crossing count is the rounded Gauss quadrature on the
    same projection, and raw is that integer exactly."""
    curves = _case_curves(params, trio, first, second, n)
    _, (p1, p2) = knots.stereographic_project(curves, seed=seed)
    raw, lk = knots.gauss_linking(*curves, seed=seed)
    assert lk == round(knots.gauss_linking_r3(p1, p2))
    assert raw == lk


def _pole_by_distance_array(curves, seed):
    """Reference pole choice: the clearance of each of the 64 candidates
    from the full candidate x point difference array."""
    cloud = np.vstack([knots._unit_sphere(c.oriented()) for c in curves])
    cands = knots._unit_sphere(
        np.random.default_rng(seed).standard_normal((64, 4)))
    dists = np.linalg.norm(cloud[None, :, :] - cands[:, None, :], axis=-1)
    return cands[int(np.argmax(np.min(dists, axis=1)))]


@pytest.mark.parametrize("first, second, n", [
    case for case in LINK_CASES if case[2] == 1024] + [("orbit3d", None, 512)])
def test_pole_matches_the_distance_array(params, trio, first, second, n):
    """The pole chosen from one matrix product of inner products is the one
    the full distance array chooses, at every seed 0..23, on the pairs and
    on the three-orbit cloud of svgplot.plot_orbit_projection."""
    if first == "orbit3d":
        curves = [knots.orbit_curve(o, n) for o in trio]
    else:
        curves = _case_curves(params, trio, first, second, n)
    for seed in range(24):
        pole, _ = knots.stereographic_project(curves, seed=seed)
        assert np.array_equal(pole, _pole_by_distance_array(curves, seed))


def test_linking_memory_is_bounded_by_the_block(params, trio):
    """One n = 1024 linking call and one push-off stay far below the
    n^2 temporaries of an all-pairs evaluation (about 84 MB and 40 MB)."""
    curve, pushed = _pushed(params, trio[1], 1024)
    _, (p1, p2) = knots.stereographic_project([curve, pushed])
    xbar1, _ = model.frame_sections(params, curve.samples)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        knots.gauss_linking_r3(p1, p2)
        linking_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        knots.pushoff(params, curve, xbar1)
        pushoff_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert linking_peak < 16 * 2**20
    assert pushoff_peak < 4 * 2**20


def _dense_clearance(pushed, samples):
    return np.min(np.linalg.norm(pushed[:, None, :] - samples[None, :, :],
                                 axis=-1))


def test_pushoff_clearance_is_the_dense_minimum(params, trio):
    curve = knots.orbit_curve(trio[1], 1024)
    xbar1, _ = model.frame_sections(params, curve.samples)
    pushed = knots.pushoff(params, curve, xbar1).samples
    dense = _dense_clearance(pushed, curve.samples)
    tree = np.min(cKDTree(curve.samples).query(pushed)[0])
    assert abs(tree - dense) <= 1e-15 * dense
    # a push-off too small to clear the curve reports the dense minimum
    unit = xbar1 / np.linalg.norm(xbar1, axis=-1, keepdims=True)
    near = model.surface_project(params, curve.samples + 1e-8 * unit)
    dense = _dense_clearance(near, curve.samples)
    with pytest.raises(OffsetTooLarge, match=f"within {dense:g} of"):
        knots.pushoff(params, curve, xbar1, offset=1e-8)


def test_hopf_circles_link_once():
    c1, c2 = knots.hopf_circles(1024)
    raw, lk = knots.gauss_linking(c1, c2)
    assert lk == 1
    assert abs(raw - 1) < 5e-3


def test_orientation_reversal_negates():
    c1, c2 = knots.hopf_circles(512)
    raw_f, lk_f = knots.gauss_linking(c1, c2)
    raw_r, lk_r = knots.gauss_linking(c1.reversed(), c2)
    assert lk_r == -lk_f
    assert raw_r == pytest.approx(-raw_f, abs=1e-12)


def test_symmetry_of_raw_values(trio):
    c1, c2 = knots.hopf_circles(512)
    raw_a, lk_a = knots.gauss_linking(c1, c2)
    raw_b, lk_b = knots.gauss_linking(c2, c1)
    assert raw_a == pytest.approx(raw_b, abs=1e-9)
    assert lk_a == lk_b == 1
    ca, cb = knots.orbit_curve(trio[0]), knots.orbit_curve(trio[2])
    assert knots.gauss_linking(ca, cb)[1] == knots.gauss_linking(cb, ca)[1]


def test_binding_orbits_pairwise_unlinked(params, trio):
    for i in range(3):
        for j in range(i + 1, 3):
            ca = knots.orbit_curve(trio[i], 1024)
            cb = knots.orbit_curve(trio[j], 1024)
            raw, lk = knots.gauss_linking(ca, cb)
            assert lk == 0
            assert abs(raw) < 0.05


def test_self_linking_is_minus_one(params, trio):
    for orbit in trio:
        _, lk = knots.self_linking(params, orbit)
        assert lk == -1


def test_self_linking_offset_trend(params, trio):
    """Shrinking the push-off keeps the raw value pinned at the integer."""
    orbit = trio[1]
    curve = knots.orbit_curve(orbit, 1024)
    xbar1, _ = model.frame_sections(params, curve.samples)
    raws = []
    for offset in (0.04, 0.02, 0.01):
        pushed = knots.pushoff(params, curve, xbar1, offset=offset)
        raw, lk = knots.gauss_linking(curve, pushed)
        assert lk == -1
        raws.append(raw)
    assert abs(raws[-1] + 1) < 0.05
    assert abs(raws[-1] + 1) <= abs(raws[0] + 1) + 5e-3


def test_self_linking_frame_independent_spot_check(params, trio):
    """Push-off along the other global frame section gives the same value
    (the contact structure is trivial, so the framing class is fixed)."""
    orbit = trio[2]
    curve = knots.orbit_curve(orbit, 1024)
    _, xbar2 = model.frame_sections(params, curve.samples)
    pushed = knots.pushoff(params, curve, xbar2, offset=0.01)
    raw, lk = knots.gauss_linking(curve, pushed)
    assert lk == -1


def test_seifert_framing_control(params, trio):
    """Push-off along a constant planar direction spans the axis disk
    framing, so the linking vanishes."""
    orbit = trio[1]
    curve = knots.orbit_curve(orbit, 1024)
    section = np.tile([0.0, 0.0, 0.0, 1.0], (curve.n, 1))
    pushed = knots.pushoff(params, curve, section, offset=0.02)
    raw, lk = knots.gauss_linking(curve, pushed)
    assert lk == 0
    assert abs(raw) < 0.05


def test_pole_independence(trio):
    ca = knots.orbit_curve(trio[0], 512)
    cb = knots.orbit_curve(trio[2], 512)
    lks = {knots.gauss_linking(ca, cb, seed=s)[1] for s in (0, 7, 23)}
    assert lks == {0}
    c1, c2 = knots.hopf_circles(512)
    lks = {knots.gauss_linking(c1, c2, seed=s)[1] for s in (0, 7, 23)}
    assert lks == {1}


def _quadrature(curves):
    _, (p1, p2) = knots.stereographic_project(curves)
    return knots.gauss_linking_r3(p1, p2)


def test_quadrature_convergence(params, trio):
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = trio[i], trio[j]
            raw_lo = _quadrature([knots.orbit_curve(a, 512),
                                  knots.orbit_curve(b, 512)])
            raw_hi = _quadrature([knots.orbit_curve(a, 1024),
                                  knots.orbit_curve(b, 1024)])
            assert abs(raw_hi - raw_lo) <= 1e-3
    h_lo = _quadrature(knots.hopf_circles(512))
    h_hi = _quadrature(knots.hopf_circles(1024))
    assert abs(h_hi - h_lo) <= 1e-3


def test_orbit_curves_are_dense_enough(trio):
    for orbit in trio:
        curve = knots.orbit_curve(orbit, 1024)
        assert curve.max_gap() <= 5e-2


def test_projection_pole_clearance(params, trio):
    curves = [knots.orbit_curve(o, 256) for o in trio]
    pole, projected = knots.stereographic_project(curves, seed=0)
    cloud = np.vstack([c.samples / np.linalg.norm(c.samples, axis=1,
                                                  keepdims=True)
                       for c in curves])
    assert np.min(np.linalg.norm(cloud - pole, axis=1)) > 0.1
    assert len(projected) == 3


def test_no_safe_pole_raises(trio):
    with pytest.raises(NoSafePole):
        knots.stereographic_project([knots.orbit_curve(trio[1], 128)],
                                    seed=0, pole_tol=10.0)


def test_pushoff_guards(params, trio):
    curve = knots.orbit_curve(trio[1], 256)
    zero_section = np.zeros((curve.n, 4))
    with pytest.raises(VanishingSection):
        knots.pushoff(params, curve, zero_section, offset=0.01)
    xbar1, _ = model.frame_sections(params, curve.samples)
    with pytest.raises(OffsetTooLarge):
        knots.pushoff(params, curve, xbar1, offset=1e-8)


def _wobbly_pair(n):
    """c1 = {z2 = 0} and a curve whose z2 = 0.05 e^{i theta} winds once
    around it: linked once, but close enough at n = 64 that the quadrature
    reads 1.264."""
    t = 2 * np.pi * np.arange(n) / n
    c1 = knots.ClosedCurve(np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], -1))
    wob = 0.5 + 0.45 * np.sin(7 * t)
    c2 = knots.ClosedCurve(np.stack([wob * np.cos(t), wob * np.sin(t),
                                     0.05 * np.cos(t), 0.05 * np.sin(t)], -1))
    return c1, c2


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_coarse_close_curves_link_once(seed):
    """The crossing count is exact on 64 samples, where the quadrature is
    off by a quarter; the quadrature at n = 2048 is the oracle."""
    raw, lk = knots.gauss_linking(*_wobbly_pair(64), seed=seed)
    assert lk == 1 and raw == 1.0
    fine = _wobbly_pair(2048)
    _, (p1, p2) = knots.stereographic_project(fine, seed=seed)
    assert abs(knots.gauss_linking_r3(p1, p2) - 1) < 1e-3


def test_touching_curves_raise_no_safe_pole():
    """Two great circles sharing the points (+-1, 0, 0, 0) cross in the
    diagram with height gap 0: the count is refused, not guessed."""
    t = 2 * np.pi * np.arange(64) / 64
    c1 = knots.ClosedCurve(np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], -1))
    c2 = knots.ClosedCurve(np.stack([np.cos(t), 0 * t, np.sin(t), 0 * t], -1))
    with pytest.raises(NoSafePole, match="seed 0 not generic.*height gap 0 "):
        knots.gauss_linking(c1, c2)
