import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeblab import czindex, model, orbits
from reeblab.errors import (
    DegenerateOrbit,
    NotHyperbolic,
    RoundingUnsafe,
    SamplingTooCoarse,
    VanishingSection,
)

EPS = 0.5


def test_winding_of_identity_path():
    path = czindex.rotation_path(0.0, 129)
    assert czindex.winding_number(path, [1.0, 0.0]) == pytest.approx(0.0,
                                                                     abs=1e-12)


def test_winding_of_rigid_rotation():
    path = czindex.rotation_path(0.3, 257)
    for phi in (0.0, 0.4, 1.7):
        z = [np.cos(phi), np.sin(phi)]
        assert czindex.winding_number(path, z) == pytest.approx(0.3, abs=1e-9)


def test_path_without_generator_is_not_refined():
    """A 100-turn rotation on 64 nodes turns by 9.97 rad a step, which
    wraps to 2.59, more than any winding count resolves.  Without its
    generator the path has nothing between its nodes to refine by, so the
    count refuses it at once rather than count the turns of matrices
    interpolated between the nodes (-26 where 100 is right)."""
    path = czindex.rotation_path(100.0, 64)
    bare = model.SymplecticPath(tau=path.tau, mats=path.mats,
                                period=path.period)
    with pytest.raises(SamplingTooCoarse, match="up to 2.59 .* no constant "
                       "generator") as err:
        czindex.winding_number(bare, [1.0, 0.0])
    assert "even after refinement" not in str(err.value)


def test_middle_orbit_winding_in_unit_interval(analytic_paths):
    path = analytic_paths["P1"]
    for phi in np.linspace(0, np.pi, 7):
        d = czindex.winding_number(path, [np.cos(phi), np.sin(phi)])
        assert -1.0 < d < 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0, np.pi, allow_nan=False))
def test_antipodal_symmetry(phi):
    path = czindex.rotation_path(0.37, 257)
    z = np.array([np.cos(phi), np.sin(phi)])
    assert czindex.winding_number(path, z) == pytest.approx(
        czindex.winding_number(path, -z), abs=1e-12)


def test_antipodal_symmetry_hyperbolic(analytic_paths):
    path = analytic_paths["P2"]
    for phi in np.linspace(0, np.pi, 9):
        z = np.array([np.cos(phi), np.sin(phi)])
        assert czindex.winding_number(path, z) == pytest.approx(
            czindex.winding_number(path, -z), abs=1e-12)


def test_winding_intervals_of_binding_orbits(analytic_paths):
    iv1 = czindex.winding_interval(analytic_paths["P1"])
    assert -1.0 < iv1.lo <= iv1.hi < 0.0
    assert not iv1.contains_integer
    iv2 = czindex.winding_interval(analytic_paths["P2"])
    assert iv2.lo < 0.0 < iv2.hi
    assert iv2.contains_integer
    iv3 = czindex.winding_interval(analytic_paths["P3"])
    assert 0.0 < iv3.lo <= iv3.hi < 1.0
    for iv in (iv1, iv2, iv3):
        assert iv.length < 0.5


@pytest.mark.parametrize("label", ["P1", "P2", "P3"])
@pytest.mark.parametrize("k", [1, 3])
def test_winding_interval_endpoints_bound_dense_sampling(analytic_paths,
                                                         numeric_paths,
                                                         label, k):
    """The sharpened endpoints enclose the windings of 8192 directions and
    lie within the sampling error (spacing pi/8192) of their extremes."""
    for path in (analytic_paths[label], numeric_paths[label]):
        path = czindex.iterate_path(path, k)
        iv = czindex.winding_interval(path)
        dense = czindex._winding_of_direction_angle(
            path, np.arange(8192) / 8192 * np.pi)
        assert -2e-7 <= iv.lo - np.min(dense) <= 1e-14
        assert -1e-14 <= iv.hi - np.max(dense) <= 2e-7


def test_identity_path_degenerate():
    with pytest.raises(DegenerateOrbit):
        czindex.winding_interval(czindex.rotation_path(0.0, 257))


def test_integer_rotation_degenerate():
    with pytest.raises(DegenerateOrbit):
        czindex.winding_interval(czindex.rotation_path(1.0, 257))


def test_cz_indices_of_binding_orbits(analytic_paths):
    for label, want in (("P1", 1), ("P2", 2), ("P3", 3)):
        res = czindex.cz_index(analytic_paths[label], frame_correction=1)
        assert res.mu_global == want
        assert res.mu_global == res.mu_local + 2


def test_cz_index_from_numeric_paths(numeric_paths):
    for label, want in (("P1", 1), ("P2", 2), ("P3", 3)):
        res = czindex.cz_index(numeric_paths[label], frame_correction=1)
        assert res.mu_global == want


def test_global_frame_route_agrees(params, trio):
    """The same index must come out of the global trivialization with no
    correction; this exercises the frame-transfer identity end to end."""
    for orbit, want in zip(trio, (1, 2, 3)):
        path = model.restrict_linearized_to_xi(params, orbit,
                                               "global_frame", 257)
        res = czindex.cz_index(path, frame_correction=0)
        assert res.mu_global == want


def test_trivialization_winding_same_frame(params, trio):
    rho, _ = czindex.special_orbit_frames(params, trio[1], 128)
    assert czindex.trivialization_winding(trio[1], rho, rho) == 0


def test_trivialization_winding_rho_vs_global(params, trio):
    for orbit in trio:
        assert czindex.frame_correction_for(params, orbit) == 1


def test_trivialization_winding_constructed_rotation(params, trio):
    rho, _ = czindex.special_orbit_frames(params, trio[1], 128)
    ts = np.linspace(0, 2 * np.pi, len(rho))
    rot = np.array(rho)
    c, s = np.cos(ts), np.sin(ts)
    rot[:, :, 0] = c[:, None] * rho[:, :, 0] + s[:, None] * rho[:, :, 1]
    rot[:, :, 1] = -s[:, None] * rho[:, :, 0] + c[:, None] * rho[:, :, 1]
    assert czindex.trivialization_winding(trio[1], rot, rho) == 1


def test_trivialization_winding_rounding_guard(params, trio):
    rho, _ = czindex.special_orbit_frames(params, trio[1], 128)
    ts = np.linspace(0, np.pi, len(rho))  # half turn does not close
    rot = np.array(rho)
    c, s = np.cos(ts), np.sin(ts)
    rot[:, :, 0] = c[:, None] * rho[:, :, 0] + s[:, None] * rho[:, :, 1]
    rot[:, :, 1] = -s[:, None] * rho[:, :, 0] + c[:, None] * rho[:, :, 1]
    with pytest.raises(RoundingUnsafe):
        czindex.trivialization_winding(trio[1], rot, rho)


def test_oracle_end_matrix_traces(analytic_paths, trio):
    p2, p3 = trio[1], trio[2]
    m2 = analytic_paths["P2"].end_matrix()
    assert np.trace(m2) == pytest.approx(
        2 * np.cosh(np.sqrt(p2.k1 * p2.k2) * p2.reeb_period), rel=1e-12)
    assert np.trace(m2) > 2
    m3 = analytic_paths["P3"].end_matrix()
    assert np.trace(m3) == pytest.approx(
        2 * np.cos(np.sqrt(-p3.k1 * p3.k2) * p3.reeb_period), rel=1e-12)
    assert np.trace(m3) < 2


def test_hyperbolic_iteration_linearity(analytic_paths):
    for k in range(1, 5):
        res = czindex.iterate_index(analytic_paths["P2"], k, 1)
        assert res.mu_global == 2 * k


def test_iterate_identity_case(analytic_paths):
    base = czindex.cz_index(analytic_paths["P3"], 1)
    ite = czindex.iterate_index(analytic_paths["P3"], 1, 1)
    assert ite.mu_global == base.mu_global == 3


def test_elliptic_iterates_follow_rotation_number(params, analytic_paths,
                                                  trio):
    """Independent oracle: for the elliptic orbits the transverse path is an
    elliptic rotation with known angle, and the k-th iterate index is
    2 * floor(k * rho) + 1 with rho the global-frame rotation number."""
    for label in ("P1", "P3"):
        orbit = {o.label: o for o in trio}[label]
        w = np.sqrt(-orbit.k1 * orbit.k2)
        sign = -1.0 if orbit.k2 < 0 else 1.0
        rho = 1.0 + sign * w * orbit.reeb_period / (2 * np.pi)
        for k in (1, 2, 3):
            want = 2 * int(np.floor(k * rho)) + 1
            res = czindex.iterate_index(analytic_paths[label], k, 1)
            assert res.mu_global == want, (label, k)


def test_iterated_numeric_and_analytic_agree(numeric_paths, analytic_paths):
    for label in ("P1", "P2", "P3"):
        for k in (2, 3):
            a = czindex.iterate_index(numeric_paths[label], k, 1)
            b = czindex.iterate_index(analytic_paths[label], k, 1)
            assert a.mu_global == b.mu_global


def test_round_ellipsoid_rotation_indices():
    """Oracle from the irrational-ellipsoid flow: the short-axis orbit has
    index 3 and the long one 2k+1 with k bracketing 1 + (axis ratio)."""
    ratio = np.sqrt(2.0)
    short = czindex.rotation_path(1.0 / ratio, 257)
    res = czindex.cz_index(short, frame_correction=1)
    assert res.mu_global == 3
    long = czindex.rotation_path(ratio, 257)
    res = czindex.cz_index(long, frame_correction=1)
    k = int(np.floor(1.0 + ratio))
    assert k < 1.0 + ratio < k + 1
    assert res.mu_global == 2 * k + 1 == 5


def _const_section(vec):
    def sec(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        return np.broadcast_to(np.asarray(vec, float),
                               taus.shape + (2,)).copy()

    return sec


def test_quadrant_dichotomy_constant_sections(params, trio):
    p2 = trio[1]
    quads, sign = czindex.eigenframe_and_quadrants(
        params, p2, _const_section([1.0, 0.0]))
    assert sign == "-"
    assert set(quads.tolist()) <= {"II", "IV"}
    quads, sign = czindex.eigenframe_and_quadrants(
        params, p2, _const_section([-1.0, 0.0]))
    assert sign == "-"
    assert set(quads.tolist()) <= {"II", "IV"}
    quads, sign = czindex.eigenframe_and_quadrants(
        params, p2, _const_section([0.0, 1.0]))
    assert sign == "+"
    assert set(quads.tolist()) <= {"I", "III"}


def test_quadrant_dichotomy_wiggled_sections(params, trio):
    p2 = trio[1]

    def neg_sec(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        out = np.zeros(taus.shape + (2,))
        out[..., 0] = 1.0
        out[..., 1] = 0.2 * np.sin(2 * np.pi * taus)
        return out

    def pos_sec(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        out = np.zeros(taus.shape + (2,))
        out[..., 1] = 1.0
        out[..., 0] = 0.03 * np.sin(2 * np.pi * taus)
        return out

    quads, sign = czindex.eigenframe_and_quadrants(params, p2, neg_sec)
    assert sign == "-" and set(quads.tolist()) <= {"II", "IV"}
    quads, sign = czindex.eigenframe_and_quadrants(params, p2, pos_sec)
    assert sign == "+" and set(quads.tolist()) <= {"I", "III"}


def test_random_constant_sign_sections_never_mix(params, trio):
    """Any winding-preserving test section with uniform pairing sign must
    classify into the matching quadrant pair with no node in the other."""
    p2 = trio[1]
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(12):
        a0 = rng.uniform(-1, 1)
        amp = rng.uniform(0, 0.15)
        ph = rng.uniform(0, 2 * np.pi)

        def sec(taus, a0=a0, amp=amp, ph=ph):
            taus = np.atleast_1d(np.asarray(taus, float))
            out = np.zeros(taus.shape + (2,))
            out[..., 0] = np.sign(a0) if a0 else 1.0
            out[..., 1] = amp * np.sin(2 * np.pi * taus + ph)
            return out

        quads, sign = czindex.eigenframe_and_quadrants(params, p2, sec)
        if sign == "-":
            assert set(quads.tolist()) <= {"II", "IV"}
            checked += 1
        elif sign == "+":
            assert set(quads.tolist()) <= {"I", "III"}
            checked += 1
    assert checked >= 6


def test_eigendirection_section_is_boundary(params, trio, analytic_paths):
    p2 = trio[1]
    path = analytic_paths["P2"]
    vm, vp, beta = czindex.hyperbolic_eigenvectors(path)

    def sec(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        mats = path.value(taus)
        v = np.einsum("nij,j->ni", mats, vm)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    quads, sign = czindex.eigenframe_and_quadrants(params, p2, sec)
    assert sign == "mixed"
    assert set(quads.tolist()) == {None}


def test_eigenframe_invariance_residual(params, trio, analytic_paths):
    path = analytic_paths["P2"]
    vm, vp, beta = czindex.hyperbolic_eigenvectors(path)
    m = path.end_matrix()
    assert np.linalg.norm(m @ vm - beta * vm) < 1e-8 * beta
    assert np.linalg.norm(m @ vp - vp / beta) < 1e-8
    assert np.linalg.det(np.stack([vm, vp], axis=-1)) > 0


def test_quadrants_require_hyperbolic(params, trio):
    with pytest.raises(NotHyperbolic):
        czindex.eigenframe_and_quadrants(params, trio[0],
                                         _const_section([1.0, 0.0]))


def test_vanishing_section_rejected(params, trio):
    def sec(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        out = np.zeros(taus.shape + (2,))
        out[..., 0] = np.sin(np.pi * taus)  # zero at tau = 0
        return out

    with pytest.raises(VanishingSection):
        czindex.eigenframe_and_quadrants(params, trio[1], sec)


def test_lie_pairing_second_order_in_step(params, trio, analytic_paths):
    """Halving the finite-difference step reduces the pairing error by
    about 4 (centered differencing)."""
    path = analytic_paths["P2"]

    def sec(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        out = np.zeros(taus.shape + (2,))
        out[..., 0] = 1.0
        out[..., 1] = 0.25 * np.sin(2 * np.pi * taus)
        return out

    taus = np.arange(32) / 32

    def pairing(step):
        return czindex.lie_pairing(path, sec, taus, lie_step=step)

    h = 1e-3
    d1 = np.max(np.abs(pairing(2 * h) - pairing(h)))
    d2 = np.max(np.abs(pairing(h) - pairing(h / 2)))
    assert d1 > 0
    assert d1 / max(d2, 1e-300) == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# the group-law lift against the constructions it replaced


def _concatenated_iterate(path, k):
    """k-fold iterate by concatenating node blocks times repeated right
    products of the end matrix (the construction before the lift)."""
    end = path.end_matrix()
    powers = [np.eye(2)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ end)
    taus = [path.tau / k] + [(path.tau[1:] + j) / k for j in range(1, k)]
    mats = [path.mats] + [path.mats[1:] @ powers[j] for j in range(1, k)]
    return np.concatenate(taus), np.concatenate(mats)


def _stencil_shift(path, offset):
    """Nodes shifted by `offset` over the periodic grid, continued by Phi(1)
    past the end and by its inverse before the start (the construction
    before the lift)."""
    mats = path.mats[:-1]
    nn = len(mats)
    end = path.end_matrix()
    idx = np.arange(nn) + offset
    out = np.empty_like(mats)
    lo, hi = idx < 0, idx >= nn
    mid = ~(lo | hi)
    out[mid] = mats[idx[mid]]
    out[hi] = mats[idx[hi] - nn] @ end
    out[lo] = mats[idx[lo] + nn] @ np.linalg.inv(end)
    return out


@pytest.mark.parametrize("eps", [0.4, 0.5, 0.6])
def test_lift_bit_equal_to_concatenation_and_stencil(eps):
    p = model.HamiltonianParams.from_preset("validated", eps)
    for orbit in orbits.special_orbits(p):
        analytic = czindex.analytic_monodromy_oracle(p, orbit.label,
                                                     orbit=orbit)
        numeric = model.restrict_linearized_to_xi(p, orbit,
                                                  "rho_orbit_frame", 257)
        for path in (analytic, numeric):
            for k in range(2, 6):
                tau, mats = _concatenated_iterate(path, k)
                it = czindex.iterate_path(path, k)
                assert np.array_equal(it.tau, tau)
                assert np.array_equal(it.mats, mats)
            nn = path.n_nodes - 1
            _, ext = path.lift(np.arange(-2, nn + 2))
            for offset in (-2, -1, 1, 2):
                assert np.array_equal(ext[2 + offset:nn + 2 + offset],
                                      _stencil_shift(path, offset))


# ---------------------------------------------------------------------------
# the exact Lie pairing against the finite difference over the lifted path


def _differenced_pairing(path, section, taus, lie_step):
    """The pairing with Phi(t) Phi(t+s)^{-1} taken from the path values
    lifted by the group law (the construction before the exact one)."""
    def lifted(tau):
        j = np.floor(tau).astype(int)
        out = path.value(tau - j)
        for jj in set(j.tolist()) - {0}:
            out[j == jj] = out[j == jj] @ np.linalg.matrix_power(
                path.end_matrix(), jj)
        return out

    eta0 = section(taus)
    phi0 = path.value(taus % 1.0)

    def pulled(s):
        rel = phi0 @ np.linalg.inv(lifted(taus + s))
        return np.einsum("...ij,...j->...i", rel, section((taus + s) % 1.0))

    lie = (pulled(lie_step) - pulled(-lie_step)) / (2.0 * lie_step * path.period)
    return eta0[..., 0] * lie[..., 1] - eta0[..., 1] * lie[..., 0]


def _tilted_section(taus):
    taus = np.atleast_1d(np.asarray(taus, float))
    return np.stack([np.ones_like(taus),
                     0.25 * np.sin(2 * np.pi * taus)], axis=-1)


@pytest.mark.parametrize("label", ["P1", "P2", "P3"])
def test_lie_pairing_matches_lifted_difference(analytic_paths, label):
    path = analytic_paths[label]
    taus = np.arange(256) / 256
    for section in (_const_section([1.0, 0.0]), _tilted_section):
        got = czindex.lie_pairing(path, section, taus)
        want = _differenced_pairing(path, section, taus, 1e-5)
        assert np.all(np.sign(got) == np.sign(want))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_lie_pairing_needs_a_generator(numeric_paths):
    with pytest.raises(ValueError, match="constant generator"):
        czindex.lie_pairing(numeric_paths["P2"], _tilted_section,
                            np.arange(8) / 8)
