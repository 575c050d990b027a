import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeblab import model
from reeblab.errors import DegenerateFrame, NoConvergence, NotClosed, NotStarShaped

EPS = 0.5


def h2_fraction_oracle(eps, a, b, c, d, x, y):
    """Independent polynomial evaluation of the planar factor in exact
    rational arithmetic."""
    eps, a, b, c, d, x, y = (Fraction(v) for v in (eps, a, b, c, d, x, y))
    r2 = x * x + y * y
    return r2 * r2 / 2 + eps * a * x**3 + eps * b * x * y * y \
        + eps**2 * c * x * x + eps**2 * d * y * y


def test_hamiltonian_on_unit_circle(params):
    h, grad, hess = model.hamiltonian_eval(params, [1.0, 0.0, 0.0, 0.0])
    assert h == pytest.approx(0.5, abs=0)
    assert np.allclose(grad, [1, 0, 0, 0])
    assert np.allclose(hess[:2, :2], np.eye(2))


def test_h2_value_at_outer_point_fraction_oracle(params):
    x = 2 * EPS
    expected = h2_fraction_oracle(Fraction(1, 2), Fraction(-5, 3),
                                  Fraction(-3, 2), 1, Fraction(-1, 8), x, 0)
    assert expected == Fraction(-1, 12)  # -4 eps^4 / 3 at eps = 1/2
    got = model.h2_eval(params, x, 0.0)
    assert got == pytest.approx(float(expected), abs=1e-15)


def test_gradient_vanishes_at_origin(params):
    _, grad, _ = model.hamiltonian_eval(params, np.zeros(4))
    assert np.all(grad == 0.0)


def test_hessian_matches_finite_differences(params):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4) * 0.3
    _, grad, hess = model.hamiltonian_eval(params, z)
    step = 1e-6
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = step
        _, gp, _ = model.hamiltonian_eval(params, z + dz)
        _, gm, _ = model.hamiltonian_eval(params, z - dz)
        fd = (gp - gm) / (2 * step)
        assert np.allclose(hess[:, k], fd, atol=1e-7)


def test_vector_fields_on_base_circle(params):
    z = np.array([1.0, 0.0, 0.0, 0.0])
    xh, h, r = model.vector_fields(params, z)
    assert np.allclose(xh, [0, 1, 0, 0])
    assert h == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(r, [0, 2, 0, 0])


def test_reeb_normalization_on_outer_orbit(params, trio):
    p3 = trio[2]
    z = p3.initial_state
    _, h, _ = model.vector_fields(params, z)
    assert h == pytest.approx(2.0 / p3.r**2, rel=1e-14)


def test_positive_transversality_at_energy_cap(params):
    from reeblab.leaves import solve_xbar

    xp, _ = solve_xbar(params)
    z = np.array([0.0, 0.0, xp, 0.0])
    _, h, _ = model.vector_fields(params, z)  # must not raise
    assert h > 0


def test_not_star_shaped_guard(params):
    # between the middle and outer axis roots the axis quantity x*Q is
    # negative when x1 = y1 = 0 (off-surface probe of the guard)
    z = np.array([0.0, 0.0, 0.7, 0.0])
    with pytest.raises(NotStarShaped):
        model.vector_fields(params, z)


def _states_near_surface(p, n, seed):
    """States with |H - 1/2| <= 1e-3: a random planar point in the disc of
    radius 0.9 and the (x1, y1) circle that makes up the energy."""
    rng = np.random.default_rng(seed)
    x2, y2 = rng.uniform(-0.9, 0.9, (2, 2 * n))
    h1 = 0.5 - model.h2_eval(p, x2, y2) + rng.uniform(-1e-3, 1e-3, 2 * n)
    keep = (x2 * x2 + y2 * y2 <= 0.81) & (h1 > 0.0)
    r1 = np.sqrt(2.0 * h1[keep][:n])
    phi = rng.uniform(0.0, 2.0 * np.pi, len(r1))
    out = np.stack([r1 * np.cos(phi), r1 * np.sin(phi),
                    x2[keep][:n], y2[keep][:n]], axis=-1)
    assert len(out) == n
    return out


def test_reeb_rhs_bitwise_equals_vector_fields(params):
    rhs = model.reeb_rhs(params)
    rhs_var = model.reeb_rhs(params, with_variational=True)
    m = np.random.default_rng(11).standard_normal(16)
    for z in _states_near_surface(params, 10000, seed=10):
        _, _, r = model.vector_fields(params, z)
        assert np.array_equal(np.asarray(rhs(0.0, z)), r)
        assert np.array_equal(rhs_var(0.0, np.concatenate([z, m]))[:4], r)


def test_reeb_variational_block_matches_finite_differences(params, trio):
    # the 4x4 block at M = I is the Jacobian of the Reeb field
    rhs_var = model.reeb_rhs(params, with_variational=True)
    states = np.concatenate([_states_near_surface(params, 40, seed=12),
                             [o.initial_state for o in trio]])
    step = 1e-5
    for z in states:
        jac = rhs_var(0.0, np.concatenate([z, np.eye(4).ravel()]))[4:]
        jac = jac.reshape(4, 4)
        fd = np.empty((4, 4))
        for k in range(4):
            dz = np.zeros(4)
            dz[k] = step
            _, _, rp = model.vector_fields(params, z + dz)
            _, _, rm = model.vector_fields(params, z - dz)
            fd[:, k] = (rp - rm) / (2.0 * step)
        assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(jac)


@pytest.mark.parametrize("with_variational", [False, True])
def test_integrate_flow_not_star_shaped_guard(params, with_variational):
    # the off-surface probe of test_not_star_shaped_guard
    z = np.array([0.0, 0.0, 0.7, 0.0])
    with pytest.raises(NotStarShaped):
        model.integrate_flow(params, z, 1.0, with_variational=with_variational)


def test_contact_eval_values():
    lam = model.lambda0([1, 0, 0, 0], [0, 1, 0, 0])
    assert lam == pytest.approx(0.5, abs=0)
    dl = model.dlambda0([1, 0, 0, 0], [0, 1, 0, 0])
    assert dl == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4))
def test_dlambda_antisymmetric(u):
    u = np.array(u)
    assert model.dlambda0(u, u) == pytest.approx(0.0, abs=1e-12)


def test_frame_span_on_base_orbit(params, trio):
    p2 = trio[1]
    for t in (0.0, 0.3, 1.1):
        z = p2.point(np.array(t))
        fr = model.contact_frame(params, z)
        # contact frame lies in the planar-factor coordinate plane
        assert np.allclose(fr.Xbar1[:2], 0.0, atol=1e-14)
        assert np.allclose(fr.Xbar2[:2], 0.0, atol=1e-14)


def test_frame_kills_reeb_direction(params, trio):
    for orbit in trio:
        z = orbit.point(np.array(0.37))
        fr = model.contact_frame(params, z)
        assert np.linalg.norm(fr.project(fr.reeb)) < 1e-12


def test_rho_frame_basis_broadcasts_over_nodes(params, trio):
    for orbit in trio:
        pts = orbit.point(np.arange(257) / 256 * orbit.reeb_period)
        stacked = np.stack([model.rho_frame_basis(params, z) for z in pts])
        assert np.array_equal(model.rho_frame_basis(params, pts), stacked)


@pytest.mark.parametrize("closed", [False, True])
def test_winding_turns_of_rigid_rotation(closed):
    n = 64
    ks = np.array([-2.0, 1.0, 3.0])
    # closed: n samples, the closing step back to the first counts;
    # open: n + 1 samples with the last on top of the first
    t = np.arange(n if closed else n + 1) / n
    ang = 2.0 * np.pi * t[:, None] * ks[None, :]
    vecs = np.stack([np.cos(ang), np.sin(ang)], axis=1)  # (n, 2, 3)
    turns, step = model.winding_turns(vecs, closed=closed)
    assert turns == pytest.approx(ks, abs=1e-12)
    assert step == pytest.approx(2.0 * np.pi * np.abs(ks) / n, abs=1e-12)
    one, one_step = model.winding_turns(vecs[:, :, 2], closed=closed)
    assert one == pytest.approx(3.0, abs=1e-12)
    assert one_step == pytest.approx(6.0 * np.pi / n, abs=1e-12)


def radial_surface_point(params, direction):
    """Independent on-surface sampler: bisection along the ray (the surface
    is star-shaped, so each ray crosses it once)."""
    u = np.asarray(direction, float)
    u = u / np.linalg.norm(u)
    lo, hi = 0.0, 2.0
    while model.hamiltonian_eval(params, hi * u)[0] < 0.5:
        hi *= 1.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if model.hamiltonian_eval(params, mid * u)[0] < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * u


def surface_sample(params, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([radial_surface_point(params, v)
                     for v in rng.standard_normal((n, 4))])


def test_j_compatibility_on_sample_grid(params):
    pts = surface_sample(params, 40, seed=1)
    fr = model.contact_frame(params, pts)
    jx1 = fr.apply_J(fr.Xbar1)
    vals = model.dlambda0(fr.Xbar1, jx1)
    assert np.all(vals > 0)
    # J^2 = -1
    jjx1 = fr.apply_J(jx1)
    assert np.allclose(jjx1, -fr.Xbar1, atol=1e-9)


def test_frame_symplectic_normalization(params, trio):
    pts = trio[2].curve(64)
    xb1, xb2 = model.frame_sections(params, pts)
    assert np.allclose(model.dlambda0(xb1, xb2), 1.0, atol=1e-12)
    assert np.all(np.abs(model.lambda0(pts, xb1)) < 1e-12)
    assert np.all(np.abs(model.lambda0(pts, xb2)) < 1e-12)


def test_degenerate_frame_at_gradient_zero(params):
    with pytest.raises(DegenerateFrame):
        model.frame_sections(params, np.zeros(4))


def test_flow_closure_of_base_orbit(params, trio):
    p2 = trio[1]
    traj, _ = model.integrate_flow(params, p2.initial_state, p2.reeb_period,
                                   tol=1e-11)
    assert np.linalg.norm(traj.states[-1] - p2.initial_state) < 1e-8


def test_fundamental_matrix_unimodular(params, trio):
    p3 = trio[2]
    _, mats = model.integrate_flow(params, p3.initial_state, p3.reeb_period,
                                   with_variational=True, tol=1e-11)
    assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-8


def test_energy_conservation_long_run(params):
    z0 = radial_surface_point(params, np.array([0.9, 0.1, 0.3, 0.2]))
    traj, _ = model.integrate_flow(params, z0, 40.0, tol=1e-10)
    assert traj.energy_drift < 1e-7


@pytest.mark.parametrize("seed", [2, 3])
def test_flow_reversibility(params, seed):
    rng = np.random.default_rng(seed)
    z0 = radial_surface_point(params, rng.standard_normal(4))
    tol = 1e-10
    fwd, _ = model.integrate_flow(params, z0, 1.5, tol=tol)
    back, _ = model.integrate_flow(params, fwd.states[-1], -1.5, tol=tol)
    assert np.linalg.norm(back.states[-1] - z0) < 10 * tol
    # longer horizons accumulate, but stay within a modest multiple
    fwd, _ = model.integrate_flow(params, z0, 5.0, tol=tol)
    back, _ = model.integrate_flow(params, fwd.states[-1], -5.0, tol=tol)
    assert np.linalg.norm(back.states[-1] - z0) < 100 * tol


def test_reeb_defining_identities(params):
    pts = surface_sample(params, 25, seed=4)
    _, _, reeb = model.vector_fields(params, pts)
    assert np.max(np.abs(model.lambda0(pts, reeb) - 1.0)) < 1e-9
    # d(lambda)(R, v) = 0 for tangent v
    _, grad, _ = model.hamiltonian_eval(params, pts)
    rng2 = np.random.default_rng(5)
    v = rng2.standard_normal((25, 4))
    v -= (np.sum(v * grad, axis=1) / np.sum(grad * grad, axis=1))[:, None] * grad
    assert np.max(np.abs(model.dlambda0(reeb, v))) < 1e-9


def test_surface_project_fixed_point(params):
    z = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(model.surface_project(params, z), z)


def test_surface_project_small_perturbation(params):
    z = np.array([1.0 + 1e-6, 0.0, 0.0, 0.0])
    out = model.surface_project(params, z)
    h, _, _ = model.hamiltonian_eval(params, out)
    assert abs(h - 0.5) < 1e-12
    # displacement parallel to grad H
    d = out - z
    _, grad, _ = model.hamiltonian_eval(params, z)
    cross = d - (d @ grad) / (grad @ grad) * grad
    assert np.linalg.norm(cross) < 1e-12


def test_surface_project_far_point_rejected(params):
    with pytest.raises(NoConvergence):
        model.surface_project(params, np.array([2.0, 0.0, 0.0, 0.0]))


def test_path_starts_at_identity_and_symplectic(params, numeric_paths):
    for path in numeric_paths.values():
        assert np.array_equal(path.mats[0], np.eye(2))
        assert path.det_defect() < 1e-7


def test_restriction_rejects_an_orbit_that_does_not_close(params, trio):
    short = dataclasses.replace(trio[2], reeb_period=0.9 * trio[2].reeb_period)
    with pytest.raises(NotClosed, match="gap"):
        model.restrict_linearized_to_xi(params, short)


def test_base_orbit_end_matrix_hyperbolic(params, numeric_paths, trio):
    m = numeric_paths["P2"].end_matrix()
    ev = np.linalg.eigvals(m)
    ev = np.sort(np.real(ev))
    assert np.all(np.abs(np.imag(np.linalg.eigvals(m))) < 1e-9)
    beta = ev[1]
    assert beta > 1.0
    assert ev[0] == pytest.approx(1.0 / beta, rel=1e-6)
    # analytic multiplier from the transverse constants
    p2 = trio[1]
    w = np.sqrt(p2.k1 * p2.k2)
    assert beta == pytest.approx(np.exp(w * p2.reeb_period), rel=1e-7)


def test_middle_orbit_rotation_like(params, numeric_paths):
    m = numeric_paths["P1"].end_matrix()
    tr = m[0, 0] + m[1, 1]
    assert -2.0 < tr < 2.0  # elliptic
    assert m[1, 0] < 0  # clockwise at the start direction


def test_numeric_path_matches_analytic_nodes(monkeypatch):
    """The variational flow against the closed-form transverse monodromy,
    to 1e-8 of its size, in fewer than 600 right-hand-side calls per binding
    orbit (DOP853 takes 377-407 here, RK45 more than 1,100)."""
    from reeblab import czindex, orbits

    calls = []
    reeb_rhs = model.reeb_rhs

    def counted_rhs(p, with_variational):
        f = reeb_rhs(p, with_variational)

        def rhs(t, y):
            calls[-1] += 1
            return f(t, y)
        return rhs

    monkeypatch.setattr(model, "reeb_rhs", counted_rhs)
    for eps in (0.3, 0.5, 0.7):
        p = model.HamiltonianParams.from_preset("validated", eps)
        orbits.validate_structure(p)
        for orbit in orbits.special_orbits(p):
            calls.append(0)
            num = model.restrict_linearized_to_xi(p, orbit, "rho_orbit_frame",
                                                  257)
            exact = czindex.analytic_monodromy_oracle(
                p, orbit.label, orbit=orbit).value(num.tau)
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(num.mats - exact)) < 1e-8 * scale, \
                (eps, orbit.label)
            assert 0 < calls[-1] < 600, (eps, orbit.label, calls[-1])


def test_trajectory_csv_header(params, trio):
    from reeblab.cli import _csv

    traj, _ = model.integrate_flow(params, trio[1].initial_state, 0.3,
                                   n_samples=5)
    h, _, _ = model.hamiltonian_eval(params, traj.states)
    csv = _csv("t,x1,y1,x2,y2,H", np.column_stack([traj.t, traj.states, h]))
    lines = csv.splitlines()
    assert lines[0] == "t,x1,y1,x2,y2,H"
    assert len(lines) == 6
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert np.allclose(rows[:, 0], traj.t, rtol=1e-11, atol=0)
    assert np.allclose(rows[:, 1:5], traj.states, rtol=1e-11, atol=1e-300)
