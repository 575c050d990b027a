import dataclasses

import numpy as np
import pytest

from reeblab import leaves, model, orbits
from reeblab.errors import (
    HypothesisFailure,
    OutsideEnergyCap,
    SlowConvergence,
    UnreliableWinding,
)
from reeblab.leaves import INTERVALS, LeafGrid, LeafProfile

EPS = 0.5


def test_energy_cap_roots(params):
    xp, xm = leaves.solve_xbar(params)
    assert 2 * EPS < xp < 2.0
    assert xm < 0.0
    assert abs(model.h2_eval(params, xp, 0.0) - 0.5) < 1e-12
    assert abs(model.h2_eval(params, xm, 0.0) - 0.5) < 1e-12
    assert abs(leaves.f_squared(params, xm)) < 1e-10


def test_energy_cap_small_epsilon_trend():
    p = model.HamiltonianParams.from_preset("validated", 0.01)
    orbits.validate_structure(p)
    xp, xm = leaves.solve_xbar(p)
    assert abs(xp - 1.0) < 0.02
    assert abs(xm + 1.0) < 0.02


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_energy_cap_roots_match_brent(eps):
    from scipy.optimize import brentq

    p = model.HamiltonianParams.from_preset("validated", eps)
    p3 = orbits.structure_of(p).axis_points[-1].location[0]
    xp, xm = leaves.solve_xbar(p)

    def cap(x):
        return float(model.h2_eval(p, x, 0.0)) - 0.5

    assert abs(xp - brentq(cap, p3, 4.0, xtol=1e-16)) <= 1e-15
    assert abs(xm - brentq(cap, -4.0, 0.0, xtol=1e-16)) <= 1e-15
    assert abs(cap(xp)) <= 1e-14
    assert abs(cap(xm)) <= 1e-14


def test_no_energy_cap_root_above_p3():
    # both nonzero axis points lie above the cap, the outer one at
    # x = 1.72361 with H2 = 0.707639
    p = model.HamiltonianParams(epsilon=2.0, a=-1.0, b=0.0, c=0.55, d=-0.1)
    with pytest.raises(OutsideEnergyCap, match="p3 = 1.72361, where H2 = 0.707639"):
        leaves.solve_xbar(p)


def test_profile_rhs_signs(params, trio):
    p3 = trio[2].z2_datum[0]
    p1 = trio[0].z2_datum[0]
    xp, _ = leaves.solve_xbar(params)
    assert leaves.profile_rhs(params, p3) == 0.0
    assert abs(leaves.profile_rhs(params, xp)) < 1e-9
    for g in np.linspace(p3 + 0.02, xp - 0.02, 9):
        assert leaves.profile_rhs(params, g) < 0.0
    for g in np.linspace(p1 + 0.02, p3 - 0.02, 9):
        assert leaves.profile_rhs(params, g) > 0.0


def test_profile_rhs_outside_cap(params):
    xp, _ = leaves.solve_xbar(params)
    with pytest.raises(OutsideEnergyCap):
        leaves.profile_rhs(params, xp + 0.1)


def test_profiles_monotone_with_correct_asymptotes(params):
    want = {
        "disk_to_P2": ("removable", "P2"),
        "cyl_P2_P1": ("P1", "P2"),
        "cyl_P3_P1": ("P1", "P3"),
        "plane_to_P3": ("removable", "P3"),
    }
    for iid in INTERVALS:
        prof = leaves.integrate_profile(params, iid)
        diffs = np.diff(prof.g)
        assert np.all(diffs > 0) or np.all(diffs < 0)
        assert np.all(np.diff(prof.a) > 0)
        assert (prof.asymptote_neg, prof.asymptote_pos) == want[iid]
        assert np.all(prof.f >= 0.0)
        # energy relation holds on the grid by construction
        assert np.max(np.abs(prof.f**2
                             - leaves.f_squared(params, prof.g))) < 1e-14


def test_profile_slow_convergence_guard(params, monkeypatch):
    # on 9 nodes the nested 5-node rule is far off the full one
    monkeypatch.setattr(leaves, "PROFILE_NODES", 9)
    with pytest.raises(SlowConvergence, match="9- and 5-node quadratures"):
        leaves.integrate_profile(params, "plane_to_P3")


def test_profile_has_no_arc_length_horizon():
    """At eps 0.02 the critical points crowd the origin and G is small
    between them, so s runs past 1000 before g is within 1e-6 of an orbit
    end; the quadrature has no horizon and still ends where it should."""
    p = model.HamiltonianParams.from_preset("validated", 0.02)
    orbits.validate_structure(p)
    trio = {o.label: o.z2_datum[0] for o in orbits.special_orbits(p)}
    spans = []
    for iid in INTERVALS:
        prof = leaves.integrate_profile(p, iid)
        spans.append(prof.s[-1] - prof.s[0])
        assert abs(abs(prof.g[-1] - trio[prof.asymptote_pos]) - 1e-6) < 1e-12
        if prof.asymptote_neg == "removable":
            assert abs(leaves.f_squared(p, prof.g[0]) - 1e-7) < 1e-12
        else:
            assert abs(abs(prof.g[0] - trio[prof.asymptote_neg]) - 1e-6) < 1e-12
    assert max(spans) > 1000.0


def test_leaf_samples_on_surface(params):
    prof = leaves.integrate_profile(params, "cyl_P3_P1")
    grid = leaves.assemble_leaf(params, prof, 64)
    h, _, _ = model.hamiltonian_eval(params, grid.u.reshape(-1, 4))
    assert np.max(np.abs(h - 0.5)) < 1e-10


def test_leaf_loops_are_circles(params):
    prof = leaves.integrate_profile(params, "plane_to_P3")
    grid = leaves.assemble_leaf(params, prof, 64)
    mid = len(prof.s) // 2
    radii = np.hypot(grid.u[mid, :, 0], grid.u[mid, :, 1])
    assert np.allclose(radii, prof.f[mid], atol=1e-14)
    assert np.allclose(grid.u[mid, :, 2], prof.g[mid], atol=1e-14)


def test_cap_end_collapses_to_point(params):
    prof = leaves.integrate_profile(params, "plane_to_P3")
    xp, _ = leaves.solve_xbar(params)
    grid = leaves.assemble_leaf(params, prof, 64)
    cap_loop = grid.u[0]
    assert np.max(np.linalg.norm(
        cap_loop - np.array([0, 0, xp, 0]), axis=-1)) < 2e-3


def test_asymptotic_loop_hausdorff_distance(params, trio):
    prof = leaves.integrate_profile(params, "plane_to_P3")
    grid = leaves.assemble_leaf(params, prof, 128)
    orbit_pts = trio[2].curve(512)
    end_loop = grid.u[-1]
    d = np.min(np.linalg.norm(end_loop[:, None, :] - orbit_pts[None, :, :],
                              axis=-1), axis=1)
    assert np.max(d) < 1e-4


def test_energy_and_mass_bookkeeping(params, trio, atlas):
    t1, t2, t3 = (o.reeb_period for o in trio)
    diag = {iid: atlas[iid]["diagnostics"] for iid in INTERVALS}
    assert diag["plane_to_P3"].hofer_energy == pytest.approx(t3, abs=1e-6)
    assert diag["plane_to_P3"].mass_neg_end == pytest.approx(0.0, abs=1e-6)
    assert diag["cyl_P3_P1"].hofer_energy == pytest.approx(t3, abs=1e-6)
    assert diag["cyl_P3_P1"].mass_neg_end == pytest.approx(t1, abs=1e-6)
    assert diag["cyl_P2_P1"].hofer_energy == pytest.approx(t2, abs=1e-6)
    assert diag["cyl_P2_P1"].mass_neg_end == pytest.approx(t1, abs=1e-6)
    assert diag["disk_to_P2"].hofer_energy == pytest.approx(t2, abs=1e-6)
    assert diag["disk_to_P2"].mass_neg_end == pytest.approx(0.0, abs=1e-6)
    # area identity: total d(lambda)-area is the difference of the ends
    assert diag["plane_to_P3"].dlambda_area == pytest.approx(t3, abs=1e-6)
    assert diag["cyl_P3_P1"].dlambda_area == pytest.approx(t3 - t1, abs=1e-6)


def test_cr_residual_second_order(params):
    for iid in INTERVALS:
        prof = leaves.integrate_profile(params, iid)
        grid = leaves.assemble_leaf(params, prof, 128)
        d1 = leaves.leaf_diagnostics(params, grid)
        prof2 = leaves.integrate_profile(params, iid, n_s=2 * len(prof.s) - 1)
        grid2 = leaves.assemble_leaf(params, prof2, 256)
        d2 = leaves.leaf_diagnostics(params, grid2)
        ratio = d1.cr_residual_max / d2.cr_residual_max
        assert 3.5 <= ratio <= 4.5, (iid, ratio)


def _grid_derivatives(grid: LeafGrid):
    """Centered second-order derivatives u_s (interior) and u_t (periodic)."""
    u = grid.u
    ds = grid.profile.s[1] - grid.profile.s[0]
    dt = grid.t[1] - grid.t[0]
    u_s = (u[2:] - u[:-2]) / (2.0 * ds)
    u_t = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * dt)
    return u_s, u_t[1:-1], ds, dt


def full_grid_diagnostics(p, grid, wind_floor=1e-9):
    """Oracle for leaf_diagnostics: the residual on all interior grid
    points, not on one meridian, and the end windings from the same pass."""
    prof = grid.profile
    u_s, u_t, ds, dt = _grid_derivatives(grid)
    pts = grid.u[1:-1]
    shp = pts.shape[:2]
    flat = pts.reshape(-1, 4)
    frame = model.contact_frame(p, flat)
    pi_us = frame.project(u_s.reshape(-1, 4))
    pi_ut = frame.project(u_t.reshape(-1, 4))
    j_piut = frame.apply_J(pi_ut)
    res1 = np.linalg.norm(pi_us + j_piut, axis=-1).reshape(shp)

    a_s = (grid.a[2:] - grid.a[:-2]) / (2.0 * ds)
    lam_ut = model.lambda0(flat, u_t.reshape(-1, 4)).reshape(shp)
    lam_us = model.lambda0(flat, u_s.reshape(-1, 4)).reshape(shp)
    res2 = np.abs(a_s[:, None] - lam_ut)
    res3 = np.abs(0.0 + lam_us)  # a_t = 0 for the symmetric ansatz
    cr = float(np.max(res1 + res2 + res3))

    hofer = float(np.pi * prof.f[-1] ** 2)
    mass_neg = float(np.pi * prof.f[0] ** 2)

    # the end windings read the first and last interior rows, where the
    # centred u_s and its frame are already in hand
    pi_us_rows = pi_us.reshape(shp + (4,))
    xbar1 = frame.Xbar1.reshape(shp + (4,))
    xbar2 = frame.Xbar2.reshape(shp + (4,))

    def wind_at(row, label):
        if label == "removable":
            return None
        sec = pi_us_rows[row]
        sec_max = np.max(np.linalg.norm(sec, axis=-1))
        if sec_max < wind_floor:
            raise UnreliableWinding(f"projected u_s up to {sec_max:g} below "
                                    f"floor {wind_floor:g} at the {label} end")
        # a closed loop's turn count is an integer however coarse the
        # sampling, so the largest angle step is the only guard
        turns, step = model.winding_turns(
            model.frame_coords(xbar1[row], xbar2[row], sec), closed=True)
        if step >= 0.5 * np.pi:
            raise UnreliableWinding(
                f"angle step {step:.3g} >= pi/2 at the {label} end")
        return int(np.round(turns))

    wind_pos = wind_at(-1, prof.asymptote_pos)
    wind_neg = wind_at(0, prof.asymptote_neg)

    checks = leaves.strong_section_check(p, grid, "pos") if prof.asymptote_pos != "removable" else None
    sign = checks["verdict_sign"] if checks else "n/a"

    return leaves.LeafDiagnostics(
        cr_residual_max=cr,
        hofer_energy=hofer,
        mass_neg_end=mass_neg,
        dlambda_area=hofer - mass_neg,
        wind_infty_pos=wind_pos,
        wind_infty_neg=wind_neg,
        section_pairing_sign=sign,
    )


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_meridian_diagnostics_match_the_full_grid(eps):
    """The residual on one meridian is the full grid's to rounding, since
    the leaf, H and lambda0 are all invariant under the rotation in t; the
    windings, energies and section sign are exactly the full grid's."""
    p = model.HamiltonianParams.from_preset("validated", eps)
    orbits.validate_structure(p)
    for iid in INTERVALS:
        grid = leaves.assemble_leaf(p, leaves.integrate_profile(p, iid))
        got = leaves.leaf_diagnostics(p, grid)
        want = full_grid_diagnostics(p, grid)
        assert abs(got.cr_residual_max - want.cr_residual_max) <= 1e-13, iid
        assert dataclasses.replace(
            got, cr_residual_max=want.cr_residual_max) == want, iid


def test_meridian_guard_rejects_an_asymmetric_grid(params):
    grid = leaves.assemble_leaf(
        params, leaves.integrate_profile(params, "cyl_P3_P1"))
    # one column lifted off the rotation orbit of the meridian: the centred
    # u_t on the meridian t = 0 reads it, the guard's meridian does not
    grid.u[1:-1, 1, 2] += 1e-7
    with pytest.raises(HypothesisFailure, match="not rotation-symmetric"):
        leaves.leaf_diagnostics(params, grid)


def dop853_profile(p, iid, prof):
    """Oracle for integrate_profile: g' = G(g) and a' = pi f^2 from the
    interval midpoint, where s = a = 0, by DOP853 at rtol 1e-13 out to each
    point of the profile's own s grid."""
    from scipy.integrate import solve_ivp

    g_mid = 0.5 * sum(leaves._interval_bounds(p, iid))

    def rhs(s, y):
        g = float(y[0])
        return [leaves.profile_rhs(p, g),
                np.pi * max(leaves.f_squared(p, g), 0.0)]

    out = np.empty((len(prof.s), 2))
    for side in (prof.s < 0.0, prof.s >= 0.0):
        idx = np.flatnonzero(side)[np.argsort(np.abs(prof.s[side]))]
        sol = solve_ivp(rhs, (0.0, prof.s[idx[-1]]), [g_mid, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-13,
                        t_eval=prof.s[idx])
        out[idx] = sol.y.T
    return out[:, 0], out[:, 1]


def test_profile_matches_dop853_oracle():
    """The quadrature profile agrees with a tight ODE solution on its own s
    grid to 1e-10 in g and a, on every interval at eps 0.3, 0.5 and 0.7."""
    for eps in (0.3, 0.5, 0.7):
        p = model.HamiltonianParams.from_preset("validated", eps)
        orbits.validate_structure(p)
        for iid in INTERVALS:
            prof = leaves.integrate_profile(p, iid)
            g, a = dop853_profile(p, iid, prof)
            assert np.max(np.abs(prof.g - g)) <= 1e-10, (eps, iid)
            assert np.max(np.abs(prof.a - a)) <= 1e-10, (eps, iid)


def test_asymptotic_windings_all_one(atlas):
    for iid in INTERVALS:
        d = atlas[iid]["diagnostics"]
        assert d.wind_infty_pos == 1
        if atlas[iid]["profile"].asymptote_neg != "removable":
            assert d.wind_infty_neg == 1


def test_unreliable_winding_guard(params):
    prof = leaves.integrate_profile(params, "plane_to_P3")
    grid = leaves.assemble_leaf(params, prof, 64)
    with pytest.raises(UnreliableWinding):
        leaves.leaf_diagnostics(params, grid, wind_floor=1e9)


def test_strong_sections_at_orbit_ends(params):
    for iid in INTERVALS:
        prof = leaves.integrate_profile(params, iid)
        grid = leaves.assemble_leaf(params, prof, 128)
        ends = [("pos", prof.asymptote_pos), ("neg", prof.asymptote_neg)]
        for end, label in ends:
            if label == "removable":
                continue
            res = leaves.strong_section_check(params, grid, end)
            assert res["verdict"] == "strong", (iid, end)
            # decaying approach at positive ends, growing at negative ones
            assert res["verdict_sign"] == ("-" if end == "pos" else "+")


def test_strong_section_rejects_removable_end(params):
    prof = leaves.integrate_profile(params, "plane_to_P3")
    grid = leaves.assemble_leaf(params, prof, 64)
    with pytest.raises(ValueError):
        leaves.strong_section_check(params, grid, "neg")


def ribbon_grid(params, orbit, taus, v):
    """A thin ribbon along `orbit` whose radial section has orbit-adapted
    coordinates v (n_t, 2) at the parameters taus; both ends are `orbit`."""
    pts = orbit.point(taus * orbit.reeb_period)
    vec4 = np.einsum("nij,nj->ni", model.rho_frame_basis(params, pts), v)
    s = np.array([-1e-3, 0.0, 1e-3])
    u = pts[None, :, :] + s[:, None, None] * vec4[None, :, :]
    prof = LeafProfile(s=s, g=u[:, 0, 2],
                       f=np.hypot(u[:, 0, 0], u[:, 0, 1]),
                       a=np.zeros(3), asymptote_neg=orbit.label,
                       asymptote_pos=orbit.label)
    return LeafGrid(profile=prof, t=taus, u=u, a=np.zeros(3))


def test_flow_invariant_surface_fails_strong_check(params, trio):
    """A surface whose radial section is carried by the linearized flow has
    vanishing pairing: the strong-section verdict must be 'fails'."""
    from reeblab.czindex import analytic_monodromy_oracle, \
        hyperbolic_eigenvectors

    p2 = trio[1]
    path = analytic_monodromy_oracle(params, "P2", orbit=p2)
    vm, _, _ = hyperbolic_eigenvectors(path)
    n_t = 64
    taus = np.arange(n_t) / n_t
    mats = path.value(taus)
    v = np.einsum("nij,j->ni", mats, vm)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    grid = ribbon_grid(params, p2, taus, v)
    res = leaves.strong_section_check(params, grid, "pos")
    assert res["verdict"] == "fails"


def test_fast_turning_end_section_is_unreliable(params, trio):
    """Two turns over 8 samples in the orbit-adapted frame, three in the
    global one: each angle step is 3 pi / 4, so the rounded sum is not a
    winding the samples can vouch for."""
    n_t = 8
    taus = np.arange(n_t) / n_t
    ang = 4.0 * np.pi * taus
    v = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    grid = ribbon_grid(params, trio[1], taus, v)
    with pytest.raises(UnreliableWinding, match="angle step 2.36"):
        leaves.leaf_diagnostics(params, grid)


def test_atlas_roles_and_index_arithmetic(atlas):
    assert atlas["disk_to_P2"]["fredholm_index"] == 1
    assert atlas["cyl_P2_P1"]["fredholm_index"] == 1
    assert atlas["cyl_P3_P1"]["fredholm_index"] == 2
    assert atlas["plane_to_P3"]["fredholm_index"] == 2
    for iid in INTERVALS:
        assert atlas[iid]["wind_pi"] == 0
    assert "disk" in atlas["disk_to_P2"]["role"]
    assert "cylinder" in atlas["cyl_P2_P1"]["role"]


def test_leaf_transverse_to_flow(params, atlas):
    """The projected leaf is transverse to the Reeb direction: at interior
    nodes the projected derivatives never both vanish."""
    grid = atlas["cyl_P3_P1"]["grid"]
    u = grid.u
    ds = grid.profile.s[1] - grid.profile.s[0]
    dt = grid.t[1] - grid.t[0]
    u_s = (u[2:] - u[:-2]) / (2 * ds)
    u_t = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1))[1:-1] / (2 * dt)
    pts = u[1:-1].reshape(-1, 4)
    fr = model.contact_frame(params, pts)
    pi_us = fr.project(u_s.reshape(-1, 4))
    pi_ut = fr.project(u_t.reshape(-1, 4))
    total = np.linalg.norm(pi_us, axis=-1) + np.linalg.norm(pi_ut, axis=-1)
    assert np.min(total) > 0.0
