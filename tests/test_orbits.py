import gc
import weakref

import numpy as np
import pytest

from reeblab import knots, model, orbits
from reeblab.errors import (
    HypothesisFailure,
    NoReturn,
    NotClosed,
    SlowConvergence,
    StructureMismatch,
)
from reeblab.model import HamiltonianParams

EPS = 0.5


def test_axis_roots_against_polynomial_oracle(params):
    # oracle: numpy companion-matrix roots of Q(x, 0)
    e, a, c = EPS, -5.0 / 3.0, 1.0
    roots = np.sort(np.roots([2.0, 3 * e * a, 2 * e * e * c, 0.0]))
    locs = np.sort([cp.location[0] for cp in params.structure.points])
    assert np.allclose(locs, roots, atol=1e-12)
    assert np.allclose(roots, [0.0, EPS / 2, 2 * EPS], atol=1e-12)


def test_critical_point_classification(params):
    by_x = sorted(params.structure.points, key=lambda cp: cp.location[0])
    origin, mid, outer = by_x
    assert origin.hessian_signature == "saddle"
    assert origin.flow_type == "hyperbolic"
    assert mid.hessian_signature == "max"
    assert mid.flow_type == "elliptic"
    assert outer.hessian_signature == "min"
    assert outer.flow_type == "elliptic"
    # ordering of the critical values brackets zero
    assert outer.h2_value < 0.0 < mid.h2_value


def test_transverse_constants_closed_form(params):
    by_x = sorted(params.structure.points, key=lambda cp: cp.location[0])
    origin = by_x[0]
    e, c, d = EPS, 1.0, -1.0 / 8.0
    h = 2.0  # r = 1 over the origin
    assert origin.k1 == pytest.approx(-2 * h * e * e * d, rel=1e-12)
    assert origin.k2 == pytest.approx(2 * h * e * e * c, rel=1e-12)
    assert origin.k1 * origin.k2 > 0  # hyperbolic iff c d < 0


def test_figure_preset_structure(params_figure):
    rep = params_figure.structure
    assert not rep.count_ok
    assert len(rep.points) == 5
    origin = min(rep.points, key=lambda cp: np.hypot(*cp.location))
    assert origin.flow_type == "elliptic"
    assert origin.k1 * origin.k2 < 0
    with pytest.raises(StructureMismatch):
        orbits.special_orbits(params_figure)


def _newton_grid_critical(p):
    """Oracle for the closed-form critical points: Newton on grad(H2) from a
    41 x 41 seed grid over [-4 eps, 4 eps]^2, converged points within 6 eps
    kept and merged at 1e-7."""
    e = p.epsilon
    g = np.linspace(-4 * e, 4 * e, 41)
    xx, yy = np.meshgrid(g, g)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    for _ in range(60):
        q, pp = model.h2_grad(p, pts[:, 0], pts[:, 1])
        grad = np.stack([q, pp], axis=-1)
        hess = model.h2_hess(p, pts[:, 0], pts[:, 1])
        det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] ** 2
        ok = np.abs(det) > 1e-14
        step = np.zeros_like(pts)
        inv00 = hess[ok, 1, 1] / det[ok]
        inv01 = -hess[ok, 0, 1] / det[ok]
        inv11 = hess[ok, 0, 0] / det[ok]
        step[ok, 0] = inv00 * grad[ok, 0] + inv01 * grad[ok, 1]
        step[ok, 1] = inv01 * grad[ok, 0] + inv11 * grad[ok, 1]
        pts = pts - step
    q, pp = model.h2_grad(p, pts[:, 0], pts[:, 1])
    keep = (np.hypot(q, pp) <= 1e-9) & (np.max(np.abs(pts), axis=-1) <= 6 * e)
    # one representative per 1e-9 cell first, so the greedy merge is short
    _, first = np.unique(np.round(pts[keep], 9), axis=0, return_index=True)
    merged = np.zeros((0, 2))
    for pt in pts[keep][np.sort(first)]:
        if not np.any(np.hypot(*(merged - pt).T) < 1e-7):
            merged = np.vstack([merged, pt])
    return merged


def _oracle_cases():
    cases = [HamiltonianParams.from_preset(name, eps)
             for name in ("validated", "paper-figure")
             for eps in (0.1, 0.5, 1.0, 2.0)]
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        cases.append(HamiltonianParams(
            epsilon=float(rng.choice([0.1, 0.5, 1.0, 2.0])), a=a, b=b, c=c, d=d))
    return cases


def test_closed_form_critical_points_match_newton_grid():
    n_off_axis = 0
    for p in _oracle_cases():
        points, circle = orbits.find_critical_points(p)
        got = np.array([cp.location for cp in points])
        want = _newton_grid_critical(p)
        assert circle is None
        assert got.shape == want.shape, p
        dist = np.hypot(got[:, None, 0] - want[None, :, 0],
                        got[:, None, 1] - want[None, :, 1])
        assert np.max(np.min(dist, axis=0)) <= 1e-12, p
        assert np.max(np.min(dist, axis=1)) <= 1e-12, p
        n_off_axis += int(np.sum(got[:, 1] != 0.0))
    assert n_off_axis >= 100  # the off-axis branch is exercised


def test_circle_of_critical_points_is_one_anomaly():
    # a = b = 0 and c = d: H2 is radial, with a circle of minima
    p = HamiltonianParams(epsilon=0.5, a=0.0, b=0.0, c=-1.0, d=-1.0)
    points, circle = orbits.find_critical_points(p)
    assert circle == (0.0, 0.5)
    assert [cp.location[0] for cp in points] == [-0.5, 0.0, 0.5]
    # every point the Newton grid converges to is the origin or on the circle
    grid = _newton_grid_critical(p)
    radius = np.hypot(grid[:, 0], grid[:, 1])
    assert len(grid) > 100
    assert np.all((radius < 1e-12) | (np.abs(radius - 0.5) < 1e-9))
    rep = orbits.validate_structure(p)
    assert not rep.ok
    assert rep.anomalies[0] == ("critical points fill the circle of centre "
                                "(0, 0) and radius 0.5")
    assert not any("expected 3" in a for a in rep.anomalies)


def test_special_orbit_periods_closed_forms(trio):
    p1, p2, p3 = trio
    assert p2.reeb_period == pytest.approx(np.pi, abs=1e-15)
    assert p1.reeb_period == pytest.approx(np.pi * (1 - 7 * EPS**4 / 48),
                                           abs=1e-12)
    assert p3.reeb_period == pytest.approx(np.pi * (1 + 8 * EPS**4 / 3),
                                           abs=1e-12)
    assert p1.reeb_period < p2.reeb_period < p3.reeb_period \
        < 2 * p1.reeb_period


def test_on_surface_radii(params, trio):
    for orbit in trio:
        h2 = float(model.h2_eval(params, *orbit.z2_datum))
        assert orbit.r**2 == pytest.approx(1.0 - 2.0 * h2, abs=1e-10)
    assert trio[1].r == pytest.approx(1.0, abs=1e-15)


def test_period_chain_fails_at_large_epsilon():
    p = HamiltonianParams.from_preset("validated", 1.2)
    orbits.validate_structure(p)
    with pytest.raises(HypothesisFailure, match="2\\*T1"):
        orbits.special_orbits(p)


def test_orbits_reintegrate_to_closure(params, trio):
    for orbit in trio:
        traj, _ = model.integrate_flow(params, orbit.initial_state,
                                       orbit.reeb_period, tol=1e-11)
        assert np.linalg.norm(traj.states[-1] - orbit.initial_state) < 1e-7


def test_action_equals_period(trio):
    for orbit in trio:
        action = orbits.orbit_action(orbit.curve(2048))
        assert action == pytest.approx(orbit.reeb_period, abs=1e-9)


def test_action_of_point_loop_is_zero():
    loop = np.tile([0.3, 0.1, 0.2, 0.0], (64, 1))
    assert orbits.orbit_action(loop) == 0.0


def test_action_rejects_open_curve():
    t = np.linspace(0, 1.5 * np.pi, 64)
    arc = np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=-1)
    with pytest.raises(NotClosed):
        orbits.orbit_action(arc)


def test_planar_period_near_elliptic_point(params):
    # oracle: linearized frequency sqrt(det Hess) at the outer center
    outer = max(params.structure.points, key=lambda cp: cp.location[0])
    hess = model.h2_hess(params, outer.location[0], outer.location[1])
    omega = np.sqrt(np.linalg.det(hess))
    level = outer.h2_value * 0.999 + 0.001 * 0.0
    seeds = orbits.axis_level_seeds(params, level)
    seed = seeds[np.argmin(np.abs(seeds[:, 0] - outer.location[0]))]
    tau, area, _ = orbits.planar_period_and_area(params, level, seed)
    assert tau == pytest.approx(2 * np.pi / omega, rel=2e-2)
    assert abs(area) < 1e-3


@pytest.mark.parametrize("level", [-0.0346, -0.02, -0.05])
def test_area_derivative_is_the_period(params, level):
    """dA/dC = tau: the period is the derivative of the enclosed area in
    the energy (loops around the outer well, central difference)."""
    def outer_loop(c):
        seeds = orbits.axis_level_seeds(params, c)
        return orbits.planar_period_and_area(
            params, c, seeds[np.argmax(seeds[:, 0])])

    delta = 1e-6
    tau, _, _ = outer_loop(level)
    _, a_hi, _ = outer_loop(level + delta)
    _, a_lo, _ = outer_loop(level - delta)
    assert (a_hi - a_lo) / (2.0 * delta) == pytest.approx(tau, rel=1e-7)


def test_planar_period_exceeds_base_period(params):
    """Every planar loop in the scan window is slower than the base circle;
    this is what forces multiplicity m1 >= 2 for resonant products."""
    vals = sorted(cp.h2_value for cp in params.structure.points)
    lo, hi = vals[0], vals[-1]
    for level in np.linspace(lo + 1e-3, hi - 1e-4, 7):
        for seed in orbits.axis_level_seeds(params, level):
            q, pp = model.h2_grad(params, seed[0], seed[1])
            if np.hypot(q, pp) < 1e-9:
                continue
            tau, _, _ = orbits.planar_period_and_area(params, level, seed)
            assert tau > 2 * np.pi


def test_no_return_with_short_horizon(params):
    with pytest.raises(NoReturn) as err:
        orbits.planar_period_and_area(params, -1e-5,
                                      orbits.axis_level_seeds(params, -1e-5)[0],
                                      max_time=5.0)
    assert err.value.elapsed is not None


def test_scan_empty_at_top_period(params, trio):
    cands, diags = orbits.resonant_orbit_scan(params, trio[2].reeb_period,
                                              n_levels=12)
    assert cands == []
    assert all(d.get("claim_pass", True) for d in diags)


def test_scan_candidates_cross_checked_by_action_quadrature(params):
    cands, _ = orbits.resonant_orbit_scan(params, 10.0, n_levels=12)
    assert cands
    for cand in cands[:4]:
        loop4 = orbits.product_loop(cand["loop"], cand["level"], cand["m1"],
                                    cand["m2"], n=4096)
        action = orbits.orbit_action(loop4)
        expected = cand["m1"] * np.pi * (1 - 2 * cand["level"]) \
            + cand["m2"] * cand["area"]
        assert action == pytest.approx(expected, abs=1e-6)


def test_scan_skips_critical_seeds(params):
    vals = sorted(cp.h2_value for cp in params.structure.points)
    # a grid collapsed onto the top critical value has its degenerate seed
    # dropped rather than producing a bogus candidate
    cands, _ = orbits.resonant_orbit_scan(
        params, 100.0, level_lo=vals[-1] - 1e-15, level_hi=vals[-1],
        n_levels=1)
    assert all(abs(c["level"] - vals[-1]) > 1e-16 for c in cands)


def test_scan_reports_each_component_once(params):
    """A component's loop is traced from its first axis seed only; every
    other seed on it is skipped, so no two entries repeat a loop."""
    cands, diags = orbits.resonant_orbit_scan(params, 10.0, n_levels=12)
    entries = cands + [d for d in diags if "tau" in d]
    assert cands and len(entries) > 12
    for i, e in enumerate(entries):
        for f in entries[:i]:
            assert not (e["level"] == f["level"]
                        and e["tau"] == pytest.approx(f["tau"], rel=1e-8)
                        and e["area"] == pytest.approx(f["area"], rel=1e-6))


def _components(p, level, n_loop=2048):
    """(seed, tau, area, samples) of each loop of the level, in the order of
    orbits.level_loops, with n_loop samples at equal time steps."""
    (loops,) = orbits.level_loops(p, [level])
    return [(lp.seed, lp.tau, lp.area, orbits.loop_samples(p, lp, n_loop))
            for lp in loops]


@pytest.mark.parametrize("offset", [1e-5, -1e-5, 1e-8, -1e-8])
def test_level_components_match_every_seed_traced(params, offset):
    """Oracle: trace every non-critical axis seed and group the loops by
    enclosed area.  Near the saddle value the components crowd together;
    loops of one component traced from different seeds agree in area to
    about 1e-7, while distinct components differ at order one."""
    saddle = next(cp for cp in params.structure.points
                  if cp.hessian_signature == "saddle")
    level = saddle.h2_value + offset
    comps = _components(params, level)
    areas = []
    for seed in orbits.axis_level_seeds(params, level):
        if np.hypot(*model.h2_grad(params, seed[0], seed[1])) < 1e-9:
            continue
        _, area, _ = orbits.planar_period_and_area(params, level, seed)
        if not any(area == pytest.approx(a, rel=1e-4) for a in areas):
            areas.append(area)
    assert sorted(area for _, _, area, _ in comps) == pytest.approx(
        sorted(areas), rel=1e-6)


def _scan_levels(params, n_levels):
    vals = sorted(cp.h2_value for cp in params.structure.axis_points)
    lo, hi = vals[0], vals[-1]
    return [lo + (k + 0.5) * (hi - lo) / n_levels for k in range(n_levels)]


def _figure_levels(params):
    vals = sorted(cp.h2_value for cp in params.structure.axis_points)
    lo, hi = vals[0], vals[-1]
    return [0.75 * lo, 0.45 * lo, 0.2 * lo, 0.5 * hi, 0.95 * hi, 3.0 * hi,
            10.0 * hi, 0.25]


def test_arcs_match_the_ode_trace(params):
    """Oracle: the DOP853 trace.  On every loop of the 64-level scan grid
    (2048 samples) and of the 8 figure levels (512 samples), the arcs'
    period and signed area agree with the trace to 1e-8 (the rtol 1e-10
    trace is itself off by about 2e-9 next to the separatrix), and their
    samples, at equal time steps from the seed, with the trace's to 1e-6:
    the time is interpolated linearly between 1025 points a piece."""
    traced = 0
    for levels, n_loop in ((_scan_levels(params, 64), 2048),
                           (_figure_levels(params), 512)):
        for level in levels:
            for seed, tau, area, loop in _components(params, level, n_loop):
                traced += 1
                want_tau, want_area, want_loop = orbits.planar_period_and_area(
                    params, level, seed)
                assert tau == pytest.approx(want_tau, rel=1e-8)
                assert area == pytest.approx(want_area, rel=1e-8)
                assert loop.shape == (n_loop, 2)
                assert np.all(loop[0] == seed)
                assert np.max(np.abs(
                    loop - want_loop[::2048 // n_loop])) <= 1e-6
    assert traced == 77


def test_scan_integrates_nothing(params, trio, monkeypatch):
    """Every scan loop comes from the arcs: neither the DOP853 trace nor
    the planar right-hand side is called."""
    def refused(*args, **kwargs):
        raise AssertionError("the scan integrated the planar flow")

    monkeypatch.setattr(orbits, "planar_period_and_area", refused)
    monkeypatch.setattr(orbits, "planar_rhs", refused)
    cands, diags = orbits.resonant_orbit_scan(params, trio[2].reeb_period)
    assert cands == [] and len(diags) == 67
    assert all(d["claim_pass"] for d in diags)


def _fine_period(p, seed):
    """Oracle next to the saddle: DOP853 at rtol 1e-13 from a seed to the
    axis.  A loop through an axis seed is twice the leg to its other
    crossing; through a seed z off the axis, twice the legs from z and from
    R z = (x, -y), each to its first crossing, so that every leg starts in
    the slow passage by the saddle instead of crossing it."""
    def leg(z, sense):
        return orbits._trace_to_axis(p, np.asarray(z, float), sense, 1e4,
                                     1e-13, 1e-16, "no crossing")[2]

    if seed[1] == 0.0:
        q, _ = model.h2_grad(p, seed[0], 0.0)
        return 2.0 * leg(seed, -np.sign(q))
    side = np.sign(seed[1])
    return 2.0 * (leg(seed, -side) + leg(seed * [1.0, -1.0], side))


def test_arcs_trace_the_kidney_loop_hugging_the_separatrix(params):
    """At level -2.5e-4 the loop through x = 1.274 hugs the inner separatrix
    loop and folds round the maximum, so it is not star-shaped about the
    well at x = 1.  The arcs match the rtol 1e-13 trace from every one of
    its seeds to 1e-9."""
    level = _scan_levels(params, 64)[60]
    assert level == pytest.approx(-2.5e-4, rel=1e-2)
    (seed, tau, _, _), = _components(params, level)
    assert seed[0] == pytest.approx(1.274, abs=1e-3)
    for z in orbits.axis_level_seeds(params, level):
        assert tau == pytest.approx(_fine_period(params, z), rel=1e-9)


@pytest.mark.parametrize("offset", [1e-5, -1e-5, 1e-8, -1e-8])
def test_arcs_match_a_fine_trace_next_to_the_saddle(params, offset):
    """Each seed within 0.1 of the saddle lies on a loop that crosses the
    slow passage by it; the trace from there, at rtol 1e-13, agrees with
    that loop's period to 1e-9.  (The rtol 1e-10 trace from x = 1.2743 is
    off by 1.7e-5 at level 1e-8.)"""
    comps = _components(params, offset)
    near = [z for z in orbits.axis_level_seeds(params, offset)
            if 1e-6 < np.hypot(*z) < 0.1]
    assert near
    for z in near:
        want = _fine_period(params, z)
        assert min(abs(tau - want) for _, tau, _, _ in comps) <= 1e-9 * want


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_inner_and_outer_ovals_share_their_period(eps):
    """Oracle with no arc in common: on every level between the saddle's 0
    and the maximum's H2(p1), the level set is an inner oval round the
    maximum and an outer oval round both wells, and the two periods are
    equal."""
    p = HamiltonianParams.from_preset("validated", eps)
    top = max(cp.h2_value for cp in orbits.validate_structure(p).points)
    for frac in (0.001, 0.1, 0.5, 0.9):
        (_, outer, _, _), (_, inner, _, _) = _components(p, frac * top, 64)
        assert inner == pytest.approx(outer, rel=1e-11)


@pytest.mark.parametrize("level, tau, area", [
    (-0.1, 3.316109039, 0.13916886),
    (-0.05, 4.213252266, 0.32427934),
    (-0.01, 6.641287963, 0.52791708),
])
def test_loops_about_off_axis_wells(level, tau, area, monkeypatch):
    """With a = 1, b = -1, c = 1, d = -2 both wells lie off the axis, so
    these levels are two mirror-image loops that never meet it: chains of
    arcs between two folds, none integrated.  The whole-loop trace with no
    symmetry agrees."""
    p = HamiltonianParams(epsilon=EPS, a=1.0, b=-1.0, c=1.0, d=-2.0)
    orbits.validate_structure(p)
    calls = []
    rhs = orbits.planar_rhs
    monkeypatch.setattr(orbits, "planar_rhs",
                        lambda p: calls.append(p) or rhs(p))
    comps = _components(p, level)
    assert calls == []
    monkeypatch.undo()
    assert len(comps) == 2
    assert sorted(np.sign(seed[1]) for seed, _, _, _ in comps) == [-1, 1]
    for seed, got_tau, got_area, loop in comps:
        assert got_tau == pytest.approx(tau, abs=1e-9)
        assert abs(got_area) == pytest.approx(area, abs=1e-8)
        assert np.all(np.sign(loop[:, 1]) == np.sign(seed[1]))
        want_tau, want_area, _ = _chunked_period_and_area(p, seed, 512)
        assert got_tau == pytest.approx(want_tau, rel=1e-8)
        assert got_area == pytest.approx(want_area, rel=1e-8)


def _fold_period(p, seed):
    """Period of the loop through a fold point, by DOP853 at rtol 1e-13: the
    time to the next crossing of the line y = seed[1] in the direction the
    flow crosses it at the seed."""
    from scipy.integrate import solve_ivp

    def section(t, z):
        return z[1] - seed[1]

    section.direction = np.sign(model.h2_grad(p, *seed)[0])  # dy/dt = Q
    sol = solve_ivp(orbits.planar_rhs(p), (0.0, 20.0), seed, method="DOP853",
                    rtol=1e-13, atol=1e-14, events=section)
    return next(t for t in sol.t_events[0] if t > 1e-6)


@pytest.mark.parametrize("coeffs, level, tau", [
    ((1.0, -1.0, 1.0, -2.0), -0.14, 2.9316956874),
    ((1.0, -1.0, 1.0, -2.0), -0.13, 3.0133296326),
    # the figure levels 0.75 and 0.45 times the lowest axis critical value
    ((-1.36, 1.88, 0.06, -1.54), -0.12376909904818464, 2.708615472),
    ((-1.36, 1.88, 0.06, -1.54), -0.0742614594289108, 3.340290564),
])
def test_loops_that_meet_no_axis(coeffs, level, tau):
    """A loop about an off-axis well below the first level whose loops reach
    an axis has no axis seed: it starts at the fold its flow leaves, and its
    mirror image, the other, has the same period."""
    a, b, c, d = coeffs
    p = HamiltonianParams(epsilon=EPS, a=a, b=b, c=c, d=d)
    orbits.validate_structure(p)
    wells = [(seed, t) for seed, t, _, _ in _components(p, level)
             if seed[0] != 0.0 and seed[1] != 0.0]
    assert sorted(np.sign(seed[1]) for seed, _ in wells) == [-1, 1]
    assert wells[0][1] == pytest.approx(wells[1][1], rel=1e-13)
    for seed, got in wells:
        assert got == pytest.approx(tau, abs=1e-9)
        assert got == pytest.approx(_fold_period(p, seed), rel=1e-9)


def test_arc_quadrature_refuses_an_unconverged_rule(params, monkeypatch):
    """With 8 nodes an arc's rule and its 4-node half disagree: the loop is
    refused by name, not reported."""
    monkeypatch.setattr(orbits, "ARC_NODES", 8)
    with pytest.raises(SlowConvergence, match="8- and 4-node arc quadratures"):
        orbits.level_loops(params, [-0.02])


def test_loop_records_free_their_batch_without_the_cycle_collector(params):
    """A loop record holds its batch of arcs and nothing in the batch refers
    back to it, so dropping the records frees the batch by reference
    counting alone: a cycle would keep each batch of arcs alive until the
    cycle collector ran."""
    gc.collect()
    gc.disable()
    try:
        per_level = orbits.level_loops(params, [-0.02, 0.01])
        batch = [weakref.ref(a) for a in per_level[0][0].arcs]
        del per_level
        assert [ref() for ref in batch] == [None] * len(batch)
    finally:
        gc.enable()


def _chunked_period_and_area(p, seed, n_loop):
    """Oracle for the axis tracer: the whole loop integrated with no symmetry
    (DOP853, rtol 1e-10, atol 1e-12) in chunks of 64 time units, up to its
    first return near the seed to the line through the seed orthogonal to
    the flow, in the flow's direction, and sampled piece by piece."""
    from scipy.integrate import solve_ivp

    seed = np.asarray(seed, float)
    rhs = orbits.planar_rhs(p)
    v0 = np.array(rhs(0.0, seed))
    speed = np.linalg.norm(v0)
    v0n = v0 / speed

    def section(t, z):
        return (z[0] - seed[0]) * v0n[0] + (z[1] - seed[1]) * v0n[1]

    section.direction = 1.0
    pieces = []
    t0, z = 0.0, seed
    tau = None
    while t0 < 1e4 and tau is None:
        sol = solve_ivp(rhs, (t0, min(t0 + 64.0, 1e4)), z, method="DOP853",
                        rtol=1e-10, atol=1e-12, events=section,
                        dense_output=True)
        pieces.append(sol)
        for te in sol.t_events[0]:
            ze = sol.sol(te)
            if te >= 1e-9 and np.hypot(*(ze - seed)) < 0.05 * max(1.0, speed):
                tau = float(te)
                break
        t0, z = float(sol.t[-1]), sol.y[:, -1]
    assert tau is not None
    ts = np.arange(n_loop) / n_loop * tau
    loop = np.empty((n_loop, 2))
    lo = 0
    for sol in pieces:
        hi = max(int(np.searchsorted(ts, sol.t[-1], side="right")), lo)
        if lo < hi:
            loop[lo:hi] = sol.sol(ts[lo:hi]).T
        lo = hi
    if lo < n_loop:
        loop[lo:] = pieces[-1].sol(ts[lo:]).T
    return tau, orbits._loop_area(p, loop, tau), loop


def _check_against_the_chunked_trace(p, level, seed, rel):
    """The axis tracer's period and area agree with the chunked trace to
    `rel`, and its samples, the mirrored half included, to 1e-7; the loop
    starts at the seed; and R(x, y) = (x, -y) maps it onto the loop through
    R(seed) run backwards, which for a seed on the axis is the loop itself."""
    tau, area, loop = orbits.planar_period_and_area(p, level, seed)
    want_tau, want_area, want_loop = _chunked_period_and_area(p, seed,
                                                              len(loop))
    assert tau == pytest.approx(want_tau, rel=rel)
    assert area == pytest.approx(want_area, rel=rel)
    assert np.max(np.abs(loop - want_loop)) <= 1e-7
    assert np.hypot(*(loop[0] - seed)) < 1e-12
    _, _, mirrored = orbits.planar_period_and_area(p, level, seed * [1, -1])
    backwards = np.roll(loop[::-1], 1, axis=0) * [1.0, -1.0]
    assert np.max(np.abs(backwards - mirrored)) <= (
        1e-12 if seed[1] == 0.0 else 1e-7)


def test_axis_tracer_matches_the_chunked_trace_on_the_scan_fallbacks(params):
    """The 4 kidney-shaped scan loops next to the inner separatrix loop, at
    levels -4.4e-3 to -2.5e-4, each seeded on the axis near x = 1.27."""
    for k in (57, 58, 59, 60):
        level = _scan_levels(params, 64)[k]
        seeds = orbits.axis_level_seeds(params, level)
        seed = seeds[np.argmax(seeds[:, 0])]
        assert seed[0] == pytest.approx(1.27, abs=6e-3)
        _check_against_the_chunked_trace(params, level, seed, 1e-9)


@pytest.mark.parametrize("p, levels", [
    (HamiltonianParams.from_preset("paper-figure", EPS),
     [-0.05, -0.01, 5e-4, 3e-3, 0.01, 0.1]),
    (HamiltonianParams(epsilon=EPS, a=0.3, b=-0.7, c=-1.0, d=0.5),
     [-0.04, -0.01, 0.05, 0.3]),
], ids=["paper-figure", "custom"])
def test_axis_tracer_matches_the_chunked_trace_at_every_axis_seed(p, levels):
    """Every centre of these coefficients lies on the axis, so every loop
    meets it.  Seeds on the y-axis start off the axis, between its two
    crossings."""
    off_axis = 0
    for level in levels:
        for seed in orbits.axis_level_seeds(p, level):
            if np.hypot(*model.h2_grad(p, seed[0], seed[1])) < 1e-9:
                continue
            _check_against_the_chunked_trace(p, level, seed, 1e-8)
            off_axis += seed[1] != 0.0
    assert off_axis >= 4


def test_claim_bound_on_base_orbit(params, trio):
    res = orbits.claim_hessian_period(params, trio[1].curve(512), 2 * np.pi)
    assert res["h_sup"] >= 1.0
    assert res["product"] >= 2 * np.pi - 1e-9
    assert res["pass"]


def test_claim_bound_on_planar_loop(params):
    mid = max(params.structure.points, key=lambda cp: cp.h2_value)
    level = mid.h2_value / 2
    seeds = orbits.axis_level_seeds(params, level)
    seed = seeds[np.argmin(np.abs(seeds[:, 0] - mid.location[0]))]
    tau, _, loop = orbits.planar_period_and_area(params, level, seed)
    res = orbits.claim_hessian_period(params, loop, tau)
    assert res["pass"]


def test_claim_planar_norm_is_the_spectral_norm(params):
    """Oracle: the SVD norm of each planar Hessian along a loop."""
    level = _scan_levels(params, 64)[10]
    seeds = orbits.axis_level_seeds(params, level)
    tau, _, loop = orbits.planar_period_and_area(params, level, seeds[0])
    res = orbits.claim_hessian_period(params, loop, tau)
    hess = model.h2_hess(params, loop[:, 0], loop[:, 1])
    want = np.max(np.linalg.norm(hess, ord=2, axis=(-2, -1)))
    assert res["h_sup"] == pytest.approx(want, rel=1e-14)


def test_claim_rejects_constant_loop(params):
    loop = np.tile([0.2, 0.0], (16, 1))
    with pytest.raises(ValueError):
        orbits.claim_hessian_period(params, loop, 1.0)


@pytest.mark.parametrize("eps", [0.5, 0.8])
def test_separatrix_crossings_match_quadratic_roots(eps):
    # oracle: roots of x^2/2 + eps a x + eps^2 c = 0 (nonzero factor of the
    # planar function restricted to the axis); the horizon is the Reeb time
    # back to the launch point, so both legs end next to P2 at every eps
    p = HamiltonianParams.from_preset("validated", eps)
    orbits.validate_structure(p)
    (g1, g2), _, report = orbits.separatrix_and_homoclinics(p)
    a, c = -5.0 / 3.0, 1.0
    disc = np.sqrt(a * a - 2 * c)
    r_small = eps * (-a - disc)
    r_large = eps * (-a + disc)
    assert g1.axis_crossings[0] == pytest.approx(r_small, abs=1e-8)
    assert g2.axis_crossings[0] == pytest.approx(r_large, abs=1e-8)
    assert report["end_distance_forward"] < 1e-4
    assert report["end_distance_backward"] < 1e-4


def test_separatrix_on_zero_level(separatrix, params):
    """Every sample is a point of the level H2 = 0 by construction: y^2 is
    the branch of the level over x."""
    (g1, g2), _, _ = separatrix
    for br in (g1, g2):
        vals = model.h2_eval(params, br.samples[:, 0], br.samples[:, 1])
        assert np.max(np.abs(vals)) < 1e-12


def test_homoclinic_converges_to_binding_orbit(separatrix):
    _, traj, report = separatrix
    assert report["end_distance_forward"] <= 1e-4
    assert report["end_distance_backward"] <= 1e-4


def test_stable_direction_backward_gives_same_branches(params, separatrix):
    """The stable and unstable manifolds coincide; tracing the stable
    eigendirection backward lands on the same branch set."""
    (g1, g2), _, _ = separatrix
    v_unst, v_stab, _ = orbits.saddle_eigendirections(params)
    from scipy.integrate import solve_ivp

    rhs = orbits.planar_rhs(params)
    crossings = []
    for sign in (+1, -1):
        z0 = sign * 1e-6 * v_stab

        def x_axis(t, z):
            return z[1]

        sol = solve_ivp(rhs, (0.0, -400.0), z0, method="DOP853", rtol=1e-12,
                        atol=1e-15, events=x_axis, dense_output=True)
        xs = [float(sol.sol(te)[0]) for te in sol.t_events[0]
              if abs(sol.sol(te)[0]) > 1e-4]
        crossings.extend(xs[:1])
    got = np.sort(np.array(crossings))
    expected = np.sort(np.concatenate([g1.axis_crossings[:1],
                                       g2.axis_crossings[:1]]))
    assert np.allclose(got, expected, atol=1e-7)


@pytest.mark.parametrize("eps", [0.8, 1.2])
def test_branches_meet_the_axis_at_the_quadratic_roots(eps, monkeypatch):
    """Where the structure holds, both branches close, up to eps = 1.2: the
    axis crossings are eps (5 -+ sqrt 7) / 3, the nonzero roots of H2(x, 0)
    for a = -5/3, c = 1."""
    p = HamiltonianParams.from_preset("validated", eps)
    calls = []
    built = orbits._separatrix_branch

    def counted(*args):
        calls.append(args)
        return built(*args)

    monkeypatch.setattr(orbits, "_separatrix_branch", counted)
    (g1, g2), _, _ = orbits.separatrix_and_homoclinics(p)
    assert len(calls) == 2
    assert g1.axis_crossings[0] == pytest.approx(
        eps * (5.0 - np.sqrt(7.0)) / 3.0, abs=1e-8)
    assert g2.axis_crossings[0] == pytest.approx(
        eps * (5.0 + np.sqrt(7.0)) / 3.0, abs=1e-8)


def test_branch_that_never_meets_the_axis_is_refused_before_any_work(
        monkeypatch):
    """With a = 1, b = -1, c = 1, d = -2 the branches circle the off-axis
    wells at (0.148, +-0.743), one each, and never meet the axis:
    x^2 / 2 + eps a x + eps^2 c has no real root.  The separatrix is refused
    by its discriminant, eps^2 (a^2 - 2c) = -0.25, before any branch is
    built, and nothing is integrated."""
    p = HamiltonianParams(epsilon=0.5, a=1.0, b=-1.0, c=1.0, d=-2.0)
    wells = [cp.location for cp in orbits.structure_of(p).points
             if cp.location[1] != 0.0]
    assert np.allclose(sorted(wells, key=lambda w: w[1]),
                       [[0.148, -0.743], [0.148, 0.743]], atol=1e-3)
    v_unst, _, mu = orbits.saddle_eigendirections(p)
    horizon = 4.0 / mu * np.log(1e6)
    import scipy.integrate
    from scipy.integrate import solve_ivp

    for sign in (+1.0, -1.0):
        sol = solve_ivp(orbits.planar_rhs(p), (0.0, horizon),
                        sign * 1e-6 * v_unst, method="DOP853", rtol=1e-13,
                        atol=1e-16, dense_output=True)
        z = sol.sol(np.linspace(0.0, horizon, 20001)).T
        # the branch keeps to one side of the axis and circles that
        # side's well
        assert np.all(z[:, 1] * z[0, 1] > 0.0)
        for w in wells:
            turns = np.unwrap(np.arctan2(z[:, 1] - w[1], z[:, 0] - w[0]))
            assert abs(turns[-1] - turns[0]) / (2.0 * np.pi) == \
                pytest.approx(2.0 if w[1] * z[0, 1] > 0.0 else 0.0, abs=0.01)

    calls = []
    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        lambda *args, **kwargs: calls.append("solve_ivp"))
    monkeypatch.setattr(orbits, "_separatrix_branch",
                        lambda *args: calls.append("branch"))
    with pytest.raises(NoReturn, match=r"discriminant -0\.25 < 0"):
        orbits.separatrix_and_homoclinics(p)
    assert calls == []


def test_branch_that_returns_to_the_saddle_is_refused():
    """With a = -1.7, b = -1.1, c = 1.4, d = -0.05 the level's axis
    quadratic has real roots, yet each branch turns at folds back to the
    saddle without meeting the axis, as DOP853 from the unstable direction
    shows: it comes back within 1e-4 of the saddle on its own side of the
    axis.  The arcs' walk refuses the separatrix by name."""
    from scipy.integrate import solve_ivp

    p = HamiltonianParams(epsilon=0.5, a=-1.7, b=-1.1, c=1.4, d=-0.05)
    v_unst, _, mu = orbits.saddle_eigendirections(p)

    def back(t, z):
        return np.hypot(*z) - 1e-4

    back.terminal, back.direction = True, -1.0
    for sign in (+1.0, -1.0):
        z0 = sign * 1e-6 * v_unst
        sol = solve_ivp(orbits.planar_rhs(p), (0.0, 4.0 / mu * np.log(1e6)),
                        z0, method="DOP853", rtol=1e-12, atol=1e-15,
                        events=back)
        assert len(sol.t_events[0]) == 1
        assert np.all(sol.y[1] * z0[1] > 0.0)
    with pytest.raises(NoReturn, match="returns to the saddle without "
                                       "meeting the axis"):
        orbits.separatrix_and_homoclinics(p)


def _dop853_branch(p, z0):
    """Oracle for a separatrix branch: DOP853 at rtol 1e-13 from its launch
    point z0 on the level H2 = 0, run past the apex to twice the time of
    its first crossing of the axis.  Returns the dense output and that
    time."""
    from scipy.integrate import solve_ivp

    def x_axis(t, z):
        return z[1]

    x_axis.terminal, x_axis.direction = True, -np.sign(z0[1])
    rhs = orbits.planar_rhs(p)
    first = solve_ivp(rhs, (0.0, 1e4), z0, method="DOP853", rtol=1e-13,
                      atol=1e-16, events=x_axis)
    t_apex = float(first.t_events[0][0])
    sol = solve_ivp(rhs, (0.0, 2.0 * t_apex), z0, method="DOP853",
                    rtol=1e-13, atol=1e-16, dense_output=True)
    return sol.sol, t_apex


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7, 0.8, 1.2])
def test_branches_match_a_dop853_trace_from_the_launch_point(eps):
    """Oracle: DOP853 at rtol 1e-13 from each branch's own launch point.
    gamma1's time to its apex (the base angle at the end of the leg, which
    turns at unit rate) agrees to 1e-11 relative; both branches' 2001
    samples at equal time steps to the apex, and the leg's 800 planar
    states, agree to 1e-10.  Measured: at most 9.1e-13 in t_apex and
    7.6e-12 in position (gamma2 at eps 0.8)."""
    p = HamiltonianParams.from_preset("validated", eps)
    (g1, g2), traj, _ = orbits.separatrix_and_homoclinics(p)
    for br in (g1, g2):
        dense, t_apex = _dop853_branch(p, br.samples[0])
        half = dense(np.linspace(0.0, t_apex, 2001)).T
        assert np.max(np.abs(br.samples[:2001] - half)) <= 1e-10
        if br is g1:
            fwd = traj.states[len(traj.t) // 2:]
            leg_time = np.unwrap(np.arctan2(fwd[:, 1], fwd[:, 0]))[-1]
            assert leg_time == pytest.approx(t_apex, rel=1e-11)
            planar = dense(t_apex - np.linspace(0.0, t_apex, 800)).T
            assert np.max(np.abs(fwd[:, 2:] - planar * [1.0, -1.0])) <= 1e-10


def test_separatrix_quadrature_refuses_an_unconverged_rule(params,
                                                          monkeypatch):
    """With 8 nodes a branch's rule and its 4-node half disagree: the
    separatrix is refused by name, not reported."""
    monkeypatch.setattr(orbits, "ARC_NODES", 8)
    with pytest.raises(SlowConvergence, match="8- and 4-node arc quadratures"):
        orbits.separatrix_and_homoclinics(params)


def test_arc_places_newton_refines_a_coarse_first_guess(params,
                                                          monkeypatch):
    """On the 8-node rule, whose time table has 129 points, the first guess
    of a sample's place misses and Newton takes steps.  Every place then
    meets its time on the pieces' interpolants, by numpy's own Legendre
    fit and integral, and the integral of dt/dphi itself gives the times
    back."""
    legendre = np.polynomial.legendre
    rows = []
    branch = orbits._separatrix_branch(params, 1.0, rows)
    tau, _, _, _, dt = orbits._arc_sums(params, np.array(rows, complex), 8)
    tau, dt = tau[branch.pieces], dt[branch.pieces]
    times = np.linspace(0.0, tau.sum(), 2001)
    evals = []
    vander = legendre.legvander
    monkeypatch.setattr(legendre, "legvander",
                        lambda x, n: evals.append(n) or vander(x, n))
    j, xi, integral = orbits._arc_places(tau, dt, times, dt)
    monkeypatch.undo()
    assert len(evals) > 1
    nodes, _ = legendre.leggauss(8)
    start = np.concatenate([[0.0], np.cumsum(tau)])
    placed = [start[k] + 0.5 * np.pi * legendre.legval(x, legendre.legint(
        legendre.legfit(nodes, dt[k], 7), lbnd=-1.0)) for k, x in zip(j, xi)]
    assert np.max(np.abs(np.array(placed) - times)) <= 1e-13 * times[-1]
    assert np.max(np.abs(integral - times)) <= 1e-13 * times[-1]


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.6])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_mirrored_branch_half_is_the_integrated_one(eps, sign):
    """Oracle for the planar reversing symmetry: integrated on past its
    apex, a branch comes back along the mirror image of its first half,
    z(t_apex + u) = R z(t_apex - u), and its area is the Green's-theorem
    integral of (x dy - y dx) / 2 carried along the ODE.  `sign` picks the
    branch whose launch point has x of that sign."""
    from scipy.integrate import solve_ivp

    p = HamiltonianParams.from_preset("validated", eps)
    branch = next(br for br in orbits.separatrix_and_homoclinics(p)[0]
                  if np.sign(br.samples[0, 0]) == sign)
    dense, t_apex = _dop853_branch(p, branch.samples[0])
    assert dense(t_apex)[0] == pytest.approx(branch.axis_crossings[0],
                                             abs=1e-12)
    full = dense(np.linspace(0.0, 2.0 * t_apex, 4001)).T
    assert np.max(np.abs(full - branch.samples)) <= 1e-6
    rhs = orbits.planar_rhs(p)

    def green(t, z):
        dx, dy = rhs(t, z[:2])
        return dx, dy, 0.5 * (z[0] * dy - z[1] * dx)

    aug = solve_ivp(green, (0.0, 2.0 * t_apex), [*branch.samples[0], 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-16)
    assert branch.enclosed_area == pytest.approx(aug.y[2, -1], rel=1e-10)


def _reeb_flow_oracle(p, z0, t_eval):
    """The 4-D Reeb flow from z0, integrated at the tolerance of the planar
    branches and sampled at t_eval."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(model.reeb_rhs(p), (0.0, t_eval[-1]), z0,
                    method="DOP853", rtol=1e-13, atol=1e-13, t_eval=t_eval)
    return sol.y.T


@pytest.mark.parametrize("p", [
    HamiltonianParams.from_preset("validated", 0.3),
    HamiltonianParams.from_preset("validated", 0.5),
    HamiltonianParams.from_preset("validated", 0.6),
    HamiltonianParams.from_preset("validated", 0.8),
    HamiltonianParams.from_preset("validated", 1.2),
    HamiltonianParams(epsilon=0.5, a=0.3, b=-0.7, c=-1.0, d=0.5),
], ids=["eps0.3", "eps0.5", "eps0.6", "eps0.8", "eps1.2", "custom"])
def test_homoclinic_leg_is_the_reeb_flow_from_the_apex(p, monkeypatch):
    """Oracle for the leg built from gamma1's planar half and the Reeb-time
    quadrature: the 4-D Reeb flow integrated from the apex passes through
    its samples at their Reeb times; the backward leg is its mirror under
    R(x1, y1, x2, y2) = (x1, -y1, x2, -y2); and no 4-D flow is integrated
    to build it."""
    calls = []
    reeb_rhs, integrate = model.reeb_rhs, model.integrate_flow

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model, "reeb_rhs", counted("rhs", reeb_rhs))
    monkeypatch.setattr(model, "integrate_flow", counted("flow", integrate))
    _, traj, report = orbits.separatrix_and_homoclinics(p)
    assert calls == []
    monkeypatch.undo()

    apex = len(traj.t) // 2
    assert traj.t[apex] == 0.0
    assert traj.t[-1] == report["horizon"]
    fwd = traj.states[apex:]
    err = np.max(np.abs(_reeb_flow_oracle(p, fwd[0], traj.t[apex:]) - fwd),
                 axis=1)
    # the leg closes on the saddle, whose unstable direction amplifies any
    # difference between the two over the second half
    assert np.max(err[:len(err) // 2]) <= 1e-10
    assert np.max(err) <= 1e-7
    mirror = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(traj.states[apex::-1], fwd * mirror)
    assert np.array_equal(traj.t[apex::-1], -traj.t[apex:])
    assert report["end_distance_backward"] == report["end_distance_forward"]
    assert traj.energy_drift < 1e-12


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.8, 1.0, 1.2])
def test_homoclinic_horizon_brings_the_flow_to_the_binding_orbit(eps):
    """The reported end distance is the 1e-6 launch offset by construction;
    the 4-D Reeb flow integrated from the apex for the reported horizon
    ends within 1e-4 of P2 too, whether the leg is long (eps = 0.3) or
    short (eps = 1.2)."""
    p = HamiltonianParams.from_preset("validated", eps)
    _, traj, report = orbits.separatrix_and_homoclinics(p)
    apex = len(traj.t) // 2
    end = _reeb_flow_oracle(p, traj.states[apex], [report["horizon"]])[-1]
    p2 = orbits.ReebOrbit(label="P2", z2_datum=np.zeros(2), r=1.0,
                          reeb_period=float(np.pi))
    assert orbits.distance_to_orbit_set(p2, end)[0] <= 1e-4
    assert report["end_distance_forward"] == pytest.approx(1e-6, rel=1e-3)


def test_homoclinic_stays_on_surface(separatrix):
    _, traj, _ = separatrix
    assert traj.energy_drift < 1e-9


def test_resonant_level_loop_links_outer_orbit(params, trio):
    """Product loops over levels above the top critical value must cross the
    axis disk spanning the outer orbit."""
    level = 0.1
    seeds = orbits.axis_level_seeds(params, level)
    seed = seeds[np.argmax(seeds[:, 0])]
    tau, area, loop = orbits.planar_period_and_area(params, level, seed)
    loop4 = orbits.product_loop(loop, level, m1=3, m2=1)
    raw, lk = knots.gauss_linking(knots.ClosedCurve(loop4),
                                  knots.orbit_curve(trio[2], 1024))
    assert lk != 0


def test_planar_rhs_is_h2_grad(params):
    rhs = orbits.planar_rhs(params)
    rng = np.random.default_rng(5)
    for z in rng.uniform(-1.2, 1.2, (500, 2)):
        q, pp = model.h2_grad(params, z[0], z[1])
        assert rhs(0.0, z) == (-pp, q)
