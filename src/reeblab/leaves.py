"""Explicit foliation leaves from the rotation-symmetric profile ODE.

Leaves of the transverse foliation that meet the symmetry axis of the
planar factor are graphs over axis intervals: the surface map

    u(s, t) = (f(s) cos 2 pi t, f(s) sin 2 pi t, g(s), 0)

is the projection of a holomorphic curve in the symplectization exactly
when g solves g' = G(g) with

    G(g) = - h * pi * f^2 * Q / (1 + h (Q - g) Q),
    f(g)^2 = 1 - g^4 - 2 eps a g^3 - 2 eps^2 c g^2,
    h = 2 / (f^2 + g Q),       Q = Q(g, 0),

and the symplectization coordinate is a(s) with a' = pi f(s)^2.  The axis
splits into four admissible intervals separated by the planar critical
points and the energy-cap roots; each interval yields one leaf family
member:  a disk capping off at the hyperbolic orbit, the rigid cylinders,
and a plane asymptotic to the top binding orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    HypothesisFailure,
    OutsideEnergyCap,
    SlowConvergence,
    UnreliableWinding,
)
from . import model, orbits
from .czindex import PAIRING_TOL, analytic_monodromy_oracle, lie_pairing
from .model import HamiltonianParams

INTERVALS = ("disk_to_P2", "cyl_P2_P1", "cyl_P3_P1", "plane_to_P3")

# role each explicit leaf plays in the foliation pattern
LEAF_ROLES = {
    "disk_to_P2": "rigid disk D (positive end P2)",
    "cyl_P2_P1": "rigid cylinder V (positive end P2, negative end P1)",
    "cyl_P3_P1": "family cylinder C_tau (positive end P3, negative end P1)",
    "plane_to_P3": "family plane F_tau (positive end P3)",
}


@dataclass
class LeafProfile:
    s: np.ndarray
    g: np.ndarray
    f: np.ndarray
    a: np.ndarray
    asymptote_neg: str  # orbit label or 'removable'
    asymptote_pos: str


@dataclass
class LeafGrid:
    """Sampled map (a(s), u(s, t)) on a uniform (s, t) grid."""

    profile: LeafProfile
    t: np.ndarray
    u: np.ndarray  # (ns, nt, 4)
    a: np.ndarray  # (ns,)


@dataclass
class LeafDiagnostics:
    cr_residual_max: float
    hofer_energy: float
    mass_neg_end: float
    dlambda_area: float
    wind_infty_pos: Optional[int]
    wind_infty_neg: Optional[int]
    section_pairing_sign: str


def f_squared(p: HamiltonianParams, g):
    """Energy relation f^2 = 1 - 2 H2(g, 0) along the symmetry axis."""
    e = p.epsilon
    return 1.0 - g**4 - 2.0 * e * p.a * g**3 - 2.0 * e * e * p.c * g * g


def profile_rhs(p: HamiltonianParams, g: float) -> float:
    """Right-hand side G(g) of the profile equation g' = G(g).

    The denominator carries the half from the Liouville normalization
    lambda0 = (1/2) sum(x dy - y dx): with the frame sections taken in
    ker(lambda0), the holomorphicity condition pins the coefficient of
    (Q - g) Q at h/2.  The zeros and the sign of G (opposite to Q while
    f > 0) are unchanged by the normalization.
    """
    f2 = f_squared(p, g)
    if f2 < -1e-12:
        raise OutsideEnergyCap(f"f^2 = {f2:g} < 0 at g = {g:g}")
    f2 = max(f2, 0.0)
    q, _ = model.h2_grad(p, g, 0.0)
    h = 2.0 / (f2 + g * q)
    den = 1.0 + 0.5 * h * (q - g) * q
    return -h * np.pi * f2 * q / den


def solve_xbar(p: HamiltonianParams):
    """Energy-cap roots of H2(x, 0) = 1/2: the root above p3 and the
    negative root nearest the origin.

    Both come from the companion-matrix roots that
    orbits.axis_level_seeds(p, 0.5) takes, each polished by one Newton
    step: the companion roots alone leave |H2 - 1/2| up to 1.2e-14 at
    eps = 1, the Newton step brings it to rounding.  Raises
    OutsideEnergyCap when no root lies above p3, which happens when
    H2(p3, 0) >= 1/2.
    """
    p3 = orbits.structure_of(p).axis_points[-1].location[0]
    seeds = orbits.axis_level_seeds(p, 0.5)
    xs = seeds[seeds[:, 1] == 0.0, 0]
    above = xs[xs > p3]
    if not len(above):
        raise OutsideEnergyCap(
            f"no energy-cap root above p3 = {p3:g}, where H2 = "
            f"{float(model.h2_eval(p, p3, 0.0)):g} >= 1/2")

    def newton(x):
        q, _ = model.h2_grad(p, x, 0.0)
        return x - (float(model.h2_eval(p, x, 0.0)) - 0.5) / q

    return newton(float(np.min(above))), newton(float(np.max(xs[xs < 0.0])))


def _interval_bounds(p: HamiltonianParams, interval_id: str):
    origin, p1, p3 = (cp.location[0]
                      for cp in orbits.structure_of(p).axis_points)
    xp, xm = solve_xbar(p)
    table = {
        "disk_to_P2": (xm, origin),
        "cyl_P2_P1": (origin, p1),
        "cyl_P3_P1": (p1, p3),
        "plane_to_P3": (p3, xp),
    }
    if interval_id not in table:
        raise ValueError(f"unknown interval {interval_id!r}")
    return table[interval_id]


def _asymptote_label(p: HamiltonianParams, g_end: float, orbit_map) -> str:
    f2 = float(f_squared(p, g_end))
    if f2 < 1e-6:
        return "removable"
    for label, orb in orbit_map.items():
        if abs(g_end - orb.z2_datum[0]) < 1e-4:
            return label
    return "unknown"


def integrate_profile(
    p: HamiltonianParams,
    interval_id: str,
    s_span: float = 200.0,
    n_s: int = 257,
) -> LeafProfile:
    """Solve the profile equation on one admissible interval.

    Starts from the interval midpoint and integrates both ways until g is
    within 1e-6 of an endpoint, then resamples on a uniform arc grid and
    integrates a alongside (a' = pi f^2, a(0) = 0 at the midpoint).
    Raises SlowConvergence if the span is exhausted first.
    """
    from scipy.integrate import solve_ivp

    asym_tol = 1e-6
    lo, hi = _interval_bounds(p, interval_id)
    if hi - lo < 10 * 1e-12:
        raise ValueError(f"interval endpoints {lo:g} and {hi:g} not separated")
    g_mid = 0.5 * (lo + hi)
    slope = profile_rhs(p, g_mid)
    # the flow runs monotonically toward one endpoint in each s direction
    fwd_target, bwd_target = (lo, hi) if slope < 0 else (hi, lo)

    # plain-float arithmetic, as in model.reeb_rhs: the same bits as on
    # numpy scalars, at a fraction of the cost per call
    def rhs(s, y):
        g, _ = y.tolist()
        return (profile_rhs(p, g), np.pi * max(f_squared(p, g), 0.0))

    def make_event(target):
        # orbit ends stop on |g - endpoint|; energy-cap ends stop on f^2
        # directly so the residual puncture mass stays below tolerance
        cap_end = abs(float(f_squared(p, target))) < 1e-9

        if cap_end:
            def event(s, y):
                return f_squared(p, float(y[0])) - 0.1 * asym_tol
        else:
            def event(s, y):
                return abs(float(y[0]) - target) - asym_tol
        event.terminal = True
        event.direction = -1.0
        return event

    sols = {}
    for sign, target in ((+1.0, fwd_target), (-1.0, bwd_target)):
        sol = solve_ivp(rhs, (0.0, sign * s_span), [g_mid, 0.0],
                        rtol=1e-10, atol=1e-10, dense_output=True,
                        events=make_event(target))
        if not len(sol.t_events[0]):
            raise SlowConvergence(
                f"{interval_id}: |g - {target:g}| > {asym_tol:g} after "
                f"s = {sign * s_span:g}")
        sols[sign] = (sol, float(sol.t_events[0][0]))

    s_hi = sols[+1.0][1]
    s_lo = sols[-1.0][1]
    s_grid = np.linspace(s_lo, s_hi, n_s)
    out = np.empty((n_s, 2))
    neg = s_grid < 0
    if np.any(neg):
        out[neg] = sols[-1.0][0].sol(s_grid[neg]).T
    if np.any(~neg):
        out[~neg] = sols[+1.0][0].sol(s_grid[~neg]).T
    g = out[:, 0]
    a = out[:, 1]
    f = np.sqrt(np.maximum(f_squared(p, g), 0.0))
    trio = {o.label: o for o in orbits.special_orbits(p)}
    return LeafProfile(
        s=s_grid,
        g=g,
        f=f,
        a=a,
        asymptote_neg=_asymptote_label(p, bwd_target, trio),
        asymptote_pos=_asymptote_label(p, fwd_target, trio),
    )


def assemble_leaf(p: HamiltonianParams, profile: LeafProfile,
                  n_t: int = 128) -> LeafGrid:
    """Sample the map u(s, t) on the profile's s grid times a periodic
    t grid (endpoint omitted)."""
    if n_t < 64:
        raise ValueError(f"n_t must be at least 64, got {n_t}")
    t = np.arange(n_t) / n_t
    ang = 2.0 * np.pi * t
    f = profile.f[:, None]
    g = profile.g[:, None]
    u = np.empty((len(profile.s), n_t, 4))
    u[:, :, 0] = f * np.cos(ang)[None, :]
    u[:, :, 1] = f * np.sin(ang)[None, :]
    u[:, :, 2] = np.broadcast_to(g, u.shape[:2])
    u[:, :, 3] = 0.0
    return LeafGrid(profile=profile, t=t, u=u, a=profile.a.copy())


def _meridian_residual(p: HamiltonianParams, grid: LeafGrid, j: int) -> float:
    """Largest Cauchy-Riemann residual on the interior of the meridian
    t = grid.t[j]: u_s centred over rows i -+ 1, u_t centred over columns
    j -+ 1 (periodic in t), both second order."""
    u = grid.u
    ds = grid.profile.s[1] - grid.profile.s[0]
    dt = grid.t[1] - grid.t[0]
    pts = u[1:-1, j]
    u_s = (u[2:, j] - u[:-2, j]) / (2.0 * ds)
    u_t = (u[1:-1, (j + 1) % len(grid.t)] - u[1:-1, j - 1]) / (2.0 * dt)
    frame = model.contact_frame(p, pts)
    res1 = np.linalg.norm(frame.project(u_s)
                          + frame.apply_J(frame.project(u_t)), axis=-1)
    a_s = (grid.a[2:] - grid.a[:-2]) / (2.0 * ds)
    res2 = np.abs(a_s - model.lambda0(pts, u_t))
    res3 = np.abs(0.0 + model.lambda0(pts, u_s))  # a_t = 0 for the symmetric ansatz
    return float(np.max(res1 + res2 + res3))


def leaf_diagnostics(p: HamiltonianParams, grid: LeafGrid,
                     wind_floor: float = 1e-9) -> LeafDiagnostics:
    """Holomorphicity residual, energy bookkeeping and asymptotic windings.

    The residual combines the projected first-order system
    pi u_s + J pi u_t = 0 with the symplectization pairing
    a_s = lambda(u_t), a_t = -lambda(u_s), all derivatives by centered
    differences on the grid (second order).  H and lambda0 are invariant
    under the rotation t -> t + c that generates the leaf, so the residual
    is evaluated on the meridian t = 0 alone; a second meridian, a third
    of the way round, must agree to 1e-12 + 1e-9 cr, else the grid is no
    rotation-symmetric leaf and HypothesisFailure is raised.
    """
    prof = grid.profile
    ds = prof.s[1] - prof.s[0]

    def wind_at(row, label):
        if label == "removable":
            return None
        # the end loops go once around t, so they keep their full rows
        frame = model.contact_frame(p, grid.u[row])
        sec = frame.project((grid.u[row + 1] - grid.u[row - 1]) / (2.0 * ds))
        sec_max = np.max(np.linalg.norm(sec, axis=-1))
        if sec_max < wind_floor:
            raise UnreliableWinding(f"projected u_s up to {sec_max:g} below "
                                    f"floor {wind_floor:g} at the {label} end")
        # a closed loop's turn count is an integer however coarse the
        # sampling, so the largest angle step is the only guard
        turns, step = model.winding_turns(
            model.frame_coords(frame.Xbar1, frame.Xbar2, sec), closed=True)
        if step >= 0.5 * np.pi:
            raise UnreliableWinding(
                f"angle step {step:.3g} >= pi/2 at the {label} end")
        return int(np.round(turns))

    wind_pos = wind_at(len(prof.s) - 2, prof.asymptote_pos)
    wind_neg = wind_at(1, prof.asymptote_neg)

    cr = _meridian_residual(p, grid, 0)
    j = len(grid.t) // 3
    cr_j = _meridian_residual(p, grid, j)
    if abs(cr_j - cr) > 1e-12 + 1e-9 * cr:
        raise HypothesisFailure(
            f"Cauchy-Riemann residual {cr!r} on the meridian t = 0 but "
            f"{cr_j!r} at t = {grid.t[j]:g}: the leaf is not rotation-symmetric")

    hofer = float(np.pi * prof.f[-1] ** 2)
    mass_neg = float(np.pi * prof.f[0] ** 2)

    checks = strong_section_check(p, grid, "pos") if prof.asymptote_pos != "removable" else None
    sign = checks["verdict_sign"] if checks else "n/a"

    return LeafDiagnostics(
        cr_residual_max=cr,
        hofer_energy=hofer,
        mass_neg_end=mass_neg,
        dlambda_area=hofer - mass_neg,
        wind_infty_pos=wind_pos,
        wind_infty_neg=wind_neg,
        section_pairing_sign=sign,
    )


def strong_section_check(p: HamiltonianParams, grid: LeafGrid, end: str):
    """Strong-transverse-section test at an orbit end of a leaf.

    The boundary section is the radial derivative of the leaf near the end,
    expressed in the orbit-adapted frame of the limiting orbit; the pairing
    d(lambda)(eta, L_R eta) is evaluated at every node by the central
    finite-difference realization of the Lie derivative along the orbit.
    Verdict: 'strong' for one strict sign with margin, 'fails' for a sign
    change or a certified zero, 'indefinite' below margin.
    """
    prof = grid.profile
    label = prof.asymptote_pos if end == "pos" else prof.asymptote_neg
    if label in ("removable", "unknown"):
        raise ValueError(f"{end} end is not asymptotic to an orbit ({label!r})")
    trio = {o.label: o for o in orbits.special_orbits(p)}
    orbit = trio[label]
    idx = len(prof.s) - 2 if end == "pos" else 1
    ds = prof.s[1] - prof.s[0]
    dus = (grid.u[idx + 1] - grid.u[idx - 1]) / (2.0 * ds)
    # orbit-adapted coordinates of a contact vector are its planar components
    eta = dus[:, 2:4]
    path = analytic_monodromy_oracle(p, label, orbit=orbit)

    def section(taus):
        taus = np.atleast_1d(np.asarray(taus, float))
        pos = taus * len(grid.t)
        i0 = np.floor(pos).astype(int) % len(grid.t)
        i1 = (i0 + 1) % len(grid.t)
        w = (pos - np.floor(pos))[:, None]
        return (1.0 - w) * eta[i0] + w * eta[i1]

    taus = grid.t.copy()
    pairing = lie_pairing(path, section, taus)
    scale = np.sum(eta**2, axis=-1)
    scaled = pairing / scale
    if np.all(scaled > PAIRING_TOL):
        verdict, sign = "strong", "+"
    elif np.all(scaled < -PAIRING_TOL):
        verdict, sign = "strong", "-"
    elif np.max(np.abs(scaled)) < PAIRING_TOL:
        verdict, sign = "fails", "0"
    elif np.min(scaled) < -PAIRING_TOL < PAIRING_TOL < np.max(scaled):
        verdict, sign = "fails", "mixed"
    else:
        verdict, sign = "indefinite", "indefinite"
    return {
        "end": end,
        "orbit": label,
        "pairing_samples": pairing,
        "verdict": verdict,
        "verdict_sign": sign,
    }


def fredholm_index(mu_pos: int, mu_negs, n_punctures: int) -> int:
    """Index arithmetic mu(top) - sum mu(bottom) - chi(S^2) + #punctures."""
    return mu_pos - sum(mu_negs) - 2 + n_punctures


def foliation_atlas(p: HamiltonianParams, separatrix):
    """All four explicit leaves with diagnostics, role labels, index
    arithmetic and the separatrix shadow standing in for the off-axis
    rigid cylinders (which the symmetric ansatz cannot reach).

    `separatrix` is the result of orbits.separatrix_and_homoclinics."""
    trio = {o.label: o for o in orbits.special_orbits(p)}
    mus = {"P1": 1, "P2": 2, "P3": 3}
    leaves = {}
    for interval_id in INTERVALS:
        prof = integrate_profile(p, interval_id)
        grid = assemble_leaf(p, prof)
        diag = leaf_diagnostics(p, grid)
        ends = [prof.asymptote_pos] + (
            [prof.asymptote_neg] if prof.asymptote_neg != "removable" else [])
        ind = fredholm_index(
            mus[prof.asymptote_pos],
            [mus[prof.asymptote_neg]] if prof.asymptote_neg != "removable" else [],
            len(ends),
        )
        wind_sum = diag.wind_infty_pos or 0
        if prof.asymptote_neg != "removable" and diag.wind_infty_neg is not None:
            wind_sum -= diag.wind_infty_neg
        wind_pi = wind_sum - 2 + len(ends)
        leaves[interval_id] = {
            "profile": prof,
            "grid": grid,
            "diagnostics": diag,
            "role": LEAF_ROLES[interval_id],
            "fredholm_index": ind,
            "wind_pi": wind_pi,
        }
    (g1, g2), _, conv = separatrix
    return {
        "leaves": leaves,
        "binding_orbits": trio,
        "separatrix_shadow": {
            "gamma1": g1,
            "gamma2": g2,
            "status": "conjectural shadow of the off-axis rigid cylinders"
                      " (not explicitly constructed)",
        },
        "homoclinic_report": conv,
    }
