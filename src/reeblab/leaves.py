"""Explicit foliation leaves from the rotation-symmetric profile equation.

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

The equation is scalar and autonomous, so a profile is two quadratures,
s(g) = int dg / G and a(g) = int pi f^2 / G dg, inverted on a uniform s
grid; G has a simple zero at each end of its interval, and a logistic
change of variable cancels both, so Clenshaw-Curtis converges
geometrically.
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

# Chebyshev points of the profile quadrature (an odd count, so that every
# other one is the nested rule), and the largest gap allowed between the two
# rules in s or a at their shared points
PROFILE_NODES = 257
PROFILE_TOL = 1e-8

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


def profile_rhs(p: HamiltonianParams, g):
    """Right-hand side G(g) of the profile equation g' = G(g), on a float
    or elementwise on an array.

    The denominator carries the half from the Liouville normalization
    lambda0 = (1/2) sum(x dy - y dx): with the frame sections taken in
    ker(lambda0), the holomorphicity condition pins the coefficient of
    (Q - g) Q at h/2.  The zeros and the sign of G (opposite to Q while
    f > 0) are unchanged by the normalization.
    """
    f2 = f_squared(p, g)
    if np.any(f2 < -1e-12):
        i = np.argmin(f2)
        raise OutsideEnergyCap(f"f^2 = {np.min(f2):g} < 0 at g = "
                               f"{np.ravel(g)[i]:g}")
    f2 = np.maximum(f2, 0.0)
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


def _dct1(x):
    """Type-I discrete cosine transform along the last axis, by FFT:
    y_j = x_0 + (-1)^j x_n + 2 sum_{k=1}^{n-1} x_k cos(pi j k / n)."""
    return np.fft.rfft(np.concatenate([x, x[..., -2:0:-1]], axis=-1)).real


def _cheb_coeffs(values):
    """Chebyshev coefficients of the interpolant through `values` at the
    points cos(pi k / n), k = 0..n, along the last axis."""
    n = values.shape[-1] - 1
    c = _dct1(values) / n
    c[..., [0, n]] *= 0.5
    return c


def _cheb_values(coeffs):
    """Values at the points cos(pi k / n) of a Chebyshev series of degree
    n + 1, as _cheb_integral returns: T_{n+1} equals T_{n-1} there, and
    the rest is the inverse of _cheb_coeffs."""
    n = coeffs.shape[-1] - 2
    c = coeffs[..., :-1].copy()
    c[..., n - 1] += coeffs[..., n + 1]
    c[..., [0, n]] *= 2.0
    return 0.5 * _dct1(c)


def _cheb_integral(c, x0, scale):
    """Coefficients of scale times the antiderivative, zero at x0, of the
    Chebyshev series c (last axis): the integral of T_k is
    T_{k+1} / (2 (k + 1)) - T_{k-1} / (2 (k - 1)), and T_1 for T_0."""
    m = c.shape[-1] - 1
    c = np.concatenate([c, np.zeros(c.shape[:-1] + (2,))], axis=-1)
    c[..., 0] *= 2.0
    out = np.zeros(c.shape[:-1] + (m + 2,))
    out[..., 1:] = (c[..., :m + 1] - c[..., 2:]) / (2.0 * np.arange(1, m + 2))
    out[..., 0] = -(out @ np.cos(np.arange(m + 2) * np.arccos(x0)))
    return scale * out


def _barycentric(x, nodes, values):
    """Values at x of the polynomials through `values` (rows) at the
    Chebyshev points `nodes` = cos(pi k / n), by the barycentric formula."""
    w = (-1.0) ** np.arange(len(nodes))
    w[[0, -1]] *= 0.5
    q = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, q, out=q)
        sums = q @ np.vstack([values, np.ones(len(nodes))]).T
        out = sums[:, :-1] / sums[:, -1:]
    # a point on a node divides by zero: take the node's value
    hit = ~np.all(np.isfinite(out), axis=1)
    out[hit] = values.T[np.argmax(np.abs(q[hit]), axis=1)]
    return out.T


def integrate_profile(
    p: HamiltonianParams,
    interval_id: str,
    n_s: int = 257,
) -> LeafProfile:
    """Solve the profile equation on one admissible interval by quadrature.

    The equation is autonomous and scalar, so s(g) = int dg / G and
    a(g) = int pi f^2 / G dg from the interval midpoint, where s = a = 0.
    In v, with g = lo + (hi - lo) / (1 + e^-v), the integrands
    ds/dv = (g - lo)(hi - g) / ((hi - lo) G) and da/dv = pi f^2 ds/dv are
    smooth and bounded, since G has a simple zero at each end; both are
    interpolated at PROFILE_NODES Chebyshev points in v and integrated
    as Chebyshev series.  The profile ends within 1e-6 of an orbit end,
    and where f^2 = 1e-7 at an energy-cap end.  Newton with the exact
    ds/dv then carries each point of a uniform n_s-point s grid to its v.
    Raises SlowConvergence when the rule on every other node disagrees
    with the full rule by more than PROFILE_TOL in s or a, or when eight
    Newton steps leave the grid off the quadrature.
    """
    asym_tol = 1e-6
    lo, hi = _interval_bounds(p, interval_id)
    if hi - lo < 10 * 1e-12:
        raise ValueError(f"interval endpoints {lo:g} and {hi:g} not separated")
    trio = {o.label: o for o in orbits.special_orbits(p)}
    width = hi - lo
    slope = profile_rhs(p, 0.5 * (lo + hi))
    # the flow runs monotonically toward one endpoint in each s direction
    fwd_target, bwd_target = (lo, hi) if slope < 0 else (hi, lo)

    def inset(end):
        # orbit ends stop at |g - end| = asym_tol; energy-cap ends stop on
        # f^2 = asym_tol / 10 so the residual puncture mass stays below
        # tolerance, found by Newton on the quartic from the root
        if abs(float(f_squared(p, end))) >= 1e-9:
            return asym_tol
        g = end
        for _ in range(4):
            q, _ = model.h2_grad(p, g, 0.0)
            g += (f_squared(p, g) - 0.1 * asym_tol) / (2.0 * q)
        return abs(g - end)

    d_lo, d_hi = inset(lo), inset(hi)
    v_lo = np.log(d_lo / (width - d_lo))
    v_hi = np.log((width - d_hi) / d_hi)
    v_mid, v_rad = 0.5 * (v_lo + v_hi), 0.5 * (v_hi - v_lo)

    def rates(x):
        g = lo + width / (1.0 + np.exp(-(v_mid + v_rad * x)))
        f2 = np.maximum(f_squared(p, g), 0.0)
        ds = (g - lo) * (hi - g) / (width * profile_rhs(p, g))
        return g, f2, np.stack([ds, np.pi * f2 * ds])

    n = PROFILE_NODES - 1
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    _, _, samples = rates(nodes)
    # s and a as Chebyshev series in x = (v - v_mid) / v_rad, zero at v = 0,
    # by the full rule and by the nested rule on every other node
    x0 = -v_mid / v_rad
    at_nodes, at_half = (_cheb_values(_cheb_integral(_cheb_coeffs(y), x0, v_rad))
                         for y in (samples, samples[:, ::2]))
    gap = float(np.max(np.abs(at_nodes[:, ::2] - at_half)))
    if gap > PROFILE_TOL:
        raise SlowConvergence(
            f"{interval_id}: the {n + 1}- and {n // 2 + 1}-node quadratures "
            f"differ by {gap:.3g} > {PROFILE_TOL:g}")

    # s is monotone in x: a uniform grid over its range, each point carried
    # to its x from linear interpolation between the nodes
    order = np.argsort(at_nodes[0])
    s_grid = np.linspace(at_nodes[0, order[0]], at_nodes[0, order[-1]], n_s)
    x = np.interp(s_grid, at_nodes[0, order], nodes[order])
    for _ in range(8):
        s, a = _barycentric(x, nodes, at_nodes)
        miss = s - s_grid
        if np.max(np.abs(miss)) <= 1e-13 * (s_grid[-1] - s_grid[0]):
            break
        _, _, (ds, _) = rates(x)
        x = np.clip(x - miss / (v_rad * ds), -1.0, 1.0)
    else:
        raise SlowConvergence(
            f"{interval_id}: s grid off the quadrature by "
            f"{np.max(np.abs(miss)):.3g} after 8 Newton steps")
    g, f2, _ = rates(x)
    return LeafProfile(
        s=s_grid,
        g=g,
        f=np.sqrt(f2),
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
    d(lambda)(eta, L_R eta) is evaluated at every node by
    czindex.lie_pairing: exact in the flow, a central difference of eta.
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


def foliation_atlas(p: HamiltonianParams):
    """All four explicit leaves, {interval: entry}, each entry with its
    profile, grid, diagnostics, role label and index arithmetic."""
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
    return leaves
