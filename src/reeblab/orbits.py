"""Critical points, special Reeb orbits, planar loops, separatrices.

The planar factor of the Hamiltonian has (for the validated coefficients)
exactly three critical points on the symmetry axis; over each sits a circle
of the full flow, giving the three binding orbits.  This module finds and
classifies the critical points, builds the orbits with their closed-form
periods, measures actions of general product loops, builds each component
of a planar level set once from closed-form arcs, scans resonant levels for
low-action competitors, and builds the saddle separatrix, whose product
with the base circle is the homoclinic set, from the arcs of the saddle's
level.  No command integrates a planar ODE: the DOP853 tracer
planar_period_and_area is the tests' reference for the arcs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    HypothesisFailure,
    NoReturn,
    NotClosed,
    NotHyperbolic,
    NotStarShaped,
    SlowConvergence,
    StructureMismatch,
)
from . import model
from .model import HamiltonianParams, Trajectory


@dataclass
class CriticalPoint:
    """A critical point of the planar factor with both classifications:
    the Hessian signature of H2 and the elliptic/hyperbolic type of the
    transverse Reeb linearization (constants k1, k2 on the axis)."""

    location: np.ndarray
    h2_value: float
    hessian_signature: str  # 'min' | 'max' | 'saddle'
    flow_type: str  # 'elliptic' | 'hyperbolic'
    k1: Optional[float]
    k2: Optional[float]


@dataclass
class StructureReport:
    """Result of validating the critical-point pattern of a parameter set."""

    points: list
    count_ok: bool
    pattern_ok: bool
    anomalies: list

    @property
    def ok(self) -> bool:
        return self.count_ok and self.pattern_ok

    @property
    def axis_points(self) -> list:
        """The critical points on the symmetry axis, sorted by x."""
        return sorted((cp for cp in self.points
                       if abs(cp.location[1]) < 1e-10),
                      key=lambda cp: cp.location[0])


@dataclass
class ReebOrbit:
    """A closed Reeb orbit of product type: a planar datum and the circle
    radius r with r^2 = 1 - 2*H2(datum)."""

    label: str
    z2_datum: np.ndarray
    r: float
    reeb_period: float
    k1: Optional[float] = None
    k2: Optional[float] = None

    @property
    def initial_state(self) -> np.ndarray:
        return np.array([self.r, 0.0, self.z2_datum[0], self.z2_datum[1]])

    def point(self, t):
        """State at Reeb time(s) t (special orbits only)."""
        t = np.asarray(t, float)
        ang = 2.0 * t / (self.r * self.r)
        x = self.z2_datum
        return np.stack(
            [self.r * np.cos(ang), self.r * np.sin(ang),
             np.broadcast_to(x[0], t.shape), np.broadcast_to(x[1], t.shape)],
            axis=-1,
        )

    def curve(self, n: int) -> np.ndarray:
        """n samples over one period, endpoint excluded."""
        return self.point(np.arange(n) / n * self.reeb_period)


@dataclass
class SeparatrixBranch:
    """One loop of the saddle's level H2 = 0: 4001 planar points on that
    level, 2001 at equal time steps from the point 1e-6 from the saddle to
    the apex and their mirror images back; the signed area it encloses,
    positive counterclockwise; and the apex."""

    branch_id: str  # 'gamma1' | 'gamma2'
    samples: np.ndarray
    enclosed_area: float
    axis_crossings: np.ndarray  # the apex, its one crossing of y = 0


# ---------------------------------------------------------------------------
# critical points


def classify_critical_point(p: HamiltonianParams, loc) -> CriticalPoint:
    """Exact-polynomial Hessian classification plus the transverse Reeb
    linearization constants (axis points only)."""
    x, y = float(loc[0]), float(loc[1])
    val = float(model.h2_eval(p, x, y))
    hess = model.h2_hess(p, x, y)
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
    if det < 0:
        signature = "saddle"
    elif hess[0, 0] > 0:
        signature = "min"
    else:
        signature = "max"
    flow_type = "hyperbolic" if det < 0 else "elliptic"
    k1 = k2 = None
    if abs(y) < 1e-12:
        r2 = 1.0 - 2.0 * val
        if r2 > 0:
            h = 2.0 / r2
            k1 = float(-h * hess[1, 1])
            k2 = float(h * hess[0, 0])
    return CriticalPoint(np.array([x, y]), val, signature, flow_type, k1, k2)


def find_critical_points(p: HamiltonianParams):
    """All critical points of H2 in closed form, sorted by x, then y.

    On the axis they are the real roots of
    Q(x, 0) = x (2 x^2 + 3 eps a x + 2 eps^2 c).  Off it, P = 2 y (r^2 +
    eps b x + eps^2 d), so a critical point with y != 0 has
    y^2 = -(eps b x + eps^2 d) - x^2 > 0, and Q = 0 then reduces to
    3 (a - b) x^2 + eps (2c - 2d - b^2) x - eps^2 b d = 0.  When all three
    of its coefficients vanish, every point of the circle
    (x + eps b / 2)^2 + y^2 = eps^2 (b^2 / 4 - d) is critical.

    Returns (points, circle): the classified points, and None or the
    circle's (centre x, radius), whose off-axis points are not listed.
    """
    e = p.epsilon
    axis = [0.0]
    disc = 9.0 * p.a * p.a - 16.0 * p.c
    if disc >= 0.0:
        s = np.sqrt(disc)
        axis += [e * (-3.0 * p.a + s) / 4.0, e * (-3.0 * p.a - s) / 4.0]
    # sorted(set()), not np.unique, which imports numpy.ma at first call
    pts = [(x, 0.0) for x in sorted(set(axis))]
    coeffs = [3.0 * (p.a - p.b), e * (2.0 * p.c - 2.0 * p.d - p.b * p.b),
              -e * e * p.b * p.d]
    circle = None
    if not any(coeffs):
        r2 = e * e * (0.25 * p.b * p.b - p.d)
        if r2 > 0.0:
            # + 0.0 turns a centre of -0 into 0
            circle = (-0.5 * e * p.b + 0.0, float(np.sqrt(r2)))
    else:
        roots = np.roots(coeffs)
        for x in sorted(set(roots[roots.imag == 0.0].real)):
            y2 = -(e * p.b * x + e * e * p.d) - x * x
            if y2 > 0.0:
                pts += [(x, -np.sqrt(y2)), (x, np.sqrt(y2))]
    pts = np.array(pts)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return [classify_critical_point(p, pt) for pt in pts], circle


def validate_structure(p: HamiltonianParams) -> StructureReport:
    """Check the expected pattern: exactly three critical points, on the
    axis at 0 < p1 < p3, with transverse sign pattern (+,-), (+,+), (-,+).

    The report is cached on the parameter record; it never raises, so a
    failing preset can still be diagnosed downstream.
    """
    points, circle = find_critical_points(p)
    anomalies = []
    count_ok = len(points) == 3 and circle is None
    if circle is not None:
        anomalies.append(
            f"critical points fill the circle of centre ({circle[0]:.6g}, 0)"
            f" and radius {circle[1]:.6g}")
    elif not count_ok:
        anomalies.append(
            f"expected 3 critical points, found {len(points)}"
        )
    report = StructureReport(points=points, count_ok=count_ok,
                             pattern_ok=False, anomalies=anomalies)
    by_x = report.axis_points
    if len(by_x) == 3 and abs(by_x[0].location[0]) < 1e-10:
        origin, mid, outer = by_x
        capped = [cp for cp in by_x if cp.k1 is None]
        for cp in capped:
            anomalies.append(
                f"axis point x = {cp.location[0]:.6g} has H2 = "
                f"{cp.h2_value:.6g} >= 1/2: no binding orbit over it")
        if not capped:
            signs = [
                (int(np.sign(mid.k1)), int(np.sign(mid.k2))),
                (int(np.sign(origin.k1)), int(np.sign(origin.k2))),
                (int(np.sign(outer.k1)), int(np.sign(outer.k2))),
            ]
            report.pattern_ok = signs == [(1, -1), (1, 1), (-1, 1)]
            if not report.pattern_ok:
                anomalies.append(
                    f"transverse sign pattern {signs} != [(+,-),(+,+),(-,+)]")
                if origin.flow_type != "hyperbolic":
                    anomalies.append(
                        "origin is elliptic (k1*k2 = "
                        f"{origin.k1 * origin.k2:.6g} < 0 requires c*d < 0)"
                    )
    else:
        anomalies.append("axis pattern 0 = p2 < p1 < p3 not found")
    p.structure = report
    return report


def structure_of(p: HamiltonianParams) -> StructureReport:
    """The structure report cached on `p`, validated on first use."""
    return p.structure or validate_structure(p)


# ---------------------------------------------------------------------------
# special orbits


def special_orbits(p: HamiltonianParams):
    """The three binding orbits (P1, P2, P3), labeled by the transverse sign
    pattern so the index pattern (1, 2, 3) holds, with closed-form periods.

    Requires a previously validated structure.  Raises HypothesisFailure
    naming the violated inequality if the period chain T1 < T2 < T3 < 2 T1
    fails, and StructureMismatch if the sign pattern does not match.
    """
    rep = structure_of(p)
    if not rep.ok:
        raise StructureMismatch("; ".join(rep.anomalies))
    origin, mid, outer = rep.axis_points

    def build(label, cp):
        r2 = 1.0 - 2.0 * cp.h2_value
        return ReebOrbit(
            label=label,
            z2_datum=cp.location.copy(),
            r=float(np.sqrt(r2)),
            reeb_period=float(np.pi * r2),
            k1=cp.k1,
            k2=cp.k2,
        )

    p1 = build("P1", mid)
    p2 = build("P2", origin)
    p3 = build("P3", outer)
    t1, t2, t3 = p1.reeb_period, p2.reeb_period, p3.reeb_period
    if not t1 < t2:
        raise HypothesisFailure(f"T1 < T2 violated (T1 = {t1:.6g}, T2 = {t2:.6g})")
    if not t2 < t3:
        raise HypothesisFailure(f"T2 < T3 violated (T2 = {t2:.6g}, T3 = {t3:.6g})")
    if not t3 < 2.0 * t1:
        raise HypothesisFailure(
            f"T3 < 2*T1 violated (T3 = {t3:.6g}, 2*T1 = {2.0 * t1:.6g})")
    return p1, p2, p3


def orbit_action(curve: np.ndarray) -> float:
    """Action integral of lambda0 over a sampled closed loop.

    The loop is given as uniformly-parametrized samples (n, 4) with the
    endpoint omitted; tangents are computed by centered differences, so the
    composite quadrature is spectrally accurate for smooth loops.
    """
    curve = np.asarray(curve, float)
    n = len(curve)
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    closure = np.linalg.norm(curve[0] - curve[-1])
    typical = np.median(np.linalg.norm(np.diff(curve, axis=0), axis=-1))
    if closure > 10 * max(typical, 1e-7):
        raise NotClosed(f"loop closure gap {closure:g}")
    # fourth-order periodic tangents keep the composite quadrature error
    # at O(h^4)
    tangent = (
        8.0 * (np.roll(curve, -1, axis=0) - np.roll(curve, 1, axis=0))
        - (np.roll(curve, -2, axis=0) - np.roll(curve, 2, axis=0))
    ) * (n / 12.0)
    vals = model.lambda0(curve, tangent)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# planar machinery


def planar_rhs(p: HamiltonianParams):
    # plain floats into model.h2_grad: this closure is the hot path of every
    # planar integration, all of them the tests' references
    def rhs(t, z):
        q, pp = model.h2_grad(p, float(z[0]), float(z[1]))
        return (-pp, q)

    return rhs


def axis_level_seeds(p: HamiltonianParams, level: float) -> np.ndarray:
    """All real roots of H2(x, 0) = level and H2(0, y) = level, as planar
    seeds for enumerating the components of the level set."""
    e = p.epsilon
    seeds = []
    rx = np.roots([0.5, e * p.a, e * e * p.c, 0.0, -level])
    for r in rx:
        if abs(r.imag) < 1e-10:
            seeds.append((float(r.real), 0.0))
    ry = np.roots([0.5, 0.0, e * e * p.d, 0.0, -level])
    for r in ry:
        if abs(r.imag) < 1e-10 and abs(r.real) > 1e-12:
            seeds.append((0.0, float(r.real)))
    return np.array(seeds) if seeds else np.zeros((0, 2))


def _trace_to_axis(p: HamiltonianParams, z0, sense: float, horizon: float,
                   rtol: float, atol: float, what: str):
    """Integrate the planar flow from z0 by DOP853 to its first crossing of
    the axis y = 0 in direction `sense`, the sign of dy/dt there.

    H2 is even in y, so R(x, y) = (x, -y) reverses the planar flow
    (Devaney, Trans. AMS 218, 1976).  An orbit that meets Fix(R), the axis,
    at time t_b is R-symmetric about it: z(t_b + u) = R z(t_b - u).  So a
    loop is integrated only up to an axis crossing, and the rest is its
    mirror image.  Returns (dense, t_a, t_b): the dense
    output on [0, t_b], the first crossing in the opposite direction (None
    if there is none before t_b) and the closing crossing t_b.  Raises
    NoReturn, `what` and the time elapsed, when the flow does not close
    within `horizon`.
    """
    from scipy.integrate import solve_ivp

    def closing(t, z):
        return z[1]

    def opening(t, z):
        return z[1]

    closing.terminal, closing.direction = True, sense
    opening.direction = -sense
    sol = solve_ivp(planar_rhs(p), (0.0, horizon), z0, method="DOP853",
                    rtol=rtol, atol=atol, events=(closing, opening),
                    dense_output=True)
    if not len(sol.t_events[0]):
        elapsed = float(sol.t[-1])
        raise NoReturn(f"{what} within time {elapsed:g}", elapsed=elapsed)
    opened = sol.t_events[1]
    t_a = float(opened[0]) if len(opened) else None
    return sol.sol, t_a, float(sol.t_events[0][0])


def planar_period_and_area(
    p: HamiltonianParams,
    level: float,
    seed,
    max_time: float = 1e4,
):
    """Hamiltonian-time period and enclosed signed area of the planar loop
    of H2 through `seed` on the given level, by DOP853: the reference that
    level_loops' closed-form arcs are tested against.

    Return (tau, area, loop), loop 2048 samples at equal time steps from
    the seed.  The loop meets the axis y = 0 at two times t_a < t_b, half
    its period apart, so tau = 2 (t_b - t_a), and the samples after t_b
    are the mirror images of those before.  From a seed on the axis
    t_a = 0; from a seed off it, t_a is the first crossing.  Raises
    NoReturn with the elapsed horizon when the loop does not close on the
    axis within max_time (near-separatrix divergence, or a loop about an
    off-axis well).
    """
    seed = np.asarray(seed, float)
    h_seed = float(model.h2_eval(p, seed[0], seed[1]))
    if abs(h_seed - level) > max(1e-6, 1e-8 * max(1.0, abs(level))):
        raise ValueError(f"seed has H2 = {h_seed:g}, not the level {level:g}")
    q, pp = model.h2_grad(p, float(seed[0]), float(seed[1]))
    speed = math.hypot(q, pp)
    if speed < 1e-12:
        raise ValueError(f"seed is a critical point (|grad H2| = {speed:g})")
    # from an axis seed the loop leaves with dy/dt = Q(seed) and closes at
    # the next crossing, the other way; from a seed off the axis it closes
    # at the crossing back to the seed's side
    on_axis = seed[1] == 0.0
    sense = -math.copysign(1.0, q) if on_axis else math.copysign(1.0, seed[1])
    half, t_a, t_b = _trace_to_axis(
        p, seed, sense, max_time, 1e-10, 1e-12,
        f"no return to the axis y = 0 from ({seed[0]:g}, {seed[1]:g}) "
        f"on level {level:g}")
    if on_axis:
        t_a = 0.0
    tau = 2.0 * (t_b - t_a)
    ts = np.arange(2048) / 2048 * tau
    loop = half(np.minimum(ts, 2.0 * t_b - ts)).T
    loop[ts > t_b, 1] *= -1.0
    return tau, _loop_area(p, loop, tau), loop


def _loop_area(p: HamiltonianParams, loop: np.ndarray, tau: float) -> float:
    """Signed area enclosed by a closed orbit of H2 sampled at len(loop)
    equal time steps from t = 0 over one traversal of duration tau: half
    the loop integral of x dy - y dx with the exact velocity (-P, Q).  The
    trapezoid rule on the periodic samples is spectral."""
    q, pp = model.h2_grad(p, loop[:, 0], loop[:, 1])
    return float(np.mean(0.5 * (loop[:, 0] * q + loop[:, 1] * pp)) * tau)


# Gauss-Legendre nodes in phi on every arc piece; the rule on half as many
# nodes must agree with it to ARC_RTOL, or SlowConvergence is raised
ARC_NODES = 64
ARC_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _arc_rule(n: int):
    """The n-node Gauss-Legendre rule on phi in [0, pi], built at first use
    (leggauss costs O(n^3)): sin^2(phi/2) at the nodes, symmetric so that
    cos^2(phi/2) is the same reversed; the weights; the matrix taking
    dt/dphi at the nodes to t, the integral from 0 of its Legendre
    interpolant, at 16n + 1 equally spaced phi; and the matrices taking it
    to the Legendre coefficients in xi = 2 phi / pi - 1 of dt/dxi and of t.
    They are built by einsum and applied one piece at a time: a
    multithreaded BLAS matrix product of either size took 100 times as long
    as a single-threaded one on a 2-vCPU host."""
    xi, w = np.polynomial.legendre.leggauss(n)
    k = np.arange(n)
    vander = np.polynomial.legendre.legvander
    at = vander(np.linspace(-1.0, 1.0, 16 * n + 1), n)
    # int_{-1}^{xi} P_k = (P_{k+1} - P_{k-1}) / (2k + 1), and xi + 1 for k = 0
    prim = np.column_stack([at[:, 1] + at[:, 0],
                            (at[:, 2:] - at[:, :-2]) / (2.0 * k[1:] + 1.0)])
    coef = (k + 0.5)[:, None] * vander(xi, n - 1).T * w
    # the same integral on the coefficients
    lift = np.zeros((n + 1, n))
    lift[0, 0] = lift[1, 0] = 1.0
    lift[k[1:] + 1, k[1:]] = 1.0 / (2.0 * k[1:] + 1.0)
    lift[k[1:] - 1, k[1:]] = -1.0 / (2.0 * k[1:] + 1.0)
    rate = 0.5 * np.pi * coef
    return (np.sin(0.25 * np.pi * (1.0 + xi)) ** 2, 0.5 * np.pi * w,
            0.5 * np.pi * np.einsum("gk,kn->gn", prim, coef), rate,
            np.einsum("ak,kn->an", lift, rate))


def _arc_values(p: HamiltonianParams, rows: np.ndarray, s2, c2):
    """x, Y_s, D and dx/dphi at sin^2(phi/2) = s2, cos^2(phi/2) = c2 on arc
    pieces, a row each: (x0, x1, branch s, D's leading coefficient, kind,
    the roots of A and of D, padded with nan to 7).  A piece runs from x0
    to x1, either way.  Kind 0 is x = x0 + (x1 - x0) sin^2(phi/2); kind 1,
    for the separatrix next to the saddle, where the time diverges like
    ln|x|, is the same map in u = ln|x|: x = x0 (x1 / x0)^(sin^2(phi/2)).

    A factor x - r of A or D is taken from the nearer end, as
    (x - x0) + (x0 - r) or (x1 - r) - (x1 - x), and Y_s on the branch that
    vanishes as 2A / Y_-s: both keep their relative accuracy up to the
    ends, where they vanish, and next to a root just past an end.
    """
    x0, x1, s, lead, kind = rows[:, :5].real.T
    span = (x1 - x0)[:, None]
    # x - x0, x1 - x and dx/dphi
    dlo, dhi, jac = span * s2, span * c2, span * np.sqrt(s2 * c2)
    if kind.any():
        log = kind > 0
        ell = np.zeros_like(x0)
        ell[log] = np.log(x1[log] / x0[log])
        log, ell = log[:, None], ell[:, None]
        dlo = np.where(log, x0[:, None] * np.expm1(ell * s2), dlo)
        dhi = np.where(log, -x1[:, None] * np.expm1(-ell * c2), dhi)
        jac = np.where(log, (x0[:, None] + dlo) * ell * np.sqrt(s2 * c2), jac)
    r = rows[:, None, 5:]
    lo, hi = x0[:, None, None] - r, x1[:, None, None] - r
    f = np.where(np.abs(lo) <= np.abs(hi), dlo[..., None] + lo,
                 hi - dhi[..., None])
    f = np.where(np.isnan(r), 1.0, f)
    x = x0[:, None] + dlo
    b = x * (x + p.epsilon * p.b) + p.epsilon ** 2 * p.d
    d = lead[:, None] * f[..., 4:].prod(axis=-1).real
    root = np.sqrt(np.maximum(d, 0.0))
    # -B -+ sqrt(D), whichever adds: Y_+ where B < 0, else Y_-
    q = np.where(b < 0.0, root - b, -root - b)
    y2 = np.where((s[:, None] > 0) == (b < 0.0), q,
                  f[..., :4].prod(axis=-1).real / q)
    return x, y2, d, jac


def _arc_sums(p: HamiltonianParams, rows: np.ndarray, n: int):
    """Per piece, by the n-node rule: the time int |dx| / (2 y sqrt(D)) and
    int y dx, y >= 0 and x running from x0 to x1, with x, y and dt/dphi at
    the nodes."""
    s2, w, _, _, _ = _arc_rule(n)
    # a critical level leaves zeros and nans, which the guard refuses;
    # 64 rows at a time, as all of the scan's at once take 6 MB
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y2, d, dx = (np.concatenate(v) for v in zip(*(
            _arc_values(p, rows[i:i + 64], s2, s2[::-1])
            for i in range(0, len(rows), 64))))
        y = np.sqrt(y2)
        dt = 0.5 * np.abs(dx) / (y * np.sqrt(d))
    return dt @ w, (y * dx) @ w, x, y, dt


def _level_roots(p: HamiltonianParams, level: float):
    """The coefficients of A = H2(x, 0) - level, a quartic, and of
    D = B^2 - 2A, a cubic without its vanishing leading ones (see
    _level_loops); their roots, A's first, real where the imaginary part
    is below 1e-10, as for the axis seeds; and the real ones sorted, each
    with whether it is a root of A, an axis crossing."""
    e = p.epsilon
    ca = [0.5, e * p.a, e * e * p.c, 0.0, -level]
    cd = [2.0 * e * (p.b - p.a), e * e * (p.b * p.b + 2.0 * p.d - 2.0 * p.c),
          2.0 * e ** 3 * p.b * p.d, e ** 4 * p.d * p.d + 2.0 * level]
    while cd and cd[0] == 0.0:
        cd.pop(0)
    roots = np.concatenate([np.roots(ca), np.roots(cd)]).astype(complex)
    real = np.abs(roots.imag) < 1e-10
    roots[real] = roots[real].real
    return ca, cd, roots.tolist(), sorted(
        (roots[i].real, i < 4) for i in np.flatnonzero(real))


def _arc_edges(xl: float, xr: float, rts: list) -> list:
    """The piece edges of an arc over [xl, xr], given the roots of A and D.

    Every root is singular for the integrands or, past a fold, for their
    continuation: cuts at steps growing 16-fold toward its nearest point
    on the arc, and toward each end from the cut nearest it over the arc's
    half on that side, keep each piece at most 16 times as long as its
    distance from them."""
    cuts = set()
    for r in rts:
        near = min(max(r.real, xl), xr)
        step = abs(r - near)
        if step < xr - xl:
            cuts.add(near)
        while 0.0 < step < xr - xl:
            cuts.update((near - step, near + step))
            step *= 16.0
    for end in (xl, xr):
        step = 16.0 * min([abs(c - end) for c in cuts if xl < c < xr]
                         or [math.inf])
        while step < 0.5 * (xr - xl):
            cuts.update((end - step, end + step))
            step *= 16.0
    return [xl, *sorted(c for c in cuts if xl < c < xr), xr]


def _level_loops(p: HamiltonianParams, level: float, rows: list) -> list:
    """The loops of H2 = level in the order of their first axis seed not
    within 1e-6 of a critical point, then those that meet no axis in the
    order of their arcs: each its seed, its arcs in flow order
    as `segments` (piece rows in x order, branch s, copy m = 1 for y > 0 or
    -1 for the mirror, direction of x), and its seed's piece and
    sin^2(phi/2) there as `start`.  The pieces are appended to `rows`.

    With Y = y^2 the level reads 1/2 Y^2 + B Y + A = 0, B = x^2 + eps b x
    + eps^2 d and A = H2(x, 0) - C, so it is the branches
    Y_s = -B + s sqrt(D), D = B^2 - 2A a cubic.  An arc, a maximal
    x-interval where one branch is positive, ends at a fold (a root of D),
    where the loop turns into the other branch, or at an axis crossing (a
    root of A), where it turns into the arc's mirror image.  A loop that
    never meets the axis closes at folds alone, its mirror image another;
    its seed is the fold that its flow leaves on its first arc.
    """
    e = p.epsilon
    crit = [cp.location for cp in structure_of(p).points]
    seeds = [z for z in axis_level_seeds(p, level)
             if min(math.dist(z, c) for c in crit) >= 1e-6]
    # breakpoints (x, is an axis crossing), and the branches on each gap
    ca, cd, rts, bps = _level_roots(p, level)
    if not cd:
        return []
    xs = np.array([x for x, _ in bps])
    mid = 0.5 * (xs[1:] + xs[:-1])
    a, d = np.polyval(ca, mid), np.polyval(cd, mid)
    b = mid * (mid + e * p.b) + e * e * p.d
    arcs = []
    for s, on in ((1, (d > 0) & ((a < 0) | (b < 0))),
                  (-1, (d > 0) & (a > 0) & (b < 0))):
        edge = np.flatnonzero(np.diff(np.concatenate([[0], on, [0]])))
        for i, j in zip(edge[::2].tolist(), edge[1::2].tolist()):
            edges = _arc_edges(float(xs[i]), float(xs[j]), rts)
            arcs.append((i, j, s, list(range(len(rows),
                                             len(rows) + len(edges) - 1))))
            rows += [(u, v, s, cd[0], 0, *rts, *[np.nan] * (7 - len(rts)))
                     for u, v in zip(edges, edges[1:])]
    loops, seen = [], set()

    def walk(seed, piece, state):
        # from the seed's state through the arcs' turns until it recurs
        states = []
        while state not in states:
            states.append(state)
            arc, m, direction = state
            k = arcs[arc][1] if direction > 0 else arcs[arc][0]
            if bps[k][1]:  # an axis crossing: back along the mirror arc
                state = (arc, -m, -direction)
            else:  # a fold: on along the other branch, away from it
                arc = next(o for o, (i, j, _, _) in enumerate(arcs)
                           if k in (i, j) and o != arc)
                state = (arc, m, 1 if arcs[arc][0] == k else -1)
        if state != states[0]:
            raise NotClosed(f"the arcs of level {level:g} form no loop")
        seen.update(st[:2] for st in states)
        loops.append(SimpleNamespace(
            seed=np.array(seed), start=(piece, (seed[0] - rows[piece][0]) / (
                rows[piece][1] - rows[piece][0])),
            segments=[(arcs[a][3], arcs[a][2], m, d) for a, m, d in states]))

    for (x, y), dx in zip(seeds, np.polyval(cd, [z[0] for z in seeds])):
        # the arc over x on which Y_s = -B + s sqrt(D) is y^2, and its piece
        bx = x * (x + e * p.b) + e * e * p.d
        arc = min((n for n, (i, j, _, _) in enumerate(arcs)
                   if xs[i] <= x <= xs[j]), key=lambda n: abs(
            bx - arcs[n][2] * math.sqrt(max(dx, 0.0)) + y * y))
        i, j, s, ks = arcs[arc]
        piece = next(k for k in ks if rows[k][0] <= x <= rows[k][1])
        # from an axis crossing, along the arc away from it
        direction = (-s * (1 if y > 0 else -1) if y else
                     1 if x - xs[i] < xs[j] - x else -1)
        # dx/dt = -2 y s sqrt(D): on the copy with y of sign m the flow runs
        # in the direction of x of sign -s m
        if (arc, -s * direction) not in seen:
            walk((x, y), piece, (arc, -s * direction, direction))
    # a loop about an off-axis well meets no axis, so no seed reaches it:
    # it starts at the fold, y^2 = -B, that the flow leaves on an arc copy
    for arc, (i, j, s, ks) in enumerate(arcs):
        for m in (1, -1):
            if (arc, m) not in seen and not (bps[i][1] or bps[j][1]):
                x = xs[i] if s * m < 0 else xs[j]
                y = m * math.sqrt(max(-(x * (x + e * p.b) + e * e * p.d), 0.0))
                walk((x, y), ks[0] if s * m < 0 else ks[-1], (arc, m, -s * m))
    return loops


def level_loops(p: HamiltonianParams, levels):
    """The loops of each level from closed-form arcs, integrating nothing:
    per level, those through an axis seed in seed order, then those about
    off-axis wells, which meet no axis, from a fold (_level_loops).

    All levels' arcs are one batch of quadratures.  Each loop record has
    its `seed`, its Hamiltonian-time period `tau`, its `area` signed by the
    flow (positive counterclockwise), the (x, |y|) quadrature `nodes` of
    its arcs (H2 is even in y), and the batch's `arcs` that loop_samples
    reads.  Raises SlowConvergence where the ARC_NODES and ARC_NODES / 2
    node rules disagree beyond ARC_RTOL.
    """
    rows = []
    per_level = [_level_loops(p, level, rows) for level in levels]
    loops = [(level, lp) for level, lps in zip(levels, per_level)
             for lp in lps]
    if not loops:
        return per_level
    rows = np.array(rows, complex)
    # loop n runs piece k on branch s once per entry
    n, k, s = np.array([(n, k, s) for n, (_, lp) in enumerate(loops)
                        for ks, s, _, _ in lp.segments for k in ks]).T
    sums = [_arc_sums(p, rows, nodes) for nodes in (ARC_NODES, ARC_NODES // 2)]
    (tau, area, size), (tau2, area2, _) = (
        [np.bincount(n, weights=w) for w in (q[0][k], s * q[1][k], q[1][k])]
        for q in sums)
    for i in np.flatnonzero(~((np.abs(tau - tau2) <= ARC_RTOL * tau) & (
            np.abs(area - area2) <= ARC_RTOL * size)))[:1]:
        level, lp = loops[i]
        raise SlowConvergence(
            f"loop through ({lp.seed[0]:g}, {lp.seed[1]:g}) on level "
            f"{level:g}: the {ARC_NODES}- and {ARC_NODES // 2}-node arc "
            f"quadratures give tau {tau[i]:.17g} and {tau2[i]:.17g}, area "
            f"{area[i]:.17g} and {area2[i]:.17g}")
    # the records hold the batch, and nothing in it refers back to them
    piece_tau, _, x, y, dt = sums[0]
    for (_, lp), t, a in zip(loops, tau.tolist(), area.tolist()):
        ids = sorted({k for ks, _, _, _ in lp.segments for k in ks})
        lp.tau, lp.area, lp.arcs = t, a, (rows, piece_tau, dt)
        lp.nodes = np.column_stack([x[ids].ravel(), y[ids].ravel()])
    return per_level


def loop_samples(p: HamiltonianParams, loop, n_loop: int) -> np.ndarray:
    """n_loop points of a loop of level_loops at equal time steps from its
    seed, in the flow direction, to the accuracy of linear interpolation
    between the 16 ARC_NODES + 1 equally spaced phi of each piece at which
    _arc_rule gives the time."""
    rows, tau, dt = loop.arcs
    k, m, d = np.array([(k, m, d) for ks, _, m, d in loop.segments
                        for k in (ks if d > 0 else ks[::-1])]).T
    # each piece once, though a loop that meets the axis runs it twice
    fine = _arc_rule(dt.shape[1])[2]
    once = {j: fine @ dt[j] for j in set(k.tolist())}
    times = np.array([once[j] for j in k.tolist()])
    times[:, -1] = tau[k]
    # each piece from its start in the flow direction, and g = its place in
    # that order plus psi / pi, psi = phi or pi - phi
    times[d < 0] = tau[k[d < 0], None] - times[d < 0, ::-1]
    times += np.concatenate([[0.0], np.cumsum(tau[k])[:-1]])[:, None]
    g = np.arange(len(k))[:, None] + np.linspace(0.0, 1.0, times.shape[1])
    row = int(np.flatnonzero(k == loop.start[0])[0])
    u = 2.0 / np.pi * math.asin(math.sqrt(loop.start[1]))
    t0 = np.interp(row + (u if d[row] > 0 else 1.0 - u), g.ravel(),
                   times.ravel())
    g = np.interp((t0 + loop.tau * np.arange(n_loop) / n_loop) % loop.tau,
                  times.ravel(), g.ravel())
    row = np.minimum(g.astype(int), len(k) - 1)
    s2, c2 = np.sin(0.5 * np.pi * (g - row)) ** 2, np.sin(
        0.5 * np.pi * (row + 1 - g)) ** 2
    s2, c2 = np.where(d[row] > 0, s2, c2), np.where(d[row] > 0, c2, s2)
    x, y2, _, _ = _arc_values(p, rows[k[row]], s2[:, None], c2[:, None])
    samples = np.column_stack([x[:, 0], m[row] * np.sqrt(y2[:, 0])])
    samples[0] = loop.seed
    return samples


def claim_hessian_period(
    p: HamiltonianParams,
    loop: np.ndarray,
    t_ham: float,
):
    """Audit of the universal lower bound h_sup * T >= 2 pi for nonconstant
    periodic Hamiltonian-time solutions, where h_sup is the sup of the
    Hessian operator norm along the loop.

    Accepts planar loops (n, 2), audited against the planar Hessian, or
    full product loops (n, 4) audited against the 4x4 Hessian.  Returns a
    dict {h_sup, t_ham, product, pass}.
    """
    loop = np.asarray(loop, float)
    if loop.shape[-1] not in (2, 4):
        raise ValueError(f"loop must have 2 or 4 columns, got shape {loop.shape}")
    if np.max(np.linalg.norm(np.diff(loop, axis=0), axis=-1)) == 0.0:
        raise ValueError(f"constant loop ({len(loop)} equal samples) is not a "
                         "nonconstant periodic solution")
    if loop.shape[-1] == 2:
        # the norm of the symmetric 2x2 Hessian in closed form: the larger
        # |eigenvalue|, |mean| + half the eigenvalue gap
        hess = model.h2_hess(p, loop[:, 0], loop[:, 1])
        hxx, hxy, hyy = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
        norms = np.abs(0.5 * (hxx + hyy)) + np.hypot(0.5 * (hxx - hyy), hxy)
    else:
        _, _, hess = model.hamiltonian_eval(p, loop)
        norms = np.linalg.norm(hess, ord=2, axis=(-2, -1))
    h_sup = float(np.max(norms))
    product = h_sup * float(t_ham)
    return {
        "h_sup": h_sup,
        "t_ham": float(t_ham),
        "product": product,
        "pass": bool(product >= 2.0 * np.pi - 1e-9),
    }


# ---------------------------------------------------------------------------
# resonant level scan


def resonant_orbit_scan(
    p: HamiltonianParams,
    action_bound: float,
    level_lo: float = None,
    level_hi: float = None,
    n_levels: int = 64,
):
    """Scan planar levels for closed product orbits of small action.

    For each level C in the grid and each component of the level set, the
    planar period tau(C) and enclosed area are measured; a closed product
    orbit needs m1 / m2 = tau(C) / (2 pi), and its action is
    m1 * pi * (1 - 2C) + m2 * area.  The scan emits every candidate with a
    conservative minimal action <= action_bound (m1 rounded up to the next
    admissible ratio within 1e-6, over m2 = 1..8).  An empty result is
    the success mode.  Every level's loops come from one batch of arcs
    (level_loops), and the Hessian-period claim takes its h_sup over the
    arc nodes; only candidates get sampled loops.
    """
    vals = sorted(cp.h2_value for cp in structure_of(p).axis_points)
    if level_lo is None:
        level_lo = vals[0]
    if level_hi is None:
        level_hi = vals[-1]

    levels = [level_lo + (k + 0.5) * (level_hi - level_lo) / n_levels
              for k in range(n_levels)]
    per_level = level_loops(p, levels)
    candidates = []
    diagnostics = []
    for level, loops in zip(levels, per_level):
        for lp in loops:
            seed, tau, area = tuple(lp.seed), lp.tau, lp.area
            m2 = np.arange(1, 9)
            m1 = np.maximum(np.ceil(m2 * tau / (2.0 * np.pi) - 1e-6), 1.0)
            actions = m1 * np.pi * (1.0 - 2.0 * level) + m2 * abs(area)
            i = int(np.argmin(actions))
            action, m1, m2 = float(actions[i]), int(m1[i]), int(m2[i])
            # the Hessian norm is even in y: the arc nodes cover the loop
            claim = claim_hessian_period(p, lp.nodes, tau)
            if action <= action_bound:
                candidates.append({
                    "level": level, "seed": seed, "m1": m1, "m2": m2,
                    "tau": tau, "area": area, "action": action,
                    "claim_pass": claim["pass"],
                    "loop": loop_samples(p, lp, 2048),
                })
            else:
                diagnostics.append({
                    "level": level, "seed": seed, "status": "excluded",
                    "tau": tau, "area": area, "min_action": action,
                    "claim_pass": claim["pass"],
                })
    return candidates, diagnostics


def product_loop(planar_loop: np.ndarray, level: float, m1: int, m2: int,
                 n: int = 2048) -> np.ndarray:
    """Closed product curve: the planar loop traversed m2 times while the
    base circle of radius sqrt(1 - 2C) turns m1 times; the base speed is
    adjusted so the curve closes exactly (resonance surrogate)."""
    r = np.sqrt(1.0 - 2.0 * level)
    ts = np.arange(n) / n
    idx = (ts * m2 * len(planar_loop)).astype(int) % len(planar_loop)
    z2 = planar_loop[idx]
    ang = 2.0 * np.pi * m1 * ts
    return np.stack([r * np.cos(ang), r * np.sin(ang), z2[:, 0], z2[:, 1]],
                    axis=-1)


# ---------------------------------------------------------------------------
# separatrix and homoclinics


def saddle_eigendirections(p: HamiltonianParams):
    """Unstable/stable unit eigenvectors of the planar Hamiltonian-time
    linearization [[0, -2 eps^2 d], [2 eps^2 c, 0]] at the origin."""
    e = p.epsilon
    prod = -4.0 * e**4 * p.c * p.d
    if prod <= 0:
        raise NotHyperbolic("origin is not a hyperbolic critical point "
                            f"(-4 eps^4 c d = {prod:g} <= 0)")
    mu = np.sqrt(prod)
    # rows: (dx, dy)' = (-2 eps^2 d * y, 2 eps^2 c * x)
    v_unst = np.array([-2.0 * e * e * p.d, mu])
    v_unst /= np.linalg.norm(v_unst)
    v_stab = np.array([2.0 * e * e * p.d, mu])
    v_stab /= np.linalg.norm(v_stab)
    return v_unst, v_stab, mu


def _separatrix_branch(p: HamiltonianParams, side: float, rows: list):
    """The separatrix branch that leaves the saddle toward x of sign `side`,
    as arcs of the level H2 = 0 from its launch point to its apex.

    At the saddle A has a double root and B = eps^2 d, so the branch
    leaves on the Y_s that vanishes there, s = sign d.  It runs on Y_s to
    the nearest root ahead of D, a fold, where it turns back on the other
    branch, or of A where Y_s vanishes: there Y_+ Y_- = 2A = 0 and
    Y_+ + Y_- = -2B, so s = sign B.  That root is its apex on the axis.
    dx/dt = -2 y s sqrt(D), so y keeps the sign m = -side s up to the apex.
    The launch point is the point of the branch 1e-6 from the saddle.  From
    there to halfway to the first turn the time diverges like ln|x|, and 4
    pieces of kind 1, geometric in x, take it; the rest of each arc is cut
    as in _level_loops.  The pieces are appended to `rows` in flow order.
    Returns a record with their indices `pieces`, the `apex` x and `m`.
    Raises NoReturn when the branch comes back to the saddle without
    meeting the axis.
    """
    e = p.epsilon
    _, cd, rts, stops = _level_roots(p, 0.0)

    def row(u, v, s, kind):
        return (u, v, s, cd[0], kind, *rts, *[np.nan] * (7 - len(rts)))

    s0 = 1 if p.d > 0.0 else -1
    x, s, direction, arcs, apex = 0.0, s0, side, [], False
    for _ in stops:
        ahead = [(r, on_axis) for r, on_axis in stops
                 if (r - x) * direction > 0.0 and not (
                     on_axis and (r * (r + e * p.b) + e * e * p.d > 0.0)
                     != (s > 0))]
        if not ahead:
            break
        end, apex = min(ahead, key=lambda z: abs(z[0] - x))
        arcs.append((x, end, s))
        if apex:
            break
        x, s, direction = end, -s, -direction
    if not apex or end == 0.0:
        raise NoReturn(
            f"the separatrix branch toward x {'>' if side > 0 else '<'} 0 "
            "returns to the saddle without meeting the axis")

    # x^2 + Y_s(x) = 1e-12: Y_s / x^2 changes by O(x) near the saddle, so
    # each pass gains six digits
    x = side * 1e-6
    for _ in range(3):
        _, y2, _, _ = _arc_values(p, np.array([row(x, x, s0, 0)], complex),
                                  0.0, 1.0)
        x = side * 1e-6 / math.sqrt(1.0 + y2[0, 0] / (x * x))
    start = len(rows)
    for k, (u, v, s) in enumerate(arcs):
        if k == 0:
            edges = np.geomspace(x, 0.5 * v, 5).tolist()
            rows += [row(a, b, s, 1) for a, b in zip(edges, edges[1:])]
            u = edges[-1]
        edges = _arc_edges(min(u, v), max(u, v), rts)
        if v < u:
            edges.reverse()
        rows += [row(a, b, s, 0) for a, b in zip(edges, edges[1:])]
    return SimpleNamespace(pieces=np.arange(start, len(rows)), m=-side * s0,
                           apex=end)


def _arc_places(tau: np.ndarray, dt: np.ndarray, times: np.ndarray,
                more: np.ndarray):
    """Where a chain of arc pieces, given by their times `tau` and dt/dphi
    at the nodes `dt` in flow order, is at `times` from its start: the
    piece j and xi = 2 phi / pi - 1 on it, found by Newton on the integral
    of the piece's Legendre interpolant of dt/dphi, and there the integral
    from the chain's start of the interpolants of `more`, values at the
    nodes like `dt`.

    On a piece sin^2(phi/2) is analytic in the time: linear at a regular
    end, where dt/dphi vanishes as sin(phi), and quadratic at a fold or an
    apex, where dt/dphi stays finite.  So the first guess, its interpolant
    through the nearest 6 of the 16 ARC_NODES + 1 points at which
    _arc_rule gives the time, already meets the tolerance on the
    separatrix (within 1e-14 of the branch's time at eps 0.5), and Newton
    only guards it.  Raises SlowConvergence when 8 Newton steps leave a
    point off its time by more than 1e-13 of the chain's.
    """
    n = dt.shape[1]
    _, w, fine, rate, prim = _arc_rule(n)
    start = np.concatenate([[0.0], np.cumsum(tau)])
    table = np.array([fine @ v for v in dt])
    table[:, -1] = tau
    table += start[:-1, None]
    s2 = np.sin(np.linspace(0.0, 0.5 * np.pi, table.shape[1])) ** 2
    j, c = np.divmod(np.searchsorted(table.ravel(), times, side="right") - 1,
                     table.shape[1])
    c = np.clip(c - 2, 0, table.shape[1] - 6)[:, None] + np.arange(6)
    tk, dd = table[j[:, None], c], s2[c]
    # Newton's divided differences, then Horner
    for k in range(1, 6):
        dd[:, k:] = (dd[:, k:] - dd[:, k - 1:-1]) / (tk[:, k:] - tk[:, :-k])
    guess = dd[:, 5]
    for k in range(4, -1, -1):
        guess = guess * (times - tk[:, k]) + dd[:, k]
    xi = 4.0 / np.pi * np.arcsin(np.sqrt(np.clip(guess, 0.0, 1.0))) - 1.0
    # each piece's dt/dxi and t as Legendre series in xi, t = 0 at xi = -1,
    # applied to its points as one block: sorted by piece
    order = np.argsort(j, kind="stable")
    j, xi, local = j[order], xi[order], (times - start[j])[order]
    cuts = np.searchsorted(j, np.arange(len(tau) + 1)).tolist()
    blocks = [(k, slice(a, b)) for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
              if a < b]

    def series(at, coeffs):
        out = np.empty(len(at))
        for k, b in blocks:
            out[b] = at[b, :coeffs.shape[1]] @ coeffs[k]
        return out

    slopes, times_of = (np.einsum("pn,kn->pk", dt, m) for m in (rate, prim))
    tol = 1e-13 * start[-1]
    for _ in range(8):
        at = np.polynomial.legendre.legvander(xi, n)
        miss = series(at, times_of) - local
        off = np.abs(miss) > tol
        if not off.any():
            break
        step = np.divide(miss, series(at, slopes), out=np.zeros_like(miss),
                         where=off)
        xi = np.clip(xi - step, -1.0, 1.0)
    else:
        raise SlowConvergence(
            f"arc samples off their times by {np.max(np.abs(miss)):.3g} "
            "after 8 Newton steps")
    integral = np.concatenate([[0.0], np.cumsum(more @ w)])[j] + series(
        at, np.einsum("pn,kn->pk", more, prim))
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return j[back], xi[back], integral[back]


def distance_to_orbit_set(orbit: ReebOrbit, states: np.ndarray) -> np.ndarray:
    """Euclidean distance from states to the orbit circle as a point set."""
    states = np.atleast_2d(states)
    r12 = np.hypot(states[:, 0], states[:, 1])
    dz2 = np.hypot(states[:, 2] - orbit.z2_datum[0],
                   states[:, 3] - orbit.z2_datum[1])
    return np.sqrt((r12 - orbit.r) ** 2 + dz2**2)


def separatrix_and_homoclinics(p: HamiltonianParams):
    """Both separatrix branches of the planar saddle from closed-form arcs,
    and the product homoclinic trajectory with its convergence report.

    The branches gamma1 (inner loop, the nearer apex) and gamma2 (outer
    loop) leave the saddle on the level H2 = 0 itself, from the point 1e-6
    from it (_separatrix_branch).  Each is one batch of Gauss-Legendre arc
    quadratures up to its apex on the axis, and the planar reversing
    symmetry closes it: its time t_apex and area come from the ARC_NODES
    rule, which must agree with the ARC_NODES / 2 one to ARC_RTOL, or the
    call raises SlowConvergence.  No ODE is integrated.  Its 2001 samples
    at equal time steps to the apex are placed by Newton on the pieces'
    time interpolants (_arc_places), then mirrored back to the saddle.

    The homoclinic is the Reeb trajectory through the apex of gamma1, with
    end distances to the hyperbolic binding orbit reported.
    H = r^2 / 2 + H2 is split, so in Hamiltonian time sigma the pair
    (x1, y1) = r (cos sigma, sin sigma) turns at unit rate with
    r^2 = x1^2 + y1^2 fixed, while (x2, y2) runs the planar flow of H2.
    R(x, y) = (x, -y) reverses that flow, so from the apex it runs gamma1
    backward and mirrored: w(sigma) = R z(t_apex - sigma), back to the
    launch point at sigma = t_apex; the 800 samples are uniform in sigma.
    The Reeb time is the integral of lambda0(X_H) = s / 2 with
    s = r^2 + x2 Q + y2 P, a function of the planar point, so it is a
    third arc quadrature, of (s / 2) dt/dphi, read at the samples from the
    same interpolants; the horizon is the Reeb time of the whole leg.  H2 is
    even in y2 too, so the 4-D flow is reversible under
    R(x1, y1, x2, y2) = (x1, -y1, x2, -y2) (Devaney, Trans. AMS 218, 1976);
    the apex is fixed by R, and the backward leg is R applied to the
    forward one.  Raises NotHyperbolic when the origin is no saddle,
    NoReturn before any quadrature when x^2 / 2 + eps a x + eps^2 c has no
    real root, so that no branch can meet the axis, and NotStarShaped where
    s <= 0 on gamma1, at a node or a sample.
    """
    saddle_eigendirections(p)  # NotHyperbolic unless c d < 0
    e = p.epsilon
    disc = e * e * (p.a * p.a - 2.0 * p.c)
    if disc < 0.0:
        raise NoReturn("the separatrix meets no axis: x^2 / 2 + eps a x + "
                       f"eps^2 c has discriminant {disc:g} < 0")
    rows = []
    walks = sorted((_separatrix_branch(p, side, rows) for side in (1.0, -1.0)),
                   key=lambda br: abs(br.apex))
    rows = np.array(rows, complex)
    sums = [_arc_sums(p, rows, nodes) for nodes in (ARC_NODES, ARC_NODES // 2)]
    tau, _, x, y, dt = sums[0]
    for br in walks:
        k = br.pieces
        (br.t_apex, br.area, size), (t2, area2, _) = (
            (q[0][k].sum(), -2.0 * br.m * q[1][k].sum(),
             2.0 * np.abs(q[1][k]).sum()) for q in sums)
        if not (abs(br.t_apex - t2) <= ARC_RTOL * br.t_apex
                and abs(br.area - area2) <= ARC_RTOL * size):
            raise SlowConvergence(
                f"separatrix branch to the apex x = {br.apex:g}: the "
                f"{ARC_NODES}- and {ARC_NODES // 2}-node arc quadratures give "
                f"t_apex {br.t_apex:.17g} and {t2:.17g}, area "
                f"{br.area:.17g} and {area2:.17g}")

    # lambda0(X_H) = s / 2 with s = r^2 + x2 Q + y2 P, a function of the
    # planar point, even in y2; r^2 = 1 - 2 H2 = 1 on the level H2 = 0
    r = float(np.sqrt(1.0 - 2.0 * model.h2_eval(p, walks[0].apex, 0.0)))
    q, pp = model.h2_grad(p, x, y)
    s_nodes = r * r + x * q + y * pp
    # gamma1 is sampled once for its own samples and for the homoclinic
    # leg, which runs it from the apex back: planar time t_apex - sigma
    sigma = np.linspace(0.0, walks[0].t_apex, 800)
    closed = []
    for br, leg in zip(walks, (walks[0].t_apex - sigma, [])):
        k = br.pieces
        j, xi, clock = _arc_places(
            tau[k], dt[k], np.concatenate([
                np.linspace(0.0, br.t_apex, 2001), leg]),
            0.5 * s_nodes[k] * dt[k])
        s2, c2 = (np.sin(0.25 * np.pi * (1.0 + v * xi))[:, None] ** 2
                  for v in (1.0, -1.0))
        px, y2, _, _ = _arc_values(p, rows[k[j]], s2, c2)
        pts = np.column_stack([px[:, 0], br.m * np.sqrt(y2[:, 0])])
        half = pts[:2001]
        half[-1] = (br.apex, 0.0)
        # the last sample closes the loop at the saddle
        closed.append(np.vstack([half, half[-2::-1] * np.array([1.0, -1.0])]))
        # the loop integral of (x dy - y dx) / 2 from the launch point to its
        # mirror image is -2 int y dx - x y at the launch point: it closes
        # through the saddle, where x dy - y dx vanishes on both chords
        br.area -= half[0, 0] * half[0, 1]
        if br is walks[0]:
            planar, reeb_time = pts[2001:], clock[2001:]
    gamma1, gamma2 = (
        SeparatrixBranch(branch_id=f"gamma{k}", samples=samples,
                         enclosed_area=float(br.area),
                         axis_crossings=np.array([br.apex]))
        for k, (br, samples) in enumerate(zip(walks, closed), start=1))

    # product homoclinic in the full phase space, parametrized from the
    # symmetric apex of the inner loop (its axis crossing) so both
    # time directions are pure decay legs toward the hyperbolic orbit
    fwd_states = np.column_stack([r * np.cos(sigma), r * np.sin(sigma),
                                  planar[:, 0], -planar[:, 1]])
    # the apex row is exactly (r, 0, x_apex, 0), with +0
    fwd_states[0] = (r, 0.0, walks[0].apex, 0.0)
    s_min = min(np.min(s_nodes[walks[0].pieces]),
                np.min(model.star_quantity(p, fwd_states)))
    if s_min <= 0.0:
        raise NotStarShaped(f"lambda0(X_H) <= 0 (min value {s_min / 2.0:g})")
    # Reeb time: dt / dsigma = lambda0(X_H) = s / 2, from the apex back
    t = reeb_time[0] - reeb_time
    x1, y1, x2, y2 = fwd_states.T
    h = 0.5 * (x1 * x1 + y1 * y1) + model.h2_eval(p, x2, y2)
    # the backward leg, reversed and without its t = 0 sample, which is
    # taken from the forward leg so the apex row keeps +0 in y1 and y2
    bwd_states = fwd_states[:0:-1] * np.array([1.0, -1.0, 1.0, -1.0])
    states = np.vstack([bwd_states, fwd_states])
    ts = np.concatenate([-t[:0:-1], t])
    traj = Trajectory(t=ts, states=states,
                      energy_drift=float(np.max(np.abs(h - h[0]))))
    orbit_p2 = ReebOrbit(label="P2", z2_datum=np.zeros(2), r=1.0,
                         reeb_period=float(np.pi))
    report = {
        "end_distance_forward": float(distance_to_orbit_set(
            orbit_p2, fwd_states[-1][None, :])[0]),
        "end_distance_backward": float(distance_to_orbit_set(
            orbit_p2, bwd_states[0][None, :])[0]),
        "horizon": float(t[-1]),
    }
    return (gamma1, gamma2), traj, report
