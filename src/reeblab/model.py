"""Hamiltonian model: energy surface, contact form, Reeb flow, linearization.

The state space is R^4 with coordinates (x1, y1, x2, y2) and the standard
symplectic form.  The Hamiltonian splits as H = H1(x1, y1) + H2(x2, y2),

    H1 = (x1^2 + y1^2) / 2,
    H2 = (x2^2 + y2^2)^2 / 2 + eps*a*x2^3 + eps*b*x2*y2^2
         + eps^2*c*x2^2 + eps^2*d*y2^2,

and every invariant downstream lives on the energy surface S = H^{-1}(1/2),
which is star-shaped and diffeomorphic to the 3-sphere.  The restriction of
the Liouville form lambda0 = (1/2) sum(x_i dy_i - y_i dx_i) is a contact
form on S whose Reeb field is h * X_H with h = 1 / lambda0(X_H).

All field evaluations broadcast over leading axes: states may be single
4-vectors or arrays of shape (..., 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import PRESETS, RunConfig
from .errors import (
    DegenerateFrame,
    NoConvergence,
    NotClosed,
    NotStarShaped,
    StepUnderflow,
)

# 2x2 rotation generator and the symplectic pairing on R^4.
J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
OMEGA4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

# Orthogonal quaternion-type matrices generating the moving frame
# X_i = A_i grad(H) / |grad(H)|.  A3 maps grad(H) to X_H.
FRAME_A1 = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)
FRAME_A2 = np.array(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
FRAME_A3 = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

# Smallest |grad H|, |lambda0(X_3)| and |dlambda0(Xbar1, Xbar2)| at which
# the global contact frame counts as nondegenerate.
FRAME_TOL = 1e-8
# Largest gap |z(T) - z(0)| accepted as a closed orbit.
ORBIT_CLOSE_TOL = 1e-6


@dataclass
class HamiltonianParams:
    """The five model constants plus cached critical-point structure.

    `structure` is populated by `orbits.validate_structure`; operations that
    build the special orbits require it.
    """

    epsilon: float
    a: float
    b: float
    c: float
    d: float
    preset_name: str = "custom"
    structure: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")

    @classmethod
    def from_preset(cls, name: str, epsilon: float = 0.5) -> "HamiltonianParams":
        coeffs = PRESETS[name]
        return cls(epsilon=epsilon, preset_name=name, **coeffs)

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "HamiltonianParams":
        coeffs = cfg.coefficient_dict()
        name = cfg.preset if cfg.coefficients is None else "custom"
        return cls(epsilon=cfg.epsilon, preset_name=name, **coeffs)


# ---------------------------------------------------------------------------
# scalar fields


def h2_eval(p: HamiltonianParams, x, y):
    """Planar factor H2 of the Hamiltonian."""
    e = p.epsilon
    r2 = x * x + y * y
    return 0.5 * r2 * r2 + e * p.a * x**3 + e * p.b * x * y * y \
        + e * e * p.c * x * x + e * e * p.d * y * y


def h2_grad(p: HamiltonianParams, x, y):
    """Partial derivatives (Q, P) = (dH2/dx2, dH2/dy2)."""
    e = p.epsilon
    r2 = x * x + y * y
    q = 2.0 * x * r2 + 3.0 * e * p.a * x * x + e * p.b * y * y + 2.0 * e * e * p.c * x
    pp = 2.0 * y * r2 + 2.0 * e * p.b * x * y + 2.0 * e * e * p.d * y
    return q, pp


def _h2_hess_entries(p: HamiltonianParams, x, y):
    """Second partials (H2_xx, H2_xy, H2_yy); floats or arrays alike."""
    e = p.epsilon
    hxx = 6.0 * x * x + 2.0 * y * y + 6.0 * e * p.a * x + 2.0 * e * e * p.c
    hxy = 4.0 * x * y + 2.0 * e * p.b * y
    hyy = 2.0 * x * x + 6.0 * y * y + 2.0 * e * p.b * x + 2.0 * e * e * p.d
    return hxx, hxy, hyy


def h2_hess(p: HamiltonianParams, x, y):
    """Hessian of H2, shape (..., 2, 2), exact polynomial derivatives."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    hxx, hxy, hyy = _h2_hess_entries(p, x, y)
    out = np.empty(x.shape + (2, 2))
    out[..., 0, 0] = hxx
    out[..., 0, 1] = hxy
    out[..., 1, 0] = hxy
    out[..., 1, 1] = hyy
    return out


def hamiltonian_eval(p: HamiltonianParams, z):
    """Value, gradient and Hessian of H at state(s) z.

    Returns (H, grad, hess) with shapes (...,), (..., 4) and (..., 4, 4).
    All derivatives are closed-form polynomial expressions.
    """
    z = np.asarray(z, float)
    x1, y1, x2, y2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    h = 0.5 * (x1 * x1 + y1 * y1) + h2_eval(p, x2, y2)
    q, pp = h2_grad(p, x2, y2)
    grad = np.stack([x1, y1, q, pp], axis=-1)
    hess = np.zeros(z.shape[:-1] + (4, 4))
    hess[..., 0, 0] = 1.0
    hess[..., 1, 1] = 1.0
    hess[..., 2:, 2:] = h2_hess(p, x2, y2)
    return h, grad, hess


def lambda0(z, u):
    """Liouville one-form lambda0(z)(u) = (1/2) sum(x_i u_yi - y_i u_xi)."""
    z = np.asarray(z, float)
    u = np.asarray(u, float)
    return 0.5 * (
        z[..., 0] * u[..., 1] - z[..., 1] * u[..., 0]
        + z[..., 2] * u[..., 3] - z[..., 3] * u[..., 2]
    )


def dlambda0(u, v):
    """Exterior derivative d(lambda0)(u, v) = sum dx_i ^ dy_i (u, v)."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    return (
        u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        + u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2]
    )


def hamiltonian_vf(p: HamiltonianParams, z):
    """Hamiltonian vector field X_H = (-y1, x1, -P, Q)."""
    z = np.asarray(z, float)
    q, pp = h2_grad(p, z[..., 2], z[..., 3])
    return np.stack([-z[..., 1], z[..., 0], -pp, q], axis=-1)


def star_quantity(p: HamiltonianParams, z):
    """2 * lambda0(X_H) = x1^2 + y1^2 + x2*Q + y2*P; positive on a
    star-shaped transverse surface."""
    z = np.asarray(z, float)
    q, pp = h2_grad(p, z[..., 2], z[..., 3])
    return z[..., 0] ** 2 + z[..., 1] ** 2 + z[..., 2] * q + z[..., 3] * pp


def vector_fields(p: HamiltonianParams, z):
    """Hamiltonian field, Reeb normalization and Reeb field at z.

    Returns (X_H, h, R) with R = h * X_H and h = 1 / lambda0(X_H).
    Raises NotStarShaped when lambda0(X_H) <= 0, which signals failure of
    the transversality making lambda0 a contact form at z.
    """
    z = np.asarray(z, float)
    xh = hamiltonian_vf(p, z)
    s = star_quantity(p, z)
    if np.any(s <= 0.0):
        raise NotStarShaped(f"lambda0(X_H) <= 0 (min value {np.min(s) / 2.0:g})")
    h = 2.0 / s
    r = xh * h[..., None] if np.ndim(h) else xh * h
    return xh, h, r


# ---------------------------------------------------------------------------
# contact frame


def frame_sections(p: HamiltonianParams, z):
    """Global contact-plane frame (Xbar1, Xbar2) at state(s) z.

    Xbar_i is the unique vector of ker(lambda0) intersected with TS that
    projects to X_i = A_i grad(H)/|grad(H)| along X_3.  Vectorized over
    leading axes; raises DegenerateFrame if lambda0(X_3) is below tolerance.
    """
    z = np.asarray(z, float)
    _, grad, _ = hamiltonian_eval(p, z)
    gnorm = np.linalg.norm(grad, axis=-1)
    if np.any(gnorm < FRAME_TOL):
        raise DegenerateFrame(
            f"gradient of H vanishes (|grad H| = {np.min(gnorm):g})")
    n = grad / gnorm[..., None]
    x1v = n @ FRAME_A1.T
    x2v = n @ FRAME_A2.T
    x3v = n @ FRAME_A3.T
    lam3 = lambda0(z, x3v)
    if np.any(np.abs(lam3) < FRAME_TOL):
        raise DegenerateFrame("lambda0(X_3) below frame tolerance "
                              f"(|lambda0(X_3)| = {np.min(np.abs(lam3)):g})")
    xbar1 = x1v - (lambda0(z, x1v) / lam3)[..., None] * x3v
    xbar2 = x2v - (lambda0(z, x2v) / lam3)[..., None] * x3v
    return xbar1, xbar2


def frame_coords(xbar1, xbar2, v):
    """Coordinates of contact vectors v in the (Xbar1, Xbar2) frame.

    Uses the symplectic pairing, so it is exact for v in the span of the
    frame; broadcasts over leading axes.  Raises DegenerateFrame where
    dlambda0(Xbar1, Xbar2) falls below the frame tolerance.
    """
    den = dlambda0(xbar1, xbar2)
    if np.any(np.abs(den) < FRAME_TOL):
        raise DegenerateFrame("frame loses rank (|dlambda0(Xbar1, Xbar2)| = "
                              f"{np.min(np.abs(den)):g})")
    a = dlambda0(v, xbar2) / den
    b = dlambda0(xbar1, v) / den
    return np.stack([a, b], axis=-1)


def winding_turns(vecs, closed: bool = False):
    """Turns made by plane vectors sampled along axis 0.

    `vecs` has shape (n, 2, ...).  Each angle step is wrapped into
    [-pi, pi); with `closed` the step from the last sample back to the
    first counts too.  Returns (turns, largest |step|), both shaped like
    vecs[0, 0].  The sum is only the winding while every step stays well
    below pi, so each caller applies its own bound to the largest step.
    """
    vecs = np.asarray(vecs, float)
    ang = np.arctan2(vecs[:, 1], vecs[:, 0])
    if closed:
        ang = np.concatenate([ang, ang[:1]])
    steps = (np.diff(ang, axis=0) + np.pi) % (2.0 * np.pi) - np.pi
    return np.sum(steps, axis=0) / (2.0 * np.pi), np.max(np.abs(steps), axis=0)


@dataclass
class ContactFrame:
    """Pointwise frame data on the surface: contact frame (Xbar1, Xbar2),
    Reeb field, and the compatible complex structure J (Xbar1 -> Xbar2,
    Xbar2 -> -Xbar1) exposed through apply_J."""

    base: np.ndarray
    Xbar1: np.ndarray
    Xbar2: np.ndarray
    reeb: np.ndarray

    def project(self, v):
        """Projection TS -> contact plane along the Reeb direction."""
        lam = np.asarray(lambda0(self.base, v), float)
        return v - lam[..., None] * self.reeb

    def coords(self, v):
        return frame_coords(self.Xbar1, self.Xbar2, v)

    def apply_J(self, v):
        ab = np.asarray(self.coords(v), float)
        return ab[..., 0, None] * self.Xbar2 - ab[..., 1, None] * self.Xbar1


def contact_frame(p: HamiltonianParams, z) -> ContactFrame:
    """Build the frame record at one or many on-surface states."""
    z = np.asarray(z, float)
    xbar1, xbar2 = frame_sections(p, z)
    _, _, reeb = vector_fields(p, z)
    return ContactFrame(base=z, Xbar1=xbar1, Xbar2=xbar2, reeb=reeb)


# ---------------------------------------------------------------------------
# flows


def reeb_rhs(p: HamiltonianParams, with_variational: bool = False):
    """Right-hand side f(t, y) of the Reeb flow R = h X_H for solve_ivp.

    Plain-float arithmetic, since this closure is the hot path of every 4-D
    integration; it agrees bit for bit with `vector_fields` and raises
    NotStarShaped where lambda0(X_H) <= 0.  With `with_variational`, y also
    carries the 4x4 fundamental matrix m, which moves by DR @ m with
    DR = h DX_H + X_H (x) dh.
    """

    def field(x1, y1, x2, y2):
        q, pp = h2_grad(p, x2, y2)
        s = x1 * x1 + y1 * y1 + x2 * q + y2 * pp
        if s <= 0.0:
            raise NotStarShaped(f"lambda0(X_H) <= 0 (min value {s / 2.0:g})")
        return q, pp, 2.0 / s

    def rhs(t, y):
        x1, y1, x2, y2 = y.tolist()
        q, pp, h = field(x1, y1, x2, y2)
        return (-y1 * h, x1 * h, -pp * h, q * h)

    def rhs_variational(t, y):
        x1, y1, x2, y2 = y[:4].tolist()
        q, pp, h = field(x1, y1, x2, y2)
        hxx, hxy, hyy = _h2_hess_entries(p, x2, y2)
        # dh = -(h^2 / 2) ds with s = 2 lambda0(X_H)
        c = -(h * h / 2.0)
        dh0 = c * (2.0 * x1)
        dh1 = c * (2.0 * y1)
        dh2 = c * (q + x2 * hxx + y2 * hxy)
        dh3 = c * (x2 * hxy + pp + y2 * hyy)
        jac = np.array([
            [-y1 * dh0, -y1 * dh1 - h, -y1 * dh2, -y1 * dh3],
            [x1 * dh0 + h, x1 * dh1, x1 * dh2, x1 * dh3],
            [-pp * dh0, -pp * dh1, -pp * dh2 - h * hxy, -pp * dh3 - h * hyy],
            [q * dh0, q * dh1, q * dh2 + h * hxx, q * dh3 + h * hxy],
        ])
        out = np.empty(20)
        out[:4] = (-y1 * h, x1 * h, -pp * h, q * h)
        out[4:] = (jac @ y[4:].reshape(4, 4)).ravel()
        return out

    return rhs_variational if with_variational else rhs


@dataclass
class Trajectory:
    """Sampled flow segment with its conserved-energy drift."""

    t: np.ndarray
    states: np.ndarray
    energy_drift: float


def integrate_flow(
    p: HamiltonianParams,
    z0,
    T: float,
    with_variational: bool = False,
    tol: float = 1e-10,
    n_samples: int = 200,
):
    """Integrate the Reeb flow h*X_H from z0 for (signed) time T by DOP853,
    the 8th-order pair of Hairer, Norsett & Wanner (Solving ODEs I, II.10).

    Parameters
    ----------
    with_variational : also propagate the 4x4 fundamental solution of the
        linearized flow along the same adaptive step sequence.
    tol : per-step error tolerance (both relative and absolute).
    n_samples : number of equally spaced output times on [0, T].

    Returns
    -------
    (Trajectory, M) where M is None or an array (n, 4, 4) of fundamental
    matrices at the sample times.

    Raises StepUnderflow when the step controller fails (near-singular
    normalization h).
    """
    from scipy.integrate import solve_ivp

    z0 = np.asarray(z0, float)
    y0 = np.concatenate([z0, np.eye(4).ravel()]) if with_variational else z0
    sol = solve_ivp(reeb_rhs(p, with_variational), (0.0, T), y0,
                    method="DOP853", rtol=tol, atol=tol,
                    t_eval=np.linspace(0.0, T, n_samples), dense_output=False)
    if sol.status == -1:
        raise StepUnderflow(f"{sol.message} (at t = {sol.t[-1]:g})")
    states = sol.y[:4].T
    h, _, _ = hamiltonian_eval(p, states)
    drift = float(np.max(np.abs(h - h[0])))
    traj = Trajectory(t=sol.t, states=states, energy_drift=drift)
    mats = sol.y[4:].T.reshape(-1, 4, 4) if with_variational else None
    return traj, mats


def surface_project(p: HamiltonianParams, z):
    """Return a nearby point of H^{-1}(1/2) by Newton steps along grad(H).

    Vectorized over leading axes.  Raises NoConvergence if any point fails
    to reach |H - 1/2| <= 1e-10 within 50 steps, and rejects inputs with
    |H - 1/2| >= 1e-2.
    """
    z = np.array(z, float, copy=True)
    h0, _, _ = hamiltonian_eval(p, z)
    if np.any(np.abs(h0 - 0.5) >= 1e-2):
        raise NoConvergence("point outside the capture radius of the surface "
                            f"(|H - 1/2| = {np.max(np.abs(h0 - 0.5)):g})")
    # 51 checks: the starting point and the result of each of 50 steps
    for _ in range(51):
        h, grad, _ = hamiltonian_eval(p, z)
        err = h - 0.5
        if np.all(np.abs(err) <= 1e-10):
            return z
        gg = np.sum(grad * grad, axis=-1)
        z = z - (err / gg)[..., None] * grad
    raise NoConvergence("surface projection did not converge "
                        f"(|H - 1/2| = {np.max(np.abs(err)):g} after 50 steps)")


# ---------------------------------------------------------------------------
# restriction of the linearized flow to the contact plane


@dataclass
class SymplecticPath:
    """Path of 2x2 symplectic matrices on the unit parameter interval.

    `mats[j]` expresses the linearized Reeb flow over physical time
    `period * tau[j]` restricted to the contact plane, in the frame it was
    built in; the last node closes the period.  Paths built from a constant
    generator keep it in `constant_generator`, and only they can be
    evaluated between their nodes.
    """

    tau: np.ndarray
    mats: np.ndarray
    period: float
    constant_generator: Optional[np.ndarray] = None

    def __post_init__(self):
        self.tau = np.asarray(self.tau, float)
        self.mats = np.asarray(self.mats, float)
        if not np.array_equal(self.mats[0], np.eye(2)):
            raise ValueError("path must start at the identity exactly, "
                             f"starts at {self.mats[0].tolist()}")

    @classmethod
    def from_generator(cls, gen: np.ndarray, period: float,
                       n_samples: int) -> "SymplecticPath":
        """The exact path exp(t * gen) on n_samples uniform nodes over one
        period."""
        tau = np.linspace(0.0, 1.0, n_samples)
        mats = _expm_generator(gen, period * tau)
        mats[0] = np.eye(2)
        return cls(tau=tau, mats=mats, period=period, constant_generator=gen)

    @property
    def n_nodes(self) -> int:
        return len(self.tau)

    def det_defect(self) -> float:
        return float(np.max(np.abs(np.linalg.det(self.mats) - 1.0)))

    def end_matrix(self) -> np.ndarray:
        return self.mats[-1]

    def lift(self, nodes):
        """(tau, mats) at integer node indices of the path continued over
        every period by the group law Phi(t + j) = Phi(t) Phi(1)^j, the
        powers by repeated right multiplication with Phi(1) or its inverse.
        Node j (n_nodes - 1), j > 0, is the closing node times Phi(1)^(j-1),
        so a k-fold concatenation repeats the stored closing node.
        """
        n = self.n_nodes - 1
        j, r = np.divmod(np.asarray(nodes), n)
        top = (r == 0) & (j > 0)
        j, r = np.where(top, j - 1, j), np.where(top, n, r)
        mats = self.mats[r]
        end = self.end_matrix()
        for stop, step in ((j.max() + 1, 1), (j.min() - 1, -1)):
            power = np.eye(2)
            for jj in range(step, stop, step):
                power = power @ (end if step > 0 else np.linalg.inv(end))
                mats[j == jj] = mats[j == jj] @ power
        return self.tau[r] + j, mats

    def value(self, tau):
        """exp(period * tau * A) at arbitrary parameters tau, exactly, for a
        path with constant generator A; raises ValueError for any other
        path, whose matrices are known at its nodes alone."""
        if self.constant_generator is None:
            raise ValueError("evaluation between nodes needs a path with a "
                             "constant generator")
        tau = np.asarray(tau, float)
        return _expm_generator(self.constant_generator, self.period * tau)


def _expm_generator(gen: np.ndarray, times) -> np.ndarray:
    """exp(t * gen) for gen = [[0, k1], [k2, 0]], vectorized over t."""
    k1 = gen[0, 1]
    k2 = gen[1, 0]
    t = np.asarray(times, float)
    prod = k1 * k2
    out = np.zeros(t.shape + (2, 2))
    if prod > 0:  # hyperbolic
        w = np.sqrt(prod)
        ch, sh = np.cosh(w * t), np.sinh(w * t)
        out[..., 0, 0] = ch
        out[..., 0, 1] = (k1 / w) * sh
        out[..., 1, 0] = (k2 / w) * sh
        out[..., 1, 1] = ch
    elif prod < 0:  # elliptic
        w = np.sqrt(-prod)
        co, si = np.cos(w * t), np.sin(w * t)
        out[..., 0, 0] = co
        out[..., 0, 1] = (k1 / w) * si
        out[..., 1, 0] = (k2 / w) * si
        out[..., 1, 1] = co
    else:  # shear
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 0, 1] = k1 * t
        out[..., 1, 0] = k2 * t
    return out


def rho_frame_basis(p: HamiltonianParams, z) -> np.ndarray:
    """Orbit-adapted contact basis at axis-circle points: the lifts of the
    planar directions (0,0,1,0) and (0,0,0,1) into the contact plane.

    Returns 4x2 matrices of columns, shape (..., 4, 2) for states (..., 4).
    Only valid where both directions are tangent to the surface (the
    special orbits and their neighbors on the axis circles)."""
    z = np.asarray(z, float)
    _, _, reeb = vector_fields(p, z)
    planar = np.zeros(z.shape[:-1] + (2, 4))  # rows e3, e4
    planar[..., 0, 2] = 1.0
    planar[..., 1, 3] = 1.0
    lam = lambda0(z[..., None, :], planar)
    lifted = planar - lam[..., None] * reeb[..., None, :]
    return np.swapaxes(lifted, -1, -2)


def restrict_linearized_to_xi(
    p: HamiltonianParams,
    orbit,
    frame_kind: str = "rho_orbit_frame",
    n_samples: int = 256,
) -> SymplecticPath:
    """Compress the 4x4 linearized Reeb flow along a closed orbit to the
    2x2 symplectic path on the contact plane.

    The orbit must close up within ORBIT_CLOSE_TOL, else NotClosed is
    raised.  In the 'rho_orbit_frame' the basis is the lifted planar pair,
    whose coordinates are just the (x2, y2) components; in the
    'global_frame' the compression projects along the Reeb direction and
    solves against (Xbar1, Xbar2).
    """
    if n_samples < 64:
        raise ValueError(f"n_samples must be at least 64, got {n_samples}")
    z0 = np.asarray(orbit.initial_state, float)
    T = float(orbit.reeb_period)
    traj, mats = integrate_flow(p, z0, T, with_variational=True,
                                n_samples=n_samples)
    gap = np.linalg.norm(traj.states[-1] - z0)
    if gap > ORBIT_CLOSE_TOL:
        raise NotClosed(f"orbit does not close up (gap {gap:g})")

    if frame_kind == "rho_orbit_frame":
        e0 = rho_frame_basis(p, z0)
        v = mats @ e0  # (n, 4, 2), columns stay in the contact plane
        phi = v[:, 2:4, :]
    elif frame_kind == "global_frame":
        xbar1, xbar2 = frame_sections(p, traj.states)
        e0 = np.stack([xbar1[0], xbar2[0]], axis=-1)
        v = mats @ e0
        _, _, reeb = vector_fields(p, traj.states)
        lam = lambda0(traj.states[:, None, :], np.moveaxis(v, -1, 1))
        v = v - reeb[:, :, None] * lam[:, None, :]
        cols = np.moveaxis(v, -1, 1)  # (n, 2, 4)
        coords = frame_coords(xbar1[:, None, :], xbar2[:, None, :], cols)
        phi = np.swapaxes(coords, 1, 2)  # (n, 2, 2): rows coords, cols inputs
    else:
        raise ValueError("frame_kind must be 'rho_orbit_frame' or "
                         f"'global_frame', got {frame_kind!r}")

    phi = np.array(phi)
    phi[0] = np.eye(2)
    path = SymplecticPath(tau=traj.t / T, mats=phi, period=T)
    defect = path.det_defect()
    if defect > 1e-7:
        raise DegenerateFrame(f"path symplecticity defect {defect:g} exceeds tolerance")
    return path
