"""Conley-Zehnder indices of symplectic paths on the contact plane.

The index of a nondegenerate closed orbit is read off the winding interval
of its linearized-flow path: directions of the plane wind by Delta(z) over
one period, the set of windings is a compact interval shorter than 1/2, and
the index is 2k when the interval contains the integer k and 2k+1 when it
lies in (k, k+1).  Values computed in an orbit-adapted frame transfer to the
global trivialization through twice the relative winding of the frames.

Also here: the closed-form transverse linearization over each binding orbit
(an exact matrix-exponential oracle), iteration of paths by the group law,
and the invariant-manifold quadrant classifier for sections along the
hyperbolic orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateOrbit,
    NotHyperbolic,
    RoundingUnsafe,
    SamplingTooCoarse,
    VanishingSection,
)
from . import model
from .model import SymplecticPath
from .orbits import ReebOrbit

# Smallest |d(lambda)(eta, L_R eta)| / |eta|^2 that counts as a strict sign
# of the Lie pairing, for the quadrant classifier and the leaf-end check.
PAIRING_TOL = 1e-6


@dataclass
class WindingInterval:
    lo: float
    hi: float
    contains_integer: bool
    degenerate_margin: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass
class CZResult:
    mu_local: int
    frame_correction: int
    mu_global: int
    method: str


# ---------------------------------------------------------------------------
# winding numbers


def _direction_turns(path: SymplecticPath, dirs: np.ndarray) -> np.ndarray:
    """Windings (n_dirs,) of Phi(t) applied to unit directions, in turns.
    A step of pi/2 or more leaves them ambiguous: a generator path is then
    refined once, exactly, to 4 (n - 1) + 1 nodes, and any other path, or a
    refined one still that coarse, raises SamplingTooCoarse."""
    for refined in (False, True):
        turns, step = model.winding_turns(
            np.einsum("nij,dj->nid", path.mats, dirs))
        if np.max(step) < 0.5 * np.pi:
            return turns
        if refined or path.constant_generator is None:
            break
        path = SymplecticPath.from_generator(
            path.constant_generator, path.period, 4 * (path.n_nodes - 1) + 1)
    why = ("even after refinement" if refined else
           "on a path with no constant generator to refine it by")
    raise SamplingTooCoarse(
        f"angle increments up to {np.max(step):.3g} exceed pi/2 {why}")


def winding_number(path: SymplecticPath, z0) -> float:
    """Winding Delta(z0) of the path applied to one direction, in turns."""
    if path.n_nodes < 64:
        raise ValueError(f"path must carry at least 64 nodes, got {path.n_nodes}")
    z0 = np.asarray(z0, float)
    z0 = z0 / np.linalg.norm(z0)
    return float(_direction_turns(path, z0[None, :])[0])


def _winding_of_direction_angle(path: SymplecticPath, phis) -> np.ndarray:
    phis = np.atleast_1d(np.asarray(phis, float))
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    return _direction_turns(path, dirs)


def winding_interval(path: SymplecticPath) -> WindingInterval:
    """Winding interval over 256 directions of a half circle, each endpoint
    sharpened by scipy's bounded scalar minimiser on the two sample
    spacings around the sampled extreme.

    Raises DegenerateOrbit when an endpoint sits within 1e-6 of an integer
    (the path's end map has 1 in its spectrum).
    """
    from scipy.optimize import minimize_scalar

    n = 256
    phis = np.arange(n) / n * np.pi
    deltas = _winding_of_direction_angle(path, phis)
    h = np.pi / n

    def extreme(sign, i):
        # the winding is quadratic near its extreme, so an angle tolerance
        # of 1e-8 puts the endpoint within rounding of the true extreme
        res = minimize_scalar(
            lambda phi: sign * float(_winding_of_direction_angle(path, phi)[0]),
            bounds=(phis[i] - h, phis[i] + h), method="bounded",
            options={"xatol": 1e-8})
        return sign * float(res.fun)

    lo = min(extreme(1.0, int(np.argmin(deltas))), float(np.min(deltas)))
    hi = max(extreme(-1.0, int(np.argmax(deltas))), float(np.max(deltas)))
    margin = float(min(np.abs(lo - np.round(lo)), np.abs(hi - np.round(hi))))
    contains = bool(np.floor(hi) >= np.ceil(lo))
    if margin < 1e-6:
        raise DegenerateOrbit(
            f"winding interval endpoint within {margin:g} of an integer")
    return WindingInterval(lo=lo, hi=hi, contains_integer=contains,
                           degenerate_margin=margin)


def cz_index(path: SymplecticPath, frame_correction: int,
             method: str = "winding_interval") -> CZResult:
    """Index from the winding interval plus the trivialization correction."""
    interval = winding_interval(path)
    if interval.length >= 0.5:
        raise DegenerateOrbit(
            f"winding interval length {interval.length:g} >= 1/2")
    if interval.contains_integer:
        k = int(np.ceil(interval.lo))
        mu_local = 2 * k
    else:
        k = int(np.floor(interval.lo))
        mu_local = 2 * k + 1
    return CZResult(mu_local=mu_local, frame_correction=frame_correction,
                    mu_global=mu_local + 2 * frame_correction, method=method)


# ---------------------------------------------------------------------------
# trivialization change


def trivialization_winding(orbit: ReebOrbit, frame_a: np.ndarray,
                           frame_b: np.ndarray) -> int:
    """Integer winding of the first vector of frame_a expressed in frame_b
    along the orbit; both frames are (n, 4, 2) bases of the contact plane
    at the same nodes.  Raises RoundingUnsafe if the angle sum is farther
    than 0.1 turns from an integer.
    """
    ab = model.frame_coords(frame_b[:, :, 0], frame_b[:, :, 1],
                            frame_a[:, :, 0])
    total, _ = model.winding_turns(ab)
    wind = int(np.round(total))
    if abs(total - wind) >= 0.1:
        raise RoundingUnsafe(f"frame winding {total:g} not close to integer")
    return wind


def special_orbit_frames(p, orbit: ReebOrbit, n: int = 256):
    """(rho frame, global frame) sampled along a special orbit, including
    the closing node; shapes (n+1, 4, 2)."""
    ts = np.arange(n + 1) / n * orbit.reeb_period
    pts = orbit.point(ts)
    rho = model.rho_frame_basis(p, pts)
    xb1, xb2 = model.frame_sections(p, pts)
    glob = np.stack([xb1, xb2], axis=-1)
    return rho, glob


def frame_correction_for(p, orbit: ReebOrbit) -> int:
    """Winding of the orbit-adapted frame against the global frame; this is
    the correction added (twice) to frame-local indices."""
    rho, glob = special_orbit_frames(p, orbit)
    return trivialization_winding(orbit, rho, glob)


# ---------------------------------------------------------------------------
# analytic oracle and iteration


def analytic_monodromy_oracle(p, which: str, n_samples: int = 256, *,
                              orbit: ReebOrbit) -> SymplecticPath:
    """Exact transverse path over the special orbit `orbit` from the
    constant linearization [[0, k1], [k2, 0]] scaled by the period; no
    integration, so neither `p` nor the label `which` is read."""
    gen = np.array([[0.0, orbit.k1], [orbit.k2, 0.0]])
    return SymplecticPath.from_generator(gen, orbit.reeb_period, n_samples)


def iterate_path(path: SymplecticPath, k: int) -> SymplecticPath:
    """k-fold iterate Phi_k(t + j/k) = Phi(t) Phi(1)^j: the path lifted
    over k periods."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k == 1:
        return path
    tau, mats = path.lift(np.arange(k * (path.n_nodes - 1) + 1))
    return SymplecticPath(tau=tau / k, mats=mats, period=k * path.period,
                          constant_generator=path.constant_generator)


def iterate_index(path: SymplecticPath, k: int, frame_correction: int,
                  method: str = "winding_interval") -> CZResult:
    """Index of the k-th iterate; the frame correction scales by k."""
    return cz_index(iterate_path(path, k), k * frame_correction,
                    method=method)


def rotation_path(turns: float, n_samples: int = 256,
                  period: float = 1.0) -> SymplecticPath:
    """Rigid rotation test path by `turns` full turns."""
    gen = 2.0 * np.pi * turns / period * np.array([[0.0, -1.0], [1.0, 0.0]])
    return SymplecticPath.from_generator(gen, period, n_samples)


# ---------------------------------------------------------------------------
# Lie pairing and quadrants


def lie_pairing(path: SymplecticPath, section: Callable, taus: np.ndarray,
                lie_step: float = 1e-5) -> np.ndarray:
    """d(lambda)(eta, L_R eta) at the given parameters.  The Lie derivative
    L_R eta(t) = d/ds [Phi(t) Phi(t+s)^{-1} eta(t+s)] / T at s=0 is a
    centered finite difference in s of the flow-pulled section.  The path
    must carry a constant generator A (path.value raises ValueError
    otherwise): Phi(t) Phi(t+s)^{-1} = exp(-s T A) = path.value(-s) exactly.

    `section` maps parameter arrays to frame coordinates (..., 2); the frame
    is symplectic, so the pairing is the 2x2 determinant.
    """
    taus = np.asarray(taus, float)
    d = lie_step
    eta0 = section(taus)

    def pulled(s):
        rel = path.value(-s)
        return np.einsum("ij,...j->...i", rel, section((taus + s) % 1.0))

    lie = (pulled(d) - pulled(-d)) / (2.0 * d * path.period)
    return eta0[..., 0] * lie[..., 1] - eta0[..., 1] * lie[..., 0]


def hyperbolic_eigenvectors(path: SymplecticPath):
    """(v_minus, v_plus, beta) of the end matrix; positive basis enforced.
    Raises NotHyperbolic unless the trace exceeds 2."""
    m = path.end_matrix()
    tr = m[0, 0] + m[1, 1]
    if not tr > 2.0:
        raise NotHyperbolic(f"end-matrix trace {tr:g} <= 2")
    disc = np.sqrt(tr * tr - 4.0)
    beta = 0.5 * (tr + disc)

    def eigvec(lam):
        c1 = np.array([m[0, 1], lam - m[0, 0]])
        c2 = np.array([lam - m[1, 1], m[1, 0]])
        v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
        return v / np.linalg.norm(v)

    v_minus = eigvec(beta)
    v_plus = eigvec(1.0 / beta)
    det = np.linalg.det(np.stack([v_minus, v_plus], axis=-1))
    if abs(det) < 1e-12:
        raise NotHyperbolic(f"eigenvectors are collinear (det {det:g})")
    if det < 0:
        v_plus = -v_plus
    res = np.linalg.norm(m @ v_minus - beta * v_minus) \
        + np.linalg.norm(m @ v_plus - v_plus / beta)
    if res > 1e-8 * max(beta, 1.0):
        raise NotHyperbolic(f"eigenvector residual {res:g}")
    return v_minus, v_plus, float(beta)


def classify_quadrant(vm: np.ndarray, vp: np.ndarray, w: np.ndarray):
    """Quadrant of w in the positively-ordered basis (v_minus, v_plus):
    I = (+,+), II = (-,+), III = (-,-), IV = (+,-); None within 1e-9
    (relative) of a boundary."""
    den = vm[..., 0] * vp[..., 1] - vm[..., 1] * vp[..., 0]
    a = (w[..., 0] * vp[..., 1] - w[..., 1] * vp[..., 0]) / den
    b = (vm[..., 0] * w[..., 1] - vm[..., 1] * w[..., 0]) / den
    scale = np.hypot(a, b)
    quads = np.full(np.shape(a), None, dtype=object)
    on_boundary = np.minimum(np.abs(a), np.abs(b)) < 1e-9 * scale
    quads[(a > 0) & (b > 0)] = "I"
    quads[(a < 0) & (b > 0)] = "II"
    quads[(a < 0) & (b < 0)] = "III"
    quads[(a > 0) & (b < 0)] = "IV"
    quads[on_boundary] = None
    return quads


def eigenframe_and_quadrants(p, orbit: ReebOrbit, section):
    """Classify a section of the contact plane along a hyperbolic orbit
    against the invariant-manifold quadrants.

    `section` is a callable of the unit parameter returning coordinates
    (..., 2) in the orbit-adapted frame, the frame of the exact transverse
    path.  Returns (quadrants, pairing_sign) at 256 nodes, where
    pairing_sign is '+', '-' or 'mixed' according to the sign of the Lie
    pairing at all nodes.
    """
    path = analytic_monodromy_oracle(p, orbit.label, orbit=orbit)
    v_minus0, v_plus0, _ = hyperbolic_eigenvectors(path)
    taus = np.arange(256) / 256
    mats = path.value(taus)
    vm = np.einsum("nij,j->ni", mats, v_minus0)
    vp = np.einsum("nij,j->ni", mats, v_plus0)
    vm /= np.linalg.norm(vm, axis=-1, keepdims=True)
    vp /= np.linalg.norm(vp, axis=-1, keepdims=True)
    w = np.asarray(section(taus), float)
    norms = np.linalg.norm(w, axis=-1)
    if np.any(norms < 1e-12):
        raise VanishingSection(
            f"section vanishes at a node (|section| = {np.min(norms):g})")
    quads = classify_quadrant(vm, vp, w)
    pairing = lie_pairing(path, section, taus)
    scaled = pairing / (norms**2)
    if np.all(scaled > PAIRING_TOL):
        sign = "+"
    elif np.all(scaled < -PAIRING_TOL):
        sign = "-"
    else:
        sign = "mixed"
    return quads, sign
