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
from .model import SymplecticPath, _expm_generator
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
    """Windings (n_dirs,) of Phi(t) applied to unit directions, in turns;
    raises SamplingTooCoarse if any per-step increment exceeds pi/2 after
    one refinement."""
    mats = path.mats
    for attempt in range(2):
        turns, step = model.winding_turns(np.einsum("nij,dj->nid", mats, dirs))
        if np.max(step) < 0.5 * np.pi:
            return turns
        if attempt == 0:
            mats = path.resampled(4 * (path.n_nodes - 1) + 1).mats
    raise SamplingTooCoarse(f"angle increments up to {np.max(step):.3g} exceed "
                            "pi/2 even after refinement")


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
    """Exact transverse path over the special orbit `orbit`, labelled
    `which`, from the constant linearization [[0, k1], [k2, 0]] scaled by
    the period; no integration, so `p` is not read."""
    gen = np.array([[0.0, orbit.k1], [orbit.k2, 0.0]])
    tau = np.linspace(0.0, 1.0, n_samples)
    mats = _expm_generator(gen, orbit.reeb_period * tau)
    mats[0] = np.eye(2)
    return SymplecticPath(tau=tau, mats=mats, frame_kind="rho_orbit_frame",
                          period=orbit.reeb_period, orbit=orbit,
                          constant_generator=gen, label=which)


def iterate_path(path: SymplecticPath, k: int) -> SymplecticPath:
    """k-fold iterate by the group law Phi_k(t + j/k) = Phi(t) Phi(1)^j,
    built by exact concatenation of the stored nodes."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k == 1:
        return path
    end = path.end_matrix()
    powers = [np.eye(2)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ end)
    taus = [path.tau / k]
    mats = [path.mats]
    n = path.n_nodes
    for j in range(1, k):
        taus.append((path.tau[1:] + j) / k)
        mats.append(path.mats[1:] @ powers[j])
    tau = np.concatenate(taus)
    m = np.concatenate(mats)
    m[0] = np.eye(2)
    gen = None
    if path.constant_generator is not None:
        gen = path.constant_generator
    return SymplecticPath(tau=tau, mats=m, frame_kind=path.frame_kind,
                          period=k * path.period, orbit=path.orbit,
                          constant_generator=gen,
                          label=f"{path.label}^{k}")


def iterate_index(path: SymplecticPath, k: int, frame_correction: int,
                  method: str = "winding_interval") -> CZResult:
    """Index of the k-th iterate; the frame correction scales by k."""
    return cz_index(iterate_path(path, k), k * frame_correction,
                    method=method)


def rotation_path(turns: float, n_samples: int = 256,
                  period: float = 1.0) -> SymplecticPath:
    """Rigid rotation test path by `turns` full turns."""
    tau = np.linspace(0.0, 1.0, n_samples)
    ang = 2.0 * np.pi * turns * tau
    mats = np.zeros((n_samples, 2, 2))
    mats[:, 0, 0] = np.cos(ang)
    mats[:, 0, 1] = -np.sin(ang)
    mats[:, 1, 0] = np.sin(ang)
    mats[:, 1, 1] = np.cos(ang)
    mats[0] = np.eye(2)
    gen = 2.0 * np.pi * turns / period * np.array([[0.0, -1.0], [1.0, 0.0]])
    return SymplecticPath(tau=tau, mats=mats, frame_kind="test",
                          period=period, constant_generator=gen,
                          label=f"rot({turns})")


# ---------------------------------------------------------------------------
# Lie pairing and quadrants


def lie_pairing(path: SymplecticPath, section: Callable, taus: np.ndarray,
                lie_step: float = 1e-5) -> np.ndarray:
    """d(lambda)(eta, L_R eta) at the given parameters, with the Lie
    derivative realized by a centered finite difference of the flow-pulled
    section: L_R eta(t) = d/ds [Phi(t) Phi(t+s)^{-1} eta(t+s)] / T at s=0.

    `section` maps parameter arrays to frame coordinates (..., 2); the frame
    is symplectic, so the pairing is the 2x2 determinant.
    """
    taus = np.asarray(taus, float)
    d = lie_step
    eta0 = section(taus)
    phi0 = path.value(taus % 1.0)

    def pulled(offs):
        tt = taus + offs
        eta = section(tt % 1.0)
        phi = _path_value_lifted(path, tt)
        rel = phi0 @ np.linalg.inv(phi)
        return np.einsum("...ij,...j->...i", rel, eta)

    lie = (pulled(d) - pulled(-d)) / (2.0 * d * path.period)
    return eta0[..., 0] * lie[..., 1] - eta0[..., 1] * lie[..., 0]


def _path_value_lifted(path: SymplecticPath, tau):
    """Path value extended beyond [0, 1] by Phi(t + j) = Phi(t) Phi(1)^j."""
    tau = np.asarray(tau, float)
    j = np.floor(tau).astype(int)
    frac = tau - j
    base = path.value(frac)
    end = path.end_matrix()
    out = np.array(base)
    # a set, not np.unique, which imports numpy.ma at first call
    for jj in set(j.tolist()):
        if jj == 0:
            continue
        powm = np.linalg.matrix_power(end, int(jj))
        sel = j == jj
        out[sel] = base[sel] @ powm
    return out


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


# ---------------------------------------------------------------------------
# all-method index computation


def cz_all_methods(p, orbit: ReebOrbit, iterate: int = 1):
    """Index of orbit^iterate by numeric path, analytic oracle (both on 256
    nodes) and spectral formula (128 grid nodes); returns dict of CZResult
    plus the agreement flag."""
    from . import spectrum as spectrum_mod

    fc = frame_correction_for(p, orbit)
    numeric = model.restrict_linearized_to_xi(p, orbit, "rho_orbit_frame")
    analytic = analytic_monodromy_oracle(p, orbit.label, orbit=orbit)
    res_num = iterate_index(numeric, iterate, fc, method="winding_interval")
    res_ana = iterate_index(analytic, iterate, fc, method="analytic_oracle")
    op = spectrum_mod.build_S(iterate_path(analytic, iterate))
    rep = spectrum_mod.discretize_and_solve(op, 128)
    res_spec = spectrum_mod.generalized_cz(rep, iterate * fc)
    agree = res_num.mu_global == res_ana.mu_global == res_spec.mu_global
    return {
        "numeric": res_num,
        "analytic": res_ana,
        "spectral": res_spec,
        "frame_correction": fc,
        "agree": bool(agree),
    }
