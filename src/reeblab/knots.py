"""Linking and self-linking numbers of closed curves on the energy surface.

Curves are radially normalized to the unit 3-sphere (the surface is
star-shaped, so this is an ambient isotopy and preserves linking), sent to
R^3 by stereographic projection from a pole kept clear of all curves, and
paired by the signed crossings of the link diagram seen along z,

    lk = 1/2 sum_c eps(c)     (Rolfsen, Knots and Links, 1976, 5.D),

an integer by construction.  The Gauss linking integral

    lk = (1 / 4 pi) oint oint  (r1 - r2) . (dr1 x dr2) / |r1 - r2|^3

stays as a quadrature oracle (gauss_linking_r3).

Self-linking of a transverse unknot is the linking number with its push-off
along a global section of the contact plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSafePole, OffsetTooLarge, VanishingSection
from . import model
from .model import HamiltonianParams
from .orbits import ReebOrbit


@dataclass
class ClosedCurve:
    """Cyclic samples (endpoint omitted) of a closed curve in R^4."""

    samples: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 4:
            raise ValueError("samples must have shape (n, 4), got "
                             f"{self.samples.shape}")

    @property
    def n(self) -> int:
        return len(self.samples)

    def oriented(self) -> np.ndarray:
        return self.samples if self.orientation >= 0 else self.samples[::-1]

    def reversed(self) -> "ClosedCurve":
        return ClosedCurve(self.samples, -self.orientation)

    def max_gap(self) -> float:
        pts = self.samples
        diffs = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=-1)
        return float(np.max(diffs))


def orbit_curve(orbit: ReebOrbit, n: int = 1024) -> ClosedCurve:
    return ClosedCurve(orbit.curve(n))


def _unit_sphere(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=-1, keepdims=True)


def stereographic_project(curves, seed: int = 0, pole_tol: float = 5e-2):
    """Project curves to R^3 from a pole on the unit sphere chosen (from 64
    seeded random candidates) to maximize the clearance to all curves.

    Returns (pole, [projected point arrays]).  Raises NoSafePole if the
    best clearance is below pole_tol.
    """
    normalized = [_unit_sphere(c.oriented()) for c in curves]
    cloud = np.vstack(normalized)
    rng = np.random.default_rng(seed)
    cands = rng.standard_normal((64, 4))
    cands = _unit_sphere(cands)
    # both are unit vectors, so |x - c|^2 = 2 - 2 x.c: the nearest point of
    # the cloud to a candidate is the one of largest inner product
    nearest = np.max(cloud @ cands.T, axis=0)
    clearance = np.sqrt(np.maximum(2.0 - 2.0 * nearest, 0.0))
    best = int(np.argmax(clearance))
    if clearance[best] < pole_tol:
        raise NoSafePole(f"best pole clearance {clearance[best]:g}")
    pole = cands[best]
    # orthonormal basis of the pole's orthogonal complement; (pole, basis)
    # is made negatively oriented in R^4 so the projection carries the
    # boundary orientation of the sphere to the standard one on R^3
    basis = np.linalg.svd(pole[None, :])[2][1:].copy()
    if np.linalg.det(np.vstack([pole[None, :], basis])) > 0:
        basis[2] = -basis[2]
    projected = []
    for pts in normalized:
        denom = (1.0 - pts @ pole)[:, None]
        projected.append((pts @ basis.T) / denom)
    return pole, projected


# rows of the first curve paired with all of the second at once: each block
# holds a few (LINK_BLOCK_ROWS, n) float arrays, so memory is O(block * n)
LINK_BLOCK_ROWS = 128


def gauss_linking_r3(c1: np.ndarray, c2: np.ndarray):
    """Raw Gauss double quadrature for two disjoint closed polylines in R^3
    (uniform parameter, endpoint omitted, centered-difference tangents).

    The quadrature oracle for the crossing count of gauss_linking: no
    command calls it.  Summed over blocks of LINK_BLOCK_ROWS rows of c1.
    The triple product (c1_i - c2_j) . (t1_i x t2_j) is split as
    (c1_i x t1_i) . t2_j - t1_i . (t2_j x c2_j), two matrix products; the
    squared distance comes from the explicit coordinate differences, so near
    pairs lose no digits to cancellation.
    """
    t1 = 0.5 * (np.roll(c1, -1, axis=0) - np.roll(c1, 1, axis=0))
    t2 = 0.5 * (np.roll(c2, -1, axis=0) - np.roll(c2, 1, axis=0))
    a = np.cross(c1, t1)
    b = np.cross(t2, c2)
    c2_coords = np.ascontiguousarray(c2.T)
    total = 0.0
    for lo in range(0, len(c1), LINK_BLOCK_ROWS):
        rows = slice(lo, lo + LINK_BLOCK_ROWS)
        r2 = sum((c1[rows, k, None] - c2_coords[k]) ** 2 for k in range(3))
        # the distance floor 1e-9, as a floor on its square
        np.maximum(r2, 1e-18, out=r2)
        r2 *= np.sqrt(r2)
        num = a[rows] @ t2.T
        num -= t1[rows] @ b.T
        num /= r2
        total += float(np.sum(num))
    return total / (4.0 * np.pi)


# smallest height gap between the two strands at a diagram crossing, as the
# push-off's clearance floor: below it the diagram is not trusted to be
# generic
CROSSING_GAP_FLOOR = 1e-6


def _signed_crossings(c1: np.ndarray, c2: np.ndarray):
    """Signed crossings of two closed polygons in R^3 seen along z.

    Returns (above, below, gap): the sums of sign((d1 x d2)_z) over the
    crossings where c1 lies above c2 and where it lies below, and the
    smallest height gap |z1 - z2| at a crossing (inf if there is none).
    Candidate segment pairs are those whose (x, y) midpoints lie within half
    the sum of the two longest projected segments; each is tested exactly,
    with both segment parameters in [0, 1), so a crossing at a vertex counts
    once.
    """
    from scipy.spatial import cKDTree

    d1 = np.roll(c1, -1, axis=0) - c1
    d2 = np.roll(c2, -1, axis=0) - c2
    mid1 = c1[:, :2] + 0.5 * d1[:, :2]
    mid2 = c2[:, :2] + 0.5 * d2[:, :2]
    radius = 0.5 * (np.max(np.hypot(d1[:, 0], d1[:, 1]))
                    + np.max(np.hypot(d2[:, 0], d2[:, 1])))
    pairs = cKDTree(mid1).sparse_distance_matrix(
        cKDTree(mid2), radius, output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    r, q, w = d1[i], d2[j], c2[j] - c1[i]
    den = r[:, 0] * q[:, 1] - r[:, 1] * q[:, 0]
    # parallel segments (den = 0) give nan or inf and fail the test below
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (w[:, 0] * q[:, 1] - w[:, 1] * q[:, 0]) / den
        t = (w[:, 0] * r[:, 1] - w[:, 1] * r[:, 0]) / den
    hit = (s >= 0.0) & (s < 1.0) & (t >= 0.0) & (t < 1.0)
    i, j, s, t = i[hit], j[hit], s[hit], t[hit]
    height = (c1[i, 2] + s * d1[i, 2]) - (c2[j, 2] + t * d2[j, 2])
    sign = np.sign(den[hit]).astype(int)
    gap = float(np.min(np.abs(height))) if len(height) else np.inf
    return int(np.sum(sign[height > 0])), int(np.sum(sign[height < 0])), gap


def gauss_linking(c1: ClosedCurve, c2: ClosedCurve, seed: int = 0):
    """Linking number of two disjoint closed curves on the surface, from the
    signed crossings of their stereographic images seen along z.

    The crossings where c1 lies above sum to lk, and those where it lies
    below to -lk.  Returns (raw, lk), raw being half the difference of the
    two sums, as a float.  Raises NoSafePole when the two sums disagree or a
    crossing's height gap is at most CROSSING_GAP_FLOOR: the diagram from
    this seed's pole is not generic enough to count.
    """
    _, (p1, p2) = stereographic_project([c1, c2], seed=seed)
    above, below, gap = _signed_crossings(p1, p2)
    if above != -below or gap <= CROSSING_GAP_FLOOR:
        raise NoSafePole(
            f"diagram from seed {seed} not generic: crossings above sum to "
            f"{above}, below to {below}, smallest height gap {gap:g} "
            f"(floor {CROSSING_GAP_FLOOR:g})")
    return 0.5 * (above - below), above


def pushoff(p: HamiltonianParams, curve: ClosedCurve, section: np.ndarray,
            offset: float = 1e-2) -> ClosedCurve:
    """Displace a curve by offset along a nonvanishing contact section and
    re-project onto the energy surface; raises OffsetTooLarge if the result
    comes within 1e-6 of the curve."""
    from scipy.spatial import cKDTree

    section = np.asarray(section, float)
    norms = np.linalg.norm(section, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise VanishingSection("push-off section vanishes at a node "
                               f"(|section| = {np.min(norms):g})")
    pushed = curve.samples + offset * section / norms
    pushed = model.surface_project(p, pushed)
    clearance = float(np.min(cKDTree(curve.samples).query(pushed)[0]))
    if clearance < 1e-6:
        raise OffsetTooLarge(
            f"pushed curve within {clearance:g} of the original")
    return ClosedCurve(pushed, curve.orientation)


def self_linking(p: HamiltonianParams, orbit: ReebOrbit, seed: int = 0):
    """Self-linking number: the linking number of the orbit with its
    push-off along the first global contact-frame section.  Returns (raw,
    lk) as gauss_linking does."""
    curve = orbit_curve(orbit)
    xbar1, _ = model.frame_sections(p, curve.samples)
    pushed = pushoff(p, curve, xbar1)
    return gauss_linking(curve, pushed, seed=seed)


def hopf_circles(n: int = 1024):
    """The standard pair of linked great circles (control case)."""
    ang = 2.0 * np.pi * np.arange(n) / n
    c1 = np.stack([np.cos(ang), np.sin(ang), 0 * ang, 0 * ang], axis=-1)
    c2 = np.stack([0 * ang, 0 * ang, np.cos(ang), np.sin(ang)], axis=-1)
    return ClosedCurve(c1), ClosedCurve(c2)
