"""Deterministic SVG emission for reports and figures.

Output is byte-stable: fixed viewBox, fixed styles, fixed float formatting,
elements emitted in sorted construction order, and no timestamps.  Level
curves of the planar factor are the loops of orbits.level_loops, built from
closed-form arcs and sampled at equal time steps of the planar Hamiltonian
flow, which keeps the polylines smooth and compact.
"""

from __future__ import annotations

import numpy as np

from . import knots, leaves, orbits
from .model import HamiltonianParams

VIEW = 800.0

PALETTE = {
    "level": "#9db4c8",
    "separatrix": "#c03028",
    "binding": "#1a1a1a",
    "P1": "#8860c0",
    "P2": "#c03028",
    "P3": "#2868b0",
    "disk_to_P2": "#d08030",
    "cyl_P2_P1": "#30a060",
    "cyl_P3_P1": "#2868b0",
    "plane_to_P3": "#8860c0",
    "axis": "#404040",
    "text": "#202020",
}


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class SvgCanvas:
    """Minimal deterministic SVG writer on a fixed 800 x 800 view box."""

    def __init__(self, world_box, title: str = ""):
        self.x0, self.x1, self.y0, self.y1 = world_box
        self.parts = []
        self.title = title

    def _map(self, x, y):
        sx = (x - self.x0) / (self.x1 - self.x0) * VIEW
        sy = VIEW - (y - self.y0) / (self.y1 - self.y0) * VIEW
        return sx, sy

    def polyline(self, pts, color, width=1.2, dash=None):
        """Polyline through the rows (x, y) of the array pts, mapped as a
        whole by _map and formatted from plain floats."""
        pts = np.asarray(pts, float)
        if len(pts) < 2:
            return
        sx, sy = self._map(pts[:, 0], pts[:, 1])
        # one format call for all points; % and f"{x:.3f}" print alike
        coords = ("%.3f,%.3f " * len(pts))[:-1] % tuple(
            np.column_stack((sx, sy)).ravel().tolist())
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}"'
            f' stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def circle(self, x, y, r_px, color, fill=True):
        sx, sy = self._map(x, y)
        f = color if fill else "none"
        self.parts.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(r_px)}"'
            f' fill="{f}" stroke="{color}" stroke-width="1.0"/>'
        )

    def text(self, x, y, s, color=PALETTE["text"], size=14, screen=False):
        if screen:
            sx, sy = x, y
        else:
            sx, sy = self._map(x, y)
        self.parts.append(
            f'<text x="{_fmt(sx)}" y="{_fmt(sy)}" fill="{color}"'
            f' font-size="{size}" font-family="monospace">{s}</text>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">\n'
            f'<rect width="{VIEW:.0f}" height="{VIEW:.0f}" fill="#ffffff"/>\n'
        )
        title = (
            f'<text x="20" y="28" fill="{PALETTE["text"]}" font-size="18"'
            f' font-family="monospace">{self.title}</text>\n'
            if self.title
            else ""
        )
        return head + title + "\n".join(self.parts) + "\n</svg>\n"


def level_curves(p: HamiltonianParams) -> list:
    """Closed polylines of the planar level sets drawn in the figures, one
    per component, level by level."""
    vals = sorted(cp.h2_value for cp in orbits.structure_of(p).axis_points)
    lo, hi = vals[0], vals[-1]
    # each distinct level once, and none on an axis critical value: that
    # level is the separatrix's, whose arcs meet at the saddle and close no
    # loop (where the top critical value is 0 the four levels scaled from it
    # are all 0); all levels' arcs in one batch, as the scan takes them
    levels = [level for level in dict.fromkeys(
        (0.75 * lo, 0.45 * lo, 0.2 * lo, 0.5 * hi, 0.95 * hi, 3.0 * hi,
         10.0 * hi, 0.25))
        if all(abs(level - v) > 1e-12 * max(1.0, abs(v)) for v in vals)]
    return [orbits.loop_samples(p, loop, 512)
            for loops in orbits.level_loops(p, levels) for loop in loops]


def plot_levels(p: HamiltonianParams, curves, separatrix) -> str:
    """Level curves of the planar factor with the critical points.

    `curves` comes from level_curves and `separatrix` from
    orbits.separatrix_and_homoclinics; an invalid structure has no
    separatrix traced, and passes None to draw none.
    """
    e = p.epsilon
    box = (-1.2 * e * 3, 1.2 * e * 3.4, -1.8 * e * 2, 1.8 * e * 2)
    cv = SvgCanvas(box, title=f"planar energy levels (eps={p.epsilon:g}, "
                              f"preset={p.preset_name})")
    cv.polyline([(box[0], 0.0), (box[1], 0.0)], PALETTE["axis"], 0.6)
    cv.polyline([(0.0, box[2]), (0.0, box[3])], PALETTE["axis"], 0.6)
    for loop in curves:
        cv.polyline(np.vstack([loop, loop[:1]]), PALETTE["level"], 1.0)
    if separatrix is not None:
        for br in separatrix[0]:
            cv.polyline(br.samples, PALETTE["separatrix"], 1.6)
    for cp in orbits.structure_of(p).points:
        cv.circle(cp.location[0], cp.location[1], 4.0, PALETTE["binding"])
        cv.text(cp.location[0] + 0.02, cp.location[1] + 0.05,
                cp.hessian_signature, size=12)
    return cv.render()


def plot_separatrix(p: HamiltonianParams, separatrix) -> str:
    """Both separatrix branches, their axis crossings and the planar shadow
    of the homoclinic, from orbits.separatrix_and_homoclinics."""
    (g1, g2), traj, report = separatrix
    e = p.epsilon
    box = (-1.0 * e, 3.0 * e, -1.4 * e, 1.4 * e)
    cv = SvgCanvas(box, title="separatrix branches and homoclinic shadow")
    cv.polyline([(box[0], 0.0), (box[1], 0.0)], PALETTE["axis"], 0.6)
    cv.polyline(g1.samples, PALETTE["P1"], 1.6)
    cv.polyline(g2.samples, PALETTE["separatrix"], 1.6)
    cv.polyline(traj.states[:, 2:4], PALETTE["P3"], 0.8, dash="4,3")
    cv.circle(0.0, 0.0, 4.0, PALETTE["binding"])
    for x in g1.axis_crossings:
        cv.circle(float(x), 0.0, 3.0, PALETTE["P1"], fill=False)
    for x in g2.axis_crossings:
        cv.circle(float(x), 0.0, 3.0, PALETTE["separatrix"], fill=False)
    cv.text(box[0] + 0.05, box[3] - 0.1,
            f"end distances {report['end_distance_forward']:.2e} / "
            f"{report['end_distance_backward']:.2e}", size=12)
    return cv.render()


def plot_atlas(p: HamiltonianParams, profiles, separatrix, trio,
               curves) -> str:
    """Projection of the explicit foliation onto the planar factor: level
    curves, binding points, the four axis profiles and the separatrix
    shadow of the off-axis cylinders.  `profiles` maps each interval of
    leaves.INTERVALS to its leaves.integrate_profile, `separatrix` comes
    from orbits.separatrix_and_homoclinics, `trio` from
    orbits.special_orbits and `curves` from level_curves."""
    xp, xm = leaves.solve_xbar(p)
    e = p.epsilon
    box = (xm - 0.4 * e, xp + 0.4 * e, -1.6 * e, 1.6 * e)
    cv = SvgCanvas(box, title="explicit foliation atlas (axis shadows)")
    for loop in curves:
        cv.polyline(loop, PALETTE["level"], 0.8)
    for br in separatrix[0]:
        cv.polyline(br.samples, PALETTE["separatrix"], 1.4, dash="6,4")
    y_off = {"disk_to_P2": -0.05, "cyl_P2_P1": 0.05,
             "cyl_P3_P1": 0.05, "plane_to_P3": -0.05}
    for iid in leaves.INTERVALS:
        g = profiles[iid].g[:: max(1, len(profiles[iid].g) // 128)]
        cv.polyline(np.column_stack([g, np.full_like(g, y_off[iid] * e)]),
                    PALETTE[iid], 3.0)
    for orb in trio:
        cv.circle(orb.z2_datum[0], orb.z2_datum[1], 5.0, PALETTE[orb.label])
        cv.text(orb.z2_datum[0] + 0.02, orb.z2_datum[1] + 0.09, orb.label,
                size=13)
    ly = 56
    for iid in leaves.INTERVALS:
        cv.text(30, ly, f"{iid}: {leaves.LEAF_ROLES[iid]}",
                color=PALETTE[iid], size=12, screen=True)
        ly += 16
    cv.text(30, ly, "dashed: conjectural shadow of the off-axis cylinders",
            color=PALETTE["separatrix"], size=12, screen=True)
    return cv.render()


def plot_orbit_projection(p: HamiltonianParams, seed: int = 0) -> str:
    """Stereographic images of the binding orbits, projected to the first
    two coordinates of the chart."""
    trio = orbits.special_orbits(p)
    curves = [knots.orbit_curve(o, 512) for o in trio]
    _, projected = knots.stereographic_project(curves, seed=seed)
    pts = np.vstack(projected)
    lim = float(np.max(np.abs(pts[:, :2]))) * 1.15
    cv = SvgCanvas((-lim, lim, -lim, lim),
                   title="binding orbits, stereographic projection")
    for orb, proj in zip(trio, projected):
        cv.polyline(np.vstack([proj[:, :2], proj[:1, :2]]),
                    PALETTE[orb.label], 1.6)
    for orb, proj in zip(trio, projected):
        cv.text(proj[0][0], proj[0][1], orb.label, color=PALETTE[orb.label],
                size=13)
    return cv.render()
