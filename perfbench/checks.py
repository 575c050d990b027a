"""Output checks of the benchmark.

Every check compares a program output with a closed form, with LAPACK, or
with a property the method must have; none compares with a stored copy of
an earlier output.  Each returns a list of problems, empty when the output
passes.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

LEAVES = ("disk_to_P2", "cyl_P2_P1", "cyl_P3_P1", "plane_to_P3")
INDEX = {"P1": 1, "P2": 2, "P3": 3}
# Relative eigenvalue tolerance, against ||A||_F.  The Jacobi solver stops
# at an off-diagonal norm of 1e-12 ||A||_F, which by Weyl's inequality
# bounds the eigenvalue error; the rest is rounding in the rotations.
EIG_RTOL = 1e-10


def periods(eps: float):
    """Closed-form Reeb periods (T1, T2, T3) of the binding orbits P1, P2, P3:
    pi (1 - 2 H2) at the three axis critical points of the planar factor."""
    e4 = eps**4
    return (math.pi * (1.0 - 7.0 * e4 / 48.0), math.pi,
            math.pi * (1.0 + 8.0 * e4 / 3.0))


def axis_crossings(eps: float):
    """Closed-form first positive axis crossings of the two separatrix
    branches: the nonzero roots of H2(x, 0) = 0, x = (5 -+ sqrt 7) eps / 3."""
    return ((5.0 - math.sqrt(7.0)) * eps / 3.0,
            (5.0 + math.sqrt(7.0)) * eps / 3.0)


def closed_form_spectrum(s1: float, s2: float, n_nodes: int) -> np.ndarray:
    """Eigenvalues of the discretized operator for constant S = diag(s1, s2):
    mode n of the fourth-order periodic stencil has the symbol
    w_n = (8 sin t - sin 2t) / (6h), t = 2 pi n h, and the two eigenvalues
    -(s1 + s2)/2 +- sqrt((s1 - s2)^2 / 4 + w_n^2)."""
    h = 1.0 / n_nodes
    theta = 2.0 * np.pi * np.arange(n_nodes) * h
    w = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)
    mid = -(s1 + s2) / 2.0
    rad = np.sqrt((s1 - s2) ** 2 / 4.0 + w * w)
    return np.sort(np.concatenate([mid + rad, mid - rad]))


def _near(problems, what, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, expected {want!r} within {tol:g}")


def check_validate(report: dict, eps: float) -> list:
    """The `validate` report: periods, index triple, linking, scan, leaves."""
    problems = []
    try:
        items = report["items"]
        t1, t2, t3 = periods(eps)
        chain = items["period_chain"]["evidence"]
        for key, want in zip(("T1", "T2", "T3"), (t1, t2, t3)):
            _near(problems, key, chain[key], want, 1e-9)

        index = items["index_pattern"]["evidence"]
        for label, want in INDEX.items():
            got = tuple(index[label][m] for m in ("numeric", "analytic", "spectral"))
            if got != (want,) * 3:
                problems.append(f"mu({label}) by numeric/analytic/spectral = {got}, "
                                f"expected {want} by all three")

        linking = items["linking"]["evidence"]
        pairs = linking["pairwise"]
        if sorted(pairs) != ["P1-P2", "P1-P3", "P2-P3"]:
            problems.append(f"linking pairs {sorted(pairs)}")
        for pair, ev in sorted(pairs.items()):
            if ev["lk"] != 0 or not abs(ev["raw"]) < 0.05:
                problems.append(f"lk({pair}) = {ev['lk']} (raw {ev['raw']!r}), "
                                f"expected 0 with |raw| < 0.05")
        for label in INDEX:
            if linking["self_linking"][label] != -1:
                problems.append(f"sl({label}) = {linking['self_linking'][label]}, "
                                f"expected -1")

        scan = items["scan_empty"]["evidence"]
        if scan["n_candidates"] != 0:
            problems.append(f"resonance scan found {scan['n_candidates']} candidates")
        low = scan["min_excluded_action"]
        if low is None or not low > t3:
            problems.append(f"smallest excluded action {low!r} is not above T3 = {t3!r}")

        leaf = items["leaf_existence"]["evidence"]
        _near(problems, "Hofer energy of plane_to_P3",
              leaf["plane_to_P3"]["hofer_energy"], t3, 1e-6)
        _near(problems, "negative-end mass of cyl_P3_P1",
              leaf["cyl_P3_P1"]["mass_neg_end"], t1, 1e-6)

        want_summary = {k: "pass" for k in
                        ("index_pattern", "leaf_existence", "linking",
                         "period_chain", "scan_empty")}
        want_summary["sphere_obstruction"] = "not-checkable"
        if report["summary"] != want_summary:
            problems.append(f"verdict {report['summary']}")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks {exc!r}")
    return problems


def check_spectrum(eigenvalues, lapack, norm_f: float, mu: int, want_mu: int,
                   windings, audit_ok: bool, s_const=None, n_nodes: int = 0) -> list:
    """One spectral index computation.

    `eigenvalues` are all eigenvalues the program found, `lapack` those of
    `np.linalg.eigvalsh` on the same assembled matrix of Frobenius norm
    `norm_f`.  For a constant coefficient `s_const` they are also compared
    with the closed form on `n_nodes` nodes.  The trusted band's windings
    must be monotone in the eigenvalue, with each interior value taken
    exactly twice.
    """
    problems = []
    tol = EIG_RTOL * norm_f
    got = np.sort(np.asarray(eigenvalues, float))
    refs = [("np.linalg.eigvalsh", np.sort(np.asarray(lapack, float)))]
    if s_const is not None:
        s = np.asarray(s_const, float)
        if abs(s[0, 1]) > 0 or abs(s[1, 0]) > 0:
            problems.append(f"constant S is not diagonal: {s.tolist()}")
        refs.append(("the closed form", closed_form_spectrum(s[0, 0], s[1, 1], n_nodes)))
    for what, ref in refs:
        if ref.shape != got.shape:
            problems.append(f"{got.size} eigenvalues, {what} has {ref.size}")
            continue
        err = float(np.max(np.abs(got - ref)))
        if not err <= tol:
            problems.append(f"eigenvalues differ from {what} by {err:.3g} > {tol:.3g}")
    if mu != want_mu:
        problems.append(f"mu = {mu}, expected {want_mu}")
    w = np.asarray(windings, int)
    if np.any(np.diff(w) < 0):
        problems.append("windings are not monotone in the eigenvalue")
    for k in range(int(w.min()) + 1, int(w.max())):
        if int(np.sum(w == k)) != 2:
            problems.append(f"winding {k} occurs {int(np.sum(w == k))} times, not twice")
    if not audit_ok:
        problems.append("spectrum_property_audit reports violations")
    return problems


def check_homoclinic(payload: dict, eps: float) -> list:
    """`homoclinic.json`: both legs end near P2 and the separatrix branches
    cross the axis where the closed form puts them."""
    problems = []
    try:
        conv = payload["convergence"]
        for key in ("end_distance_forward", "end_distance_backward"):
            if not conv[key] <= 1e-4:
                problems.append(f"{key} = {conv[key]!r} > 1e-4")
        inner, outer = axis_crossings(eps)
        _near(problems, "first axis crossing of gamma1",
              payload["gamma1_axis_crossings"][0], inner, 1e-8)
        _near(problems, "first axis crossing of gamma2",
              payload["gamma2_axis_crossings"][0], outer, 1e-8)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"homoclinic report lacks {exc!r}")
    return problems


def check_atlas(payload: dict) -> list:
    """`atlas.json`: all four leaves wind once at their positive end and
    meet it in a strong section."""
    problems = []
    try:
        found = payload["leaves"]
        if sorted(found) != sorted(LEAVES):
            problems.append(f"atlas leaves {sorted(found)}")
        for iid in LEAVES:
            leaf = found[iid]
            if leaf["wind_infty_pos"] != 1:
                problems.append(f"{iid} asymptotic winding {leaf['wind_infty_pos']}, expected 1")
            if leaf["strong_section_sign"] not in ("+", "-"):
                problems.append(f"{iid} section verdict {leaf['strong_section_sign']!r} "
                                f"is not strong")
    except (KeyError, TypeError) as exc:
        problems.append(f"atlas report lacks {exc!r}")
    return problems


def check_svg(data: bytes) -> list:
    """An SVG file parses as XML with an <svg> root."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"root element is <{root.tag}>, not <svg>"]
    return []


def check_same_bytes(first: bytes, now: bytes) -> list:
    """A report is byte-identical to the one the first pass of the run wrote."""
    if first == now:
        return []
    return [f"differs from the first pass ({len(now)} bytes, first {len(first)})"]
