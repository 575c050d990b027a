"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything runs on the validated coefficient set at eps = 0.5; the
paper-figure coefficients enter only as the required negative diagnosis.
"""

import hashlib

import numpy as np

from reeblab import czindex, knots, leaves, model, orbits, spectrum, svgplot
from reeblab.cli import dumps, run_validate
from reeblab.config import RunConfig

EPS = 0.5


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_periods(trio):
    t1, t2, t3 = (o.reeb_period for o in trio)
    want = (np.pi * (1 - 7 * EPS**4 / 48), np.pi, np.pi * (1 + 8 * EPS**4 / 3))
    ok = (
        abs(t1 - want[0]) < 1e-9
        and abs(t2 - want[1]) < 1e-9
        and abs(t3 - want[2]) < 1e-9
        and t1 < t2 < t3 < 2 * t1
    )
    _report("1 periods and chain", ok,
            f"(T1,T2,T3)=({t1:.9f},{t2:.9f},{t3:.9f})")


def test_criterion_2_index_triple(params, trio, numeric_paths,
                                  analytic_paths, spectra_256):
    results = {}
    ok = True
    for orbit, want in zip(trio, (1, 2, 3)):
        label = orbit.label
        fc = czindex.frame_correction_for(params, orbit)
        mu_num = czindex.cz_index(numeric_paths[label], fc).mu_global
        mu_ana = czindex.cz_index(analytic_paths[label], fc).mu_global
        mu_spec = spectrum.generalized_cz(spectra_256[label][1], fc).mu_global
        results[label] = (mu_num, mu_ana, mu_spec)
        ok = ok and mu_num == mu_ana == mu_spec == want
    iterates = {}
    for k in range(1, 5):
        mu_num = czindex.iterate_index(numeric_paths["P2"], k, 1).mu_global
        mu_ana = czindex.iterate_index(analytic_paths["P2"], k, 1).mu_global
        op = spectrum.build_S(czindex.iterate_path(analytic_paths["P2"], k))
        mu_spec = spectrum.generalized_cz(
            spectrum.discretize_and_solve(op, 128), k).mu_global
        iterates[k] = (mu_num, mu_ana, mu_spec)
        ok = ok and mu_num == mu_ana == mu_spec == 2 * k
    _report("2 index triple + iterates", ok, f"{results} P2^k:{iterates}")


def test_criterion_3_spectrum_audit(spectra_256):
    ok = True
    details = []
    for label, (op, rep) in spectra_256.items():
        audit = spectrum.spectrum_property_audit(rep)
        oracle = spectrum.fourier_oracle_spectrum(op.constant_S, 256)
        err = float(np.max(np.abs(np.sort(rep.all_eigenvalues) - oracle)))
        ok = ok and audit["ok"] and err < 1e-6
        details.append(f"{label}: audit={audit['ok']} oracle_err={err:.2e}")
    _report("3 spectrum audit at 256 nodes", ok, "; ".join(details))


def _linking_and_quadrature(c1, c2):
    """The crossing count and the Gauss quadrature on the same projection."""
    _, (p1, p2) = knots.stereographic_project([c1, c2])
    _, lk = knots.gauss_linking(c1, c2)
    return lk, knots.gauss_linking_r3(p1, p2)


def test_criterion_4_linking(params, trio):
    ok = True
    details = []
    for i in range(3):
        for j in range(i + 1, 3):
            ca = knots.orbit_curve(trio[i], 1024)
            cb = knots.orbit_curve(trio[j], 1024)
            lk, quad = _linking_and_quadrature(ca, cb)
            ok = ok and lk == 0 and abs(quad - lk) < 0.05
            details.append(f"lk({trio[i].label},{trio[j].label})={lk:+d} "
                           f"(quadrature {quad:+.3f})")
    for orbit in trio:
        curve = knots.orbit_curve(orbit, 1024)
        xbar1, _ = model.frame_sections(params, curve.samples)
        pushed = knots.pushoff(params, curve, xbar1)
        lk, quad = _linking_and_quadrature(curve, pushed)
        ok = ok and lk == -1 and abs(quad - lk) < 0.05
        details.append(f"sl({orbit.label})={lk:+d} (quadrature {quad:+.3f})")
    lk, quad = _linking_and_quadrature(*knots.hopf_circles(1024))
    ok = ok and lk == 1 and abs(quad - lk) < 0.05
    details.append(f"hopf={lk:+d} (quadrature {quad:+.3f})")
    _report("4 linking and self-linking", ok, "; ".join(details))


def test_criterion_5_leaves(params, trio, atlas):
    t1, t3 = trio[0].reeb_period, trio[2].reeb_period
    ok = len(atlas) == 4
    details = []
    for iid in leaves.INTERVALS:
        prof = atlas[iid]["profile"]
        d1 = atlas[iid]["diagnostics"]
        grid2 = leaves.assemble_leaf(
            params, leaves.integrate_profile(params, iid,
                                             n_s=2 * len(prof.s) - 1),
            2 * len(atlas[iid]["grid"].t))
        d2 = leaves.leaf_diagnostics(params, grid2)
        ratio = d1.cr_residual_max / d2.cr_residual_max
        ok = ok and 3.5 <= ratio <= 4.5
        details.append(f"{iid}: ratio={ratio:.2f}")
        ok = ok and d1.wind_infty_pos == 1
        if prof.asymptote_neg != "removable":
            ok = ok and d1.wind_infty_neg == 1
        for end, label in (("pos", prof.asymptote_pos),
                           ("neg", prof.asymptote_neg)):
            if label == "removable":
                continue
            verdict = leaves.strong_section_check(
                params, atlas[iid]["grid"], end)["verdict"]
            ok = ok and verdict == "strong"
    e_plane = atlas["plane_to_P3"]["diagnostics"].hofer_energy
    m_cyl = atlas["cyl_P3_P1"]["diagnostics"].mass_neg_end
    ok = ok and abs(e_plane - t3) < 1e-6 and abs(m_cyl - t1) < 1e-6
    details.append(f"E(plane)={e_plane:.8f} m(cyl)={m_cyl:.8f}")
    _report("5 leaves", ok, "; ".join(details))


def test_criterion_6_orbit_scan(params, trio):
    t3 = trio[2].reeb_period
    cands, diags = orbits.resonant_orbit_scan(params, t3, n_levels=64)
    claims_ok = all(d.get("claim_pass", True) for d in diags) \
        and all(c["claim_pass"] for c in cands)
    ok = len(cands) == 0 and claims_ok
    scanned = len([d for d in diags if "min_action" in d])
    _report("6 resonance scan empty", ok,
            f"candidates={len(cands)} scanned_loops={scanned} "
            f"claims_ok={claims_ok}")


def test_criterion_7_homoclinic(separatrix):
    (g1, g2), traj, report = separatrix
    a, c = -5.0 / 3.0, 1.0
    disc = np.sqrt(a * a - 2 * c)
    want1 = EPS * (-a - disc)
    want2 = EPS * (-a + disc)
    ok = (
        report["end_distance_forward"] <= 1e-4
        and report["end_distance_backward"] <= 1e-4
        and abs(g1.axis_crossings[0] - want1) < 1e-8
        and abs(g2.axis_crossings[0] - want2) < 1e-8
    )
    _report("7 homoclinic", ok,
            f"ends=({report['end_distance_forward']:.2e},"
            f"{report['end_distance_backward']:.2e}) "
            f"crossings=({g1.axis_crossings[0]:.8f},"
            f"{g2.axis_crossings[0]:.8f})")


def test_criterion_8_negative_diagnosis():
    rep = run_validate(RunConfig(preset="paper-figure"))
    item = rep["items"]["index_pattern"]
    ev = item["evidence"]
    ok = (
        item["status"] == "fail"
        and ev.get("origin_flow_type") == "elliptic"
        and ev.get("k1k2", 0.0) < 0.0
    )
    _report("8 figure-preset diagnosis", ok,
            f"status={item['status']} k1k2={ev.get('k1k2')}")


def test_criterion_9_determinism(tmp_path):
    cfg = RunConfig(scan_levels=16)
    blobs = []
    for run in range(2):
        rep = run_validate(cfg)
        p = model.HamiltonianParams.from_config(cfg)
        curves = svgplot.level_curves(p)
        separatrix = orbits.separatrix_and_homoclinics(p)
        svgs = (
            svgplot.plot_levels(p, curves, separatrix)
            + svgplot.plot_atlas(
                p, {iid: leaves.integrate_profile(p, iid)
                    for iid in leaves.INTERVALS},
                separatrix, orbits.special_orbits(p), curves)
            + svgplot.plot_orbit_projection(p, seed=cfg.seed)
        )
        blobs.append(hashlib.sha256((dumps(rep) + svgs).encode()).hexdigest())
    ok = blobs[0] == blobs[1]
    _report("9 determinism", ok, f"sha256={blobs[0][:16]}...")


def test_criterion_10_quadrant_dichotomy(params, trio):
    p2 = trio[1]

    def make(base, amp, ph):
        def sec(taus):
            taus = np.atleast_1d(np.asarray(taus, float))
            out = np.zeros(taus.shape + (2,))
            out[..., 0] = base[0] + amp * base[2] * np.sin(
                2 * np.pi * taus + ph)
            out[..., 1] = base[1] + amp * base[3] * np.sin(
                2 * np.pi * taus + ph)
            return out

        return sec

    negative_family = [make((1, 0, 0, 1), 0.2, 0.0),
                       make((-1, 0, 0, 1), 0.15, 1.0),
                       make((1, 0, 0, 1), 0.0, 0.0)]
    positive_family = [make((0, 1, 1, 0), 0.03, 0.0),
                       make((0, -1, 1, 0), 0.02, 2.0),
                       make((0, 1, 1, 0), 0.0, 0.0)]
    ok = True
    for sec in negative_family:
        quads, sign = czindex.eigenframe_and_quadrants(params, p2, sec)
        ok = ok and sign == "-" and set(quads.tolist()) <= {"II", "IV"}
    for sec in positive_family:
        quads, sign = czindex.eigenframe_and_quadrants(params, p2, sec)
        ok = ok and sign == "+" and set(quads.tolist()) <= {"I", "III"}
    _report("10 quadrant dichotomy", ok)
