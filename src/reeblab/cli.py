"""Command-line orchestration: validation report, per-module reports, plots.

Exit code 0 means the requested computation ran; hypothesis failures are
report content, not process failures.  All outputs are deterministic for a
fixed config (the pole-sampling seed is part of the config and recorded in
the report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ReebLabError, StructureMismatch
from . import czindex, knots, leaves, model, orbits, spectrum, svgplot
from .model import HamiltonianParams


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of numbers (.12g)."""
    lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation report


def cz_all_methods(p, orbit, iterate: int):
    """Index of orbit^iterate by numeric path, analytic oracle (both on 256
    nodes) and spectral formula (128 grid nodes); returns dict of CZResult
    plus the agreement flag."""
    fc = czindex.frame_correction_for(p, orbit)
    numeric = model.restrict_linearized_to_xi(p, orbit, "rho_orbit_frame")
    analytic = czindex.analytic_monodromy_oracle(p, orbit.label, orbit=orbit)
    res_num = czindex.iterate_index(numeric, iterate, fc, "winding_interval")
    res_ana = czindex.iterate_index(analytic, iterate, fc, "analytic_oracle")
    op = spectrum.build_S(czindex.iterate_path(analytic, iterate))
    rep = spectrum.discretize_and_solve(op, 128)
    res_spec = spectrum.generalized_cz(rep, iterate * fc)
    agree = res_num.mu_global == res_ana.mu_global == res_spec.mu_global
    return {
        "numeric": res_num,
        "analytic": res_ana,
        "spectral": res_spec,
        "frame_correction": fc,
        "agree": bool(agree),
    }


def run_validate(cfg: RunConfig) -> dict:
    """Desk-scale audit of the foliation-existence hypotheses.

    Items: (i) the period chain, the index pattern (all three methods),
    pairwise unlinking, (ii) emptiness of the low-action resonance scan,
    (iii) existence of the plane and cylinder leaves, and the sphere
    obstruction, which is recorded not-checkable with the quadrant evidence
    pointer.  Every item carries numeric evidence.
    """
    p = HamiltonianParams.from_config(cfg)
    report = {"config": asdict(cfg), "items": {}}
    items = report["items"]

    structure = orbits.validate_structure(p)
    report["structure"] = {
        "n_critical_points": len(structure.points),
        "count_ok": structure.count_ok,
        "pattern_ok": structure.pattern_ok,
        "anomalies": structure.anomalies,
        "points": [asdict(cp) for cp in structure.points],
    }

    # (i) period chain, from the critical values of the axis points; an
    # axis point with H2 >= 1/2 carries no orbit, so its period is null.
    # special_orbits checks the same chain and the sign pattern, so its
    # error is the note when it refuses
    axis = structure.axis_points
    trio = note = None
    try:
        trio = orbits.special_orbits(p)
    except ReebLabError as exc:
        note = str(exc)
    if len(axis) == 3:
        t2, t1, t3 = (np.pi * (1.0 - 2.0 * cp.h2_value)
                      if cp.h2_value < 0.5 else None for cp in axis)
        chain_ok = None not in (t1, t2, t3) and t1 < t2 < t3 < 2 * t1
        evidence = {"T1": t1, "T2": t2, "T3": t3,
                    "2T1": None if t1 is None else 2 * t1}
        if note is not None:
            evidence["note"] = note
        items["period_chain"] = {
            "status": "pass" if chain_ok else "fail",
            "evidence": evidence,
        }
    else:
        items["period_chain"] = {"status": "fail", "evidence": {"error": note}}

    quad_ev = {}
    if trio is None:
        origin = next(
            (cp for cp in structure.points
             if np.hypot(*cp.location) < 1e-9), None)
        evidence = {"anomalies": structure.anomalies}
        if origin is not None and origin.k1 is not None:
            evidence["origin_flow_type"] = origin.flow_type
            evidence["k1k2"] = origin.k1 * origin.k2
        items["index_pattern"] = {"status": "fail", "evidence": evidence}
        reason = {"reason": "special orbits unavailable "
                            "(critical-point pattern invalid)"}
        for key in ("linking", "scan_empty", "leaf_existence"):
            items[key] = {"status": "not-checkable", "evidence": dict(reason)}
    else:
        # index pattern by all methods
        per_orbit = {}
        ok = True
        for orbit, want in zip(trio, (1, 2, 3)):
            res = cz_all_methods(p, orbit, 1)
            got = res["numeric"].mu_global
            per_orbit[orbit.label] = {
                "numeric": res["numeric"].mu_global,
                "analytic": res["analytic"].mu_global,
                "spectral": res["spectral"].mu_global,
                "agree": res["agree"],
                "expected": want,
            }
            ok = ok and res["agree"] and got == want
        items["index_pattern"] = {
            "status": "pass" if ok else "fail",
            "evidence": per_orbit,
        }

        # pairwise unlinking
        pair_ev = {}
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = trio[i], trio[j]
                ca = knots.orbit_curve(a)
                cb = knots.orbit_curve(b)
                raw, lk = knots.gauss_linking(ca, cb, seed=cfg.seed)
                pair_ev[f"{a.label}-{b.label}"] = {"raw": raw, "lk": lk}
                ok = ok and lk == 0
        sl_ev = {}
        for orbit in trio:
            _, sl = knots.self_linking(p, orbit, seed=cfg.seed)
            sl_ev[orbit.label] = sl
            ok = ok and sl == -1
        items["linking"] = {
            "status": "pass" if ok else "fail",
            "evidence": {"pairwise": pair_ev, "self_linking": sl_ev},
        }

        # (ii) resonance scan emptiness below the top period
        t3 = trio[2].reeb_period
        cands, diags = orbits.resonant_orbit_scan(
            p, t3, n_levels=cfg.scan_levels)
        items["scan_empty"] = {
            "status": "pass" if not cands else "fail",
            "evidence": {
                "bound": t3,
                "n_candidates": len(cands),
                "n_levels_scanned": cfg.scan_levels,
                "n_diagnostics": len(diags),
                "min_excluded_action": min(
                    (d["min_action"] for d in diags if "min_action" in d),
                    default=None,
                ),
            },
        }

        # (iii) existence of the explicit leaves
        try:
            leaf_ev = {}
            for iid in ("plane_to_P3", "cyl_P3_P1"):
                prof = leaves.integrate_profile(p, iid)
                grid = leaves.assemble_leaf(p, prof)
                diag = leaves.leaf_diagnostics(p, grid)
                leaf_ev[iid] = {
                    "asymptotes": [prof.asymptote_neg, prof.asymptote_pos],
                    "cr_residual": diag.cr_residual_max,
                    "hofer_energy": diag.hofer_energy,
                    "mass_neg_end": diag.mass_neg_end,
                    "wind_infty_pos": diag.wind_infty_pos,
                }
            items["leaf_existence"] = {"status": "pass", "evidence": leaf_ev}
        except ReebLabError as exc:
            items["leaf_existence"] = {"status": "fail",
                                       "evidence": {"error": str(exc)}}

        # sphere obstruction: not decidable numerically; the quadrant
        # dichotomy along the hyperbolic orbit is the supporting evidence
        def sec_e1(taus):
            taus = np.atleast_1d(taus)
            out = np.zeros(taus.shape + (2,))
            out[..., 0] = 1.0
            return out

        quads, sign = czindex.eigenframe_and_quadrants(p, trio[1], sec_e1)
        quad_ev = {"pairing_sign": sign,
                   "quadrants": sorted({q for q in quads.tolist() if q})}
    items["sphere_obstruction"] = {
        "status": "not-checkable",
        "evidence": {
            "note": "existence-of-nonexistence statement; supported by the "
                    "invariant-quadrant dichotomy along the hyperbolic orbit",
            "quadrant_sample": quad_ev,
        },
    }

    report["summary"] = {
        k: v["status"] for k, v in sorted(items.items())
    }
    return report


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(cfg, out: Path, args):
    report = run_validate(cfg)
    _write(out / "validate.json", dumps(report))
    for k, v in sorted(report["items"].items()):
        print(f"  {k}: {v['status']}")


def _cmd_orbits(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    rep = orbits.validate_structure(p)
    payload = {
        "critical_points": [asdict(cp) for cp in rep.points],
        "structure_ok": rep.ok,
        "anomalies": rep.anomalies,
    }
    if rep.ok:
        trio = orbits.special_orbits(p)
        t1, t2, t3 = (o.reeb_period for o in trio)
        payload["special_orbits"] = {
            o.label: {"z2": o.z2_datum.tolist(), "r": o.r,
                      "period": o.reeb_period, "k1": o.k1, "k2": o.k2}
            for o in trio
        }
        payload["periods"] = {"T1": t1, "T2": t2, "T3": t3}
        payload["inequality_checks"] = {
            "T1<T2": t1 < t2, "T2<T3": t2 < t3, "T3<2T1": t3 < 2 * t1,
        }
    _write(out / "orbits.json", dumps(payload))


def _cmd_cz(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    label, iterate = args.orbit, args.iterate
    trio = {o.label: o for o in orbits.special_orbits(p)}
    res = cz_all_methods(p, trio[label], iterate)
    payload = {
        "orbit": label,
        "iterate": iterate,
        "frame_correction": res["frame_correction"],
        "agree": res["agree"],
    }
    wanted = (("numeric", "analytic", "spectral") if args.method == "all"
              else (args.method,))
    for key in wanted:
        r = res[key]
        payload[key] = {
            "mu_local": r.mu_local,
            "frame_correction": r.frame_correction,
            "mu_global": r.mu_global,
            "method": r.method,
        }
    _write(out / f"cz_{label}_k{iterate}.json", dumps(payload))
    print(f"  mu({label}^{iterate}) = {res['numeric'].mu_global} "
          f"(agree={res['agree']})")


def _cmd_spectrum(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    label, nodes, iterate = args.orbit, args.nodes, args.iterate
    orbit = {o.label: o for o in orbits.special_orbits(p)}[label]
    path_ = czindex.analytic_monodromy_oracle(p, label, orbit=orbit)
    path_ = czindex.iterate_path(path_, iterate)
    op = spectrum.build_S(path_)
    rep = spectrum.discretize_and_solve(op, nodes)
    fc = czindex.frame_correction_for(p, orbit)
    res = spectrum.generalized_cz(rep, iterate * fc)
    audit = spectrum.spectrum_property_audit(rep)
    payload = {
        "orbit": label,
        "iterate": iterate,
        "n_nodes": nodes,
        "eigenvalues": rep.eigenvalues.tolist(),
        "windings": rep.windings.tolist(),
        "nu_neg": rep.nu_neg,
        "nu_pos": rep.nu_pos,
        "p": rep.p,
        "mu_tilde_frame": rep.mu_tilde_frame,
        "mu_global": res.mu_global,
        "n_excluded": rep.n_excluded,
        "audit": {k: v for k, v in audit.items() if k != "two_per_winding"},
        "two_per_winding": {str(k): v for k, v in audit["two_per_winding"].items()},
    }
    stem = f"spectrum_{label}_k{iterate}"
    _write(out / f"{stem}.json", dumps(payload))
    if args.format == "csv":
        _write(out / f"{stem}.csv", _csv("eigenvalue,winding",
                                         zip(rep.eigenvalues, rep.windings)))


def _cmd_link(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    trio = {o.label: o for o in orbits.special_orbits(p)}
    payload = {}
    if args.pair:
        la, lb = args.pair
        ca = knots.orbit_curve(trio[la])
        cb = knots.orbit_curve(trio[lb])
        raw, lk = knots.gauss_linking(ca, cb, seed=cfg.seed)
        payload["pair"] = {"curves": [la, lb], "raw": raw, "rounded": lk}
    if args.self_label:
        raw, lk = knots.self_linking(p, trio[args.self_label], seed=cfg.seed)
        payload["self"] = {"curve": args.self_label, "raw": raw, "rounded": lk}
    _write(out / "link.json", dumps(payload))


def _cmd_leaf(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    which = args.which
    # special_orbits names an invalid structure or period chain before the
    # profile integration can fail on it less plainly
    orbits.special_orbits(p)
    prof = leaves.integrate_profile(p, which)
    diag = leaves.leaf_diagnostics(p, leaves.assemble_leaf(p, prof))
    payload = {
        "interval": which,
        "asymptotes": {"neg": prof.asymptote_neg, "pos": prof.asymptote_pos},
        "s_range": [prof.s[0], prof.s[-1]],
        "diagnostics": asdict(diag),
    }
    _write(out / f"leaf_{which}.json", dumps(payload))
    if args.format == "csv":
        _write(out / f"leaf_{which}.csv",
               _csv("s,g,f,a", zip(prof.s, prof.g, prof.f, prof.a)))


def _cmd_atlas(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    # special_orbits refuses an invalid structure or period chain before
    # the separatrix is traced; a valid structure has a saddle at the origin
    trio = orbits.special_orbits(p)
    separatrix = orbits.separatrix_and_homoclinics(p)
    atlas = leaves.foliation_atlas(p)
    payload = {"leaves": {}, "binding_orbits": {}, "separatrix_shadow": {}}
    for iid, entry in atlas.items():
        diag = asdict(entry["diagnostics"])
        diag["strong_section_sign"] = diag.pop("section_pairing_sign")
        payload["leaves"][iid] = {
            "role": entry["role"],
            "fredholm_index": entry["fredholm_index"],
            "wind_pi": entry["wind_pi"],
            "asymptotes": [entry["profile"].asymptote_neg,
                           entry["profile"].asymptote_pos],
            **diag,
        }
    for orb in trio:
        payload["binding_orbits"][orb.label] = {
            "z2": orb.z2_datum.tolist(), "period": orb.reeb_period,
        }
    payload["separatrix_shadow"]["status"] = (
        "conjectural shadow of the off-axis rigid cylinders"
        " (not explicitly constructed)")
    payload["homoclinic_report"] = separatrix[2]
    _write(out / "atlas.json", dumps(payload))
    profiles = {iid: entry["profile"] for iid, entry in atlas.items()}
    _write(out / "atlas.svg", svgplot.plot_atlas(
        p, profiles, separatrix, trio, svgplot.level_curves(p)))


def _cmd_scan(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    trio = orbits.special_orbits(p)
    bound = args.bound
    if bound is None:
        bound = trio[2].reeb_period
    cands, diags = orbits.resonant_orbit_scan(p, bound,
                                              n_levels=cfg.scan_levels)
    payload = {
        "bound": bound,
        "candidates": [
            {k: v for k, v in c.items() if k != "loop"} for c in cands
        ],
        "diagnostics": diags,
    }
    _write(out / "scan.json", dumps(payload))
    print(f"  {len(cands)} candidates")


def _cmd_homoclinic(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    # an invalid structure is named before a separatrix branch is traced; a
    # failed period chain alone leaves the separatrix drawable
    structure = orbits.structure_of(p)
    if not structure.ok:
        raise StructureMismatch("; ".join(structure.anomalies))
    (g1, g2), traj, report = orbits.separatrix_and_homoclinics(p)
    payload = {
        "convergence": report,
        "gamma1_axis_crossings": g1.axis_crossings.tolist(),
        "gamma2_axis_crossings": g2.axis_crossings.tolist(),
        "gamma1_area": g1.enclosed_area,
        "gamma2_area": g2.enclosed_area,
    }
    _write(out / "homoclinic.json", dumps(payload))
    if args.format == "csv":
        h, _, _ = model.hamiltonian_eval(p, traj.states)
        _write(out / "homoclinic.csv", _csv(
            "t,x1,y1,x2,y2,H", np.column_stack([traj.t, traj.states, h])))
        for br in (g1, g2):
            _write(out / f"separatrix_{br.branch_id}.csv",
                   _csv("x2,y2", br.samples))


def _cmd_plot(cfg, out: Path, args):
    p = HamiltonianParams.from_config(cfg)
    targets = set(args.targets)
    # the separatrix is traced only over a valid structure: at an invalid
    # one the origin is no saddle (paper-figure) or a branch need not
    # return (eps = 2).  plot_levels then draws none, and the atlas and
    # separatrix targets name the structure before anything is traced
    structure = orbits.structure_of(p)
    if not structure.ok and targets & {"atlas", "separatrix"}:
        raise StructureMismatch("; ".join(structure.anomalies))
    curves = separatrix = None
    if targets & {"levels", "atlas"}:
        curves = svgplot.level_curves(p)
    if structure.ok and targets & {"levels", "atlas", "separatrix"}:
        separatrix = orbits.separatrix_and_homoclinics(p)
    plots = {
        "levels": lambda: svgplot.plot_levels(p, curves, separatrix),
        # the figure draws the profiles alone: no leaf grid, no diagnostics
        "atlas": lambda: svgplot.plot_atlas(
            p, {iid: leaves.integrate_profile(p, iid)
                for iid in leaves.INTERVALS},
            separatrix, orbits.special_orbits(p), curves),
        "separatrix": lambda: svgplot.plot_separatrix(p, separatrix),
        "orbit3d-projection": lambda: svgplot.plot_orbit_projection(
            p, seed=cfg.seed),
    }
    for target in sorted(targets):
        _write(out / f"plot_{target}.svg", plots[target]())


# ---------------------------------------------------------------------------
# entry point


def _orbit_pair(text: str) -> tuple:
    labels = tuple(text.split(","))
    if len(labels) != 2 or labels[0] == labels[1] \
            or not set(labels) <= {"P1", "P2", "P3"}:
        raise argparse.ArgumentTypeError(
            f"expected two distinct labels from P1, P2, P3, got {text!r}")
    return labels


def _checked(convert, ok, want: str):
    """An argparse type: `convert` the text, and accept the value if `ok`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return value

    return parse


_iterate = _checked(int, lambda k: k >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reeblab",
        description="numerical laboratory for a Reeb flow on a 3-sphere-like "
                    "energy surface",
    )
    ap.add_argument("--config", type=str, default=None,
                    help="JSON config file")
    ap.add_argument("--preset", choices=["validated", "paper-figure"],
                    default=None)
    ap.add_argument("--epsilon", type=float, default=None)
    ap.add_argument("--out", type=str, default=".")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    ap.add_argument("--seed", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("validate").set_defaults(func=_cmd_validate)
    sub.add_parser("orbits").set_defaults(func=_cmd_orbits)

    czp = sub.add_parser("cz")
    czp.add_argument("--orbit", choices=["P1", "P2", "P3"], required=True)
    czp.add_argument("--method",
                     choices=["numeric", "analytic", "spectral", "all"],
                     default="all")
    czp.add_argument("--iterate", type=_iterate, default=1)
    czp.set_defaults(func=_cmd_cz)

    spp = sub.add_parser("spectrum")
    spp.add_argument("--orbit", choices=["P1", "P2", "P3"], required=True)
    spp.add_argument("--nodes", default=256, type=_checked(
        int, lambda n: n >= 128 and n % 2 == 0, "an even integer >= 128"))
    spp.add_argument("--iterate", type=_iterate, default=1)
    spp.set_defaults(func=_cmd_spectrum)

    lkp = sub.add_parser("link")
    lkp.add_argument("--pair", type=_orbit_pair, default=None,
                     help="e.g. P1,P3")
    lkp.add_argument("--self", dest="self_label", type=str, default=None,
                     choices=["P1", "P2", "P3"])
    lkp.set_defaults(func=_cmd_link)

    lfp = sub.add_parser("leaf")
    lfp.add_argument("--which", choices=list(leaves.INTERVALS), required=True)
    lfp.set_defaults(func=_cmd_leaf)

    sub.add_parser("atlas").set_defaults(func=_cmd_atlas)

    scp = sub.add_parser("scan")
    scp.add_argument("--bound", default=None, type=_checked(
        float, math.isfinite, "a finite number"))
    scp.set_defaults(func=_cmd_scan)

    sub.add_parser("homoclinic").set_defaults(func=_cmd_homoclinic)

    plp = sub.add_parser("plot")
    plp.add_argument("--targets", nargs="+",
                     choices=["levels", "atlas", "separatrix",
                              "orbit3d-projection"],
                     default=["levels"])
    plp.set_defaults(func=_cmd_plot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = RunConfig()
    if args.config:
        try:
            cfg = RunConfig.from_json(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            ap.error(f"--config: {exc}")
    try:
        cfg = cfg.with_overrides(preset=args.preset, epsilon=args.epsilon,
                                 seed=args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        args.func(cfg, out_dir, args)
    except ReebLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
