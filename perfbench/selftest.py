"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check first accepts a correct output, built here from closed forms or
from LAPACK on a matrix the program assembles, and then rejects the same
output with one deliberate error.  Exits 1 if any check accepts a wrong
output or rejects a right one.  Not part of the repository's test suite.
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from reeblab import spectrum  # noqa: E402

EPS = 0.5
NODES = 128


def good_report():
    t1, t2, t3 = checks.periods(EPS)
    return {
        "items": {
            "period_chain": {"evidence": {"T1": t1, "T2": t2, "T3": t3}},
            "index_pattern": {"evidence": {
                label: {"numeric": mu, "analytic": mu, "spectral": mu}
                for label, mu in checks.INDEX.items()}},
            "linking": {"evidence": {
                "pairwise": {pair: {"raw": 1e-3, "lk": 0}
                             for pair in ("P1-P2", "P1-P3", "P2-P3")},
                "self_linking": {"P1": -1, "P2": -1, "P3": -1}}},
            "scan_empty": {"evidence": {"n_candidates": 0,
                                        "min_excluded_action": t3 + 0.5}},
            "leaf_existence": {"evidence": {
                "plane_to_P3": {"hofer_energy": t3},
                "cyl_P3_P1": {"mass_neg_end": t1}}},
        },
        "summary": {"index_pattern": "pass", "leaf_existence": "pass",
                    "linking": "pass", "period_chain": "pass",
                    "scan_empty": "pass",
                    "sphere_obstruction": "not-checkable"},
    }


def altered(base, edit):
    out = copy.deepcopy(base)
    edit(out)
    return out


def validate_cases():
    good = good_report()
    ev = lambda r, k: r["items"][k]["evidence"]  # noqa: E731
    bad = {
        "period T3 off by 1e-7": lambda r: ev(r, "period_chain").update(
            T3=ev(r, "period_chain")["T3"] + 1e-7),
        "spectral index of P2 is 4": lambda r: ev(r, "index_pattern")["P2"].update(
            spectral=4),
        "P1-P3 linking raw 0.07": lambda r: ev(r, "linking")["pairwise"]["P1-P3"].update(
            raw=0.07),
        "self-linking of P3 is +1": lambda r: ev(r, "linking")["self_linking"].update(P3=1),
        "one scan candidate": lambda r: ev(r, "scan_empty").update(n_candidates=1),
        "excluded action below T3": lambda r: ev(r, "scan_empty").update(
            min_excluded_action=ev(r, "period_chain")["T3"] - 0.01),
        "Hofer energy off by 1e-5": lambda r: ev(r, "leaf_existence")["plane_to_P3"].update(
            hofer_energy=ev(r, "period_chain")["T3"] + 1e-5),
        "linking item failed": lambda r: r["summary"].update(linking="fail"),
    }
    yield "validate: correct report", checks.check_validate(good, EPS), True
    for what, edit in bad.items():
        yield f"validate: {what}", checks.check_validate(altered(good, edit), EPS), False


def spectrum_cases():
    s = np.diag([2.7, -1.3])
    op = spectrum.OperatorModel(S=np.broadcast_to(s, (NODES, 2, 2)).copy(),
                                tau=np.arange(NODES) / NODES, period=1.0,
                                constant_S=s)
    m = spectrum.assemble_matrix(op, NODES)
    lapack = np.linalg.eigvalsh(m)
    norm = float(np.linalg.norm(m))
    windings = np.repeat(np.arange(-3, 4), 2)

    def run(eigs=lapack, mu=2, wind=windings, audit_ok=True):
        return checks.check_spectrum(eigs, lapack, norm, mu, 2, wind, audit_ok,
                                     s_const=s, n_nodes=NODES)

    shifted = lapack.copy()
    shifted[NODES] += 1e-6 * norm
    yield "spectrum: LAPACK eigenvalues, right index and windings", run(), True
    yield "spectrum: one eigenvalue shifted", run(eigs=shifted), False
    yield "spectrum: wrong index", run(mu=3), False
    yield "spectrum: windings out of order", run(wind=windings[::-1]), False
    yield "spectrum: a winding taken three times", run(
        wind=np.sort(np.append(windings, 0))), False
    yield "spectrum: audit reports violations", run(audit_ok=False), False
    half = checks.closed_form_spectrum(2.7, -1.3, NODES)
    yield "spectrum: closed form against LAPACK", checks.check_spectrum(
        half, lapack, norm, 0, 0, windings, True), True
    yield "spectrum: closed form with s1 moved", checks.check_spectrum(
        lapack, lapack, norm, 0, 0, windings, True, s_const=np.diag([2.7 + 1e-6, -1.3]),
        n_nodes=NODES), False


def figures_cases():
    inner, outer = checks.axis_crossings(EPS)
    good = {"convergence": {"end_distance_forward": 2e-6,
                            "end_distance_backward": 3e-6},
            "gamma1_axis_crossings": [inner, 1.2], "gamma2_axis_crossings": [outer]}
    yield "homoclinic: correct report", checks.check_homoclinic(good, EPS), True
    yield "homoclinic: gamma1 crossing moved by 1e-7", checks.check_homoclinic(
        altered(good, lambda r: r.update(gamma1_axis_crossings=[inner + 1e-7])),
        EPS), False
    yield "homoclinic: forward end 1e-3 from P2", checks.check_homoclinic(
        altered(good, lambda r: r["convergence"].update(end_distance_forward=1e-3)),
        EPS), False
    leaf = {"wind_infty_pos": 1, "strong_section_sign": "+"}
    atlas = {"leaves": {iid: dict(leaf) for iid in checks.LEAVES}}
    yield "atlas: correct report", checks.check_atlas(atlas), True
    yield "atlas: a leaf winds twice", checks.check_atlas(altered(
        atlas, lambda r: r["leaves"]["cyl_P2_P1"].update(wind_infty_pos=2))), False
    yield "atlas: a mixed section", checks.check_atlas(altered(
        atlas, lambda r: r["leaves"]["plane_to_P3"].update(
            strong_section_sign="mixed"))), False
    svg = b'<svg xmlns="http://www.w3.org/2000/svg"><path d="M0 0"/></svg>\n'
    yield "svg: well formed", checks.check_svg(svg), True
    yield "svg: truncated", checks.check_svg(svg[:-8]), False
    yield "bytes: identical", checks.check_same_bytes(svg, bytes(svg)), True
    yield "bytes: one byte changed", checks.check_same_bytes(svg, svg.replace(b"M0", b"M1")), False


def main() -> int:
    wrong = 0
    for cases in (validate_cases(), spectrum_cases(), figures_cases()):
        for what, problems, want_pass in cases:
            ok = (not problems) == want_pass
            wrong += not ok
            verdict = "accepted" if not problems else "rejected"
            print(f"{'ok ' if ok else 'BAD'} {verdict:8s} {what}"
                  + ("" if not problems else f"  ({problems[0]})"))
    print(f"{wrong} check(s) misjudged")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
