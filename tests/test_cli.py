import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reeblab
from reeblab import leaves, model, orbits, svgplot
from reeblab.cli import main
from reeblab.config import RunConfig
from reeblab.errors import NoReturn
from reeblab.model import HamiltonianParams


def test_config_round_trip():
    cfg = RunConfig(epsilon=0.4, seed=3)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_json('{"nonsense": 1}')


def test_config_preset_coefficients():
    assert RunConfig(preset="validated").coefficient_dict()["d"] == -0.125
    assert RunConfig(preset="paper-figure").coefficient_dict()["d"] == 0.125
    explicit = RunConfig(coefficients={"a": 1, "b": 2, "c": 3, "d": 4})
    assert explicit.coefficient_dict() == {"a": 1, "b": 2, "c": 3, "d": 4}


def test_orbits_command(tmp_path):
    assert main(["--out", str(tmp_path), "orbits"]) == 0
    payload = json.loads((tmp_path / "orbits.json").read_text())
    assert payload["structure_ok"]
    assert payload["inequality_checks"]["T3<2T1"]


def test_cz_command(tmp_path):
    assert main(["--out", str(tmp_path), "cz", "--orbit", "P3"]) == 0
    payload = json.loads((tmp_path / "cz_P3_k1.json").read_text())
    assert payload["numeric"]["mu_global"] == 3
    assert payload["agree"]


def test_spectrum_command(tmp_path):
    assert main(["--out", str(tmp_path), "--format", "csv", "spectrum",
                 "--orbit", "P1", "--nodes", "128"]) == 0
    payload = json.loads((tmp_path / "spectrum_P1_k1.json").read_text())
    assert payload["mu_global"] == 1
    assert payload["audit"]["ok"]
    csv = (tmp_path / "spectrum_P1_k1.csv").read_text()
    assert csv.splitlines()[0] == "eigenvalue,winding"


def test_link_command(tmp_path):
    assert main(["--out", str(tmp_path), "link", "--pair", "P1,P3",
                 "--self", "P2"]) == 0
    payload = json.loads((tmp_path / "link.json").read_text())
    assert payload["pair"]["rounded"] == 0
    assert payload["self"]["rounded"] == -1
    # the crossing count is an integer by construction: no rounding guard
    for entry in (payload["pair"], payload["self"]):
        assert entry["raw"] == entry["rounded"]
        assert "guard" not in entry


def test_leaf_command(tmp_path):
    assert main(["--out", str(tmp_path), "--format", "csv", "leaf",
                 "--which", "cyl_P3_P1"]) == 0
    payload = json.loads((tmp_path / "leaf_cyl_P3_P1.json").read_text())
    assert payload["asymptotes"] == {"neg": "P1", "pos": "P3"}
    assert (tmp_path / "leaf_cyl_P3_P1.csv").read_text().startswith("s,g,f,a")


def test_scan_command(tmp_path):
    assert main(["--out", str(tmp_path), "scan"]) == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert payload["candidates"] == []


def test_homoclinic_command(tmp_path):
    assert main(["--out", str(tmp_path), "homoclinic"]) == 0
    payload = json.loads((tmp_path / "homoclinic.json").read_text())
    assert payload["convergence"]["end_distance_forward"] <= 1e-4
    assert len(payload["gamma1_axis_crossings"]) == 1


def test_plot_command(tmp_path):
    assert main(["--out", str(tmp_path), "plot", "--targets", "levels",
                 "separatrix", "orbit3d-projection"]) == 0
    for name in ("levels", "separatrix", "orbit3d-projection"):
        svg = (tmp_path / f"plot_{name}.svg").read_text()
        assert svg.startswith("<?xml")
        assert 'viewBox="0 0 800 800"' in svg


def test_atlas_command(tmp_path):
    assert main(["--out", str(tmp_path), "atlas"]) == 0
    payload = json.loads((tmp_path / "atlas.json").read_text())
    assert set(payload["leaves"]) == {"disk_to_P2", "cyl_P2_P1",
                                      "cyl_P3_P1", "plane_to_P3"}
    assert list(payload["binding_orbits"]) == ["P1", "P2", "P3"]
    assert "conjectural" in payload["separatrix_shadow"]["status"]
    assert payload["homoclinic_report"]["end_distance_forward"] <= 1e-4
    assert (tmp_path / "atlas.svg").exists()


def test_execution_error_gives_nonzero_exit(tmp_path):
    # the figure preset has no valid orbit triple, so asking for an index
    # is an execution error, not a hypothesis failure
    code = main(["--out", str(tmp_path), "--preset", "paper-figure",
                 "cz", "--orbit", "P2"])
    assert code == 1


def test_validate_exit_zero_despite_hypothesis_failure(tmp_path):
    code = main(["--out", str(tmp_path), "--preset", "paper-figure",
                 "validate"])
    assert code == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["items"]["index_pattern"]["status"] == "fail"


def test_orbits_reports_an_axis_point_above_the_energy_cap(tmp_path):
    # at eps = 2 the axis point x = eps/2 has H2 = 7/6 >= 1/2, so no
    # binding orbit lies over it
    assert main(["--out", str(tmp_path), "--epsilon", "2", "orbits"]) == 0
    payload = json.loads((tmp_path / "orbits.json").read_text())
    assert not payload["structure_ok"]
    assert any("x = 1 " in a and "H2 = 1.16667" in a
               for a in payload["anomalies"])


def test_validate_fails_the_chain_above_the_energy_cap(tmp_path):
    assert main(["--out", str(tmp_path), "--epsilon", "2", "validate"]) == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert not payload["structure"]["pattern_ok"]
    assert payload["items"]["period_chain"]["status"] == "fail"
    assert payload["items"]["index_pattern"]["status"] == "fail"
    # pi (1 - 2 H2) at the axis point x = 1 would be -4.19: it is no period
    ev = payload["items"]["period_chain"]["evidence"]
    assert ev["T1"] is None and ev["2T1"] is None
    assert ev["T2"] == pytest.approx(np.pi, abs=1e-15)
    assert ev["T3"] > 0.0
    assert "x = 1 has H2 = 1.16667 >= 1/2" in ev["note"]


def test_atlas_of_the_figure_preset_names_its_structure(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--preset", "paper-figure", "atlas"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: StructureMismatch: expected 3 critical points, found 5;")
    assert not (tmp_path / "atlas.json").exists()


def test_validate_report_completeness(tmp_path):
    code = main(["--out", str(tmp_path), "--preset", "paper-figure",
                 "--epsilon", "0.5", "validate"])
    assert code == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    expected = {"period_chain", "index_pattern", "linking", "scan_empty",
                "leaf_existence", "sphere_obstruction"}
    assert set(payload["items"]) == expected
    for item in payload["items"].values():
        assert item["status"] in ("pass", "fail", "not-checkable")
        assert "evidence" in item


def test_validate_custom_epsilon_reports_chain(tmp_path):
    code = main(["--out", str(tmp_path), "--epsilon", "1.2", "validate"])
    assert code == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    item = payload["items"]["period_chain"]
    assert item["status"] == "fail"
    assert item["evidence"]["T3"] > 2 * item["evidence"]["T1"]


def test_plot_levels_figure_preset(tmp_path):
    """Level-curve figure at the figure preset's own parameters."""
    code = main(["--out", str(tmp_path), "--preset", "paper-figure",
                 "--epsilon", "1.0", "plot", "--targets", "levels"])
    assert code == 0
    svg = (tmp_path / "plot_levels.svg").read_text()
    assert "saddle" in svg or "min" in svg  # critical points annotated


def test_homoclinic_csv_exports(tmp_path):
    assert main(["--out", str(tmp_path), "--format", "csv",
                 "homoclinic"]) == 0
    lines = (tmp_path / "homoclinic.csv").read_text().splitlines()
    assert lines[0] == "t,x1,y1,x2,y2,H"
    # both 800-sample legs, sharing the apex
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert rows.shape == (1599, 6)
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert np.max(np.abs(rows[:, 5] - 0.5)) < 1e-9
    # the apex row is the forward leg's t = 0 sample, not its mirror image,
    # so no sign flip writes -0
    assert lines[800].startswith("0,")
    assert "-0" not in {field for line in lines[1:] for field in line.split(",")}
    assert (tmp_path / "separatrix_gamma1.csv").read_text().startswith("x2,y2")
    assert (tmp_path / "separatrix_gamma2.csv").exists()


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(epsilon=0.5, scan_levels=4).to_json())
    out = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--epsilon", "0.45",
                 "--out", str(out), "orbits"])
    assert code == 0
    payload = json.loads((out / "orbits.json").read_text())
    # the flag override moves the axis roots to eps/2 and 2 eps
    locs = sorted(pt["location"][0] for pt in payload["critical_points"])
    assert locs[1] == pytest.approx(0.225, abs=1e-9)


@pytest.mark.parametrize("text, named", [
    ('{"nonsense": 1}', "nonsense"),
    ('{"ode_tol": 1e-3}', "ode_tol"),  # a numerical constant, not a run input
    ('{"preset": "no-such-preset"}', "no-such-preset"),
    ('{"epsilon": 0.5', "line 1"),
    ('{"coefficients": {"a": 1}}', "coefficients"),
    ('{"coefficients": {"a": NaN, "b": -1.5, "c": 1, "d": -0.125}}',
     "coefficients a"),
    ('{"epsilon": "x"}', "epsilon"),
    ('{"epsilon": -1}', "epsilon"),
    ('{"seed": 1.5}', "seed"),
    ('{"scan_levels": 0}', "scan_levels"),
    ('{"scan_levels": true}', "scan_levels"),
], ids=["unknown-key", "deleted-knob", "unknown-preset", "malformed-json",
        "missing-coefficients", "nan-coefficient", "epsilon-string",
        "epsilon-negative", "float-seed", "zero-scan-levels",
        "bool-scan-levels"])
def test_bad_config_is_a_usage_error(tmp_path, capsys, text, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_path), "--out", str(tmp_path), "orbits"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--config:" in err and named in err
    assert not (tmp_path / "orbits.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["--epsilon", "-1", "orbits"], "epsilon"),
    (["--epsilon", "nan", "orbits"], "epsilon"),
    (["link", "--pair", "P1"], "'P1'"),
    (["link", "--pair", "P1,P9"], "'P1,P9'"),
    (["link", "--pair", "P2,P2"], "'P2,P2'"),
    (["cz", "--orbit", "P1", "--iterate", "0"], "--iterate"),
    (["cz", "--orbit", "P1", "--iterate", "-1"], "'-1'"),
    (["spectrum", "--orbit", "P1", "--iterate", "0"], "--iterate"),
    (["spectrum", "--orbit", "P1", "--nodes", "100"], "'100'"),
    (["spectrum", "--orbit", "P1", "--nodes", "129"], "'129'"),
    (["scan", "--bound", "nan"], "'nan'"),
], ids=["epsilon-negative", "epsilon-nan", "pair-one-label",
        "pair-unknown-label", "pair-repeated-label", "cz-iterate-zero",
        "cz-iterate-negative", "spectrum-iterate-zero", "nodes-too-few",
        "nodes-odd", "bound-nan"])
def test_bad_flag_is_a_usage_error(tmp_path, capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), *argv])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _run_with_config(tmp_path, fields: dict, *command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fields))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), *command]) == 0
    return out


@pytest.mark.parametrize("fields", [
    {"preset": "paper-figure"},
    {"coefficients": {"a": -5.0 / 3.0, "b": -1.5, "c": 1.0, "d": 0.125}},
])
def test_config_hamiltonian_reaches_structure(tmp_path, fields):
    out = _run_with_config(tmp_path, fields, "orbits")
    payload = json.loads((out / "orbits.json").read_text())
    # d > 0 turns the origin elliptic and adds two off-axis saddles
    assert not payload["structure_ok"]
    assert len(payload["critical_points"]) == 5


def test_orbits_reports_a_circle_of_critical_points(tmp_path):
    out = _run_with_config(
        tmp_path, {"coefficients": {"a": 0, "b": 0, "c": -1, "d": -1}},
        "orbits")
    payload = json.loads((out / "orbits.json").read_text())
    assert not payload["structure_ok"]
    assert payload["anomalies"][0] == ("critical points fill the circle of "
                                       "centre (0, 0) and radius 0.5")
    assert [pt["location"] for pt in payload["critical_points"]] == [
        [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]


def test_config_epsilon_reaches_axis_roots(tmp_path):
    out = _run_with_config(tmp_path, {"epsilon": 0.45}, "orbits")
    payload = json.loads((out / "orbits.json").read_text())
    locs = sorted(pt["location"][0] for pt in payload["critical_points"])
    assert locs == pytest.approx([0.0, 0.225, 0.9], abs=1e-9)


def test_config_seed_reaches_projection_pole(tmp_path):
    svgs = []
    for run, seed in enumerate((0, 1, 0)):
        (tmp_path / str(run)).mkdir()
        out = _run_with_config(tmp_path / str(run), {"seed": seed}, "plot",
                               "--targets", "orbit3d-projection")
        svgs.append((out / "plot_orbit3d-projection.svg").read_bytes())
    assert svgs[0] == svgs[2]
    assert svgs[0] != svgs[1]


def test_config_scan_levels_reaches_scan(tmp_path):
    out = _run_with_config(tmp_path, {"scan_levels": 4}, "scan")
    levels = {d["level"] for d in json.loads((out / "scan.json").read_text())
              ["diagnostics"]}
    assert len(levels) == 4
    out = _run_with_config(tmp_path, {"scan_levels": 4}, "validate")
    payload = json.loads((out / "validate.json").read_text())
    assert payload["items"]["scan_empty"]["evidence"]["n_levels_scanned"] == 4
    assert payload["config"] == {"coefficients": None, "epsilon": 0.5,
                                 "preset": "validated", "scan_levels": 4,
                                 "seed": 0}


def test_plot_levels_figure_preset_has_no_separatrix(tmp_path):
    assert main(["--out", str(tmp_path), "--preset", "paper-figure", "plot",
                 "--targets", "levels"]) == 0
    assert (tmp_path / "plot_levels.svg").read_text().startswith("<?xml")


def test_plot_levels_draws_each_polyline_once(tmp_path):
    """With these coefficients the top axis critical value is the saddle's,
    0, so four of the eight figure levels coincide: each distinct level is
    traced and drawn once."""
    out = _run_with_config(
        tmp_path, {"coefficients": {"a": 0.3, "b": -0.7, "c": -1.0, "d": 0.5}},
        "plot", "--targets", "levels")
    polylines = re.findall(r"<polyline [^>]*>",
                           (out / "plot_levels.svg").read_text())
    assert len(polylines) > 2
    assert len(polylines) == len(set(polylines))


def test_polyline_points_print_as_per_pair_fstrings(monkeypatch):
    """polyline formats all its points in one call; the text equals the
    per-pair f"{a:.3f},{b:.3f}" join on signed zeros, values that print as
    -0.000, exact ties rounded to even and coordinates above 1e5."""
    xs = [-0.0, -0.0004, 0.0625, 0.1875, -2.0625, 123456.7895, -4.5e5,
          1e7 + 0.0625]
    ys = [0.0, -0.0625, -0.0, 2.5e-4, 99999.9995, -0.00049, 3.0, 7e5]
    cv = svgplot.SvgCanvas((0.0, 1.0, 0.0, 1.0))
    monkeypatch.setattr(cv, "_map", lambda x, y: (x, y))  # formatting alone
    cv.polyline(np.column_stack([xs, ys]), "#000000")
    points = re.search(r'points="([^"]*)"', cv.parts[-1]).group(1)
    assert points == " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(xs, ys))
    assert points.split()[:3] == ["-0.000,0.000", "-0.000,-0.062",
                                  "0.062,-0.000"]
    assert points.split()[-1] == "10000000.062,700000.000"


def test_level_curves_skip_critical_values(monkeypatch):
    """With the same coefficients the levels 0.5 hi .. 10 hi are the
    saddle's value 0, whose seeds lie on the separatrix: no loop is traced
    on that level.  The other levels are traced in one batch."""
    p = HamiltonianParams(epsilon=0.5, a=0.3, b=-0.7, c=-1.0, d=0.5)
    lo = min(cp.h2_value for cp in orbits.structure_of(p).axis_points)
    traced = []
    level_loops = orbits.level_loops

    def recorded(p, levels):
        traced.append(levels)
        return level_loops(p, levels)

    monkeypatch.setattr(orbits, "level_loops", recorded)
    assert svgplot.level_curves(p)
    assert traced == [[0.75 * lo, 0.45 * lo, 0.2 * lo, 0.25]]


def test_plot_levels_separatrix_failure_is_an_error(tmp_path, monkeypatch):
    def no_return(p):
        raise NoReturn("separatrix branch did not return")

    monkeypatch.setattr(orbits, "separatrix_and_homoclinics", no_return)
    assert main(["--out", str(tmp_path), "plot", "--targets", "levels"]) == 1
    assert not (tmp_path / "plot_levels.svg").exists()


def test_plot_traces_the_separatrix_once(tmp_path, monkeypatch):
    calls = []
    traced = orbits.separatrix_and_homoclinics

    def counted(*args, **kwargs):
        calls.append(args)
        return traced(*args, **kwargs)

    monkeypatch.setattr(orbits, "separatrix_and_homoclinics", counted)
    assert main(["--out", str(tmp_path), "plot", "--targets", "levels",
                 "atlas", "separatrix"]) == 0
    assert len(calls) == 1


def test_leaf_diagnostics_only_where_a_report_reads_them(tmp_path,
                                                         monkeypatch):
    """`plot` draws the atlas from the four profiles alone; `atlas` reports
    the diagnostics of all four leaves and `validate` of two."""
    calls = []
    diagnose = leaves.leaf_diagnostics

    def counted(*args, **kwargs):
        calls.append(args)
        return diagnose(*args, **kwargs)

    monkeypatch.setattr(leaves, "leaf_diagnostics", counted)
    counts = {}
    for command in (["plot", "--targets", "atlas"], ["atlas"], ["validate"]):
        calls.clear()
        assert main(["--out", str(tmp_path), *command]) == 0
        counts[command[0]] = len(calls)
    assert counts == {"plot": 0, "atlas": 4, "validate": 2}
    assert (tmp_path / "plot_atlas.svg").read_bytes() \
        == (tmp_path / "atlas.svg").read_bytes()


def _count_integrations(monkeypatch):
    """Record each separatrix branch built from arcs, and each leaf profile
    and 4-D Reeb flow integrated.  A separatrix is its two planar branches
    alone: the homoclinic is built from gamma1 without integrating the 4-D
    flow."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(orbits, "_separatrix_branch",
                        counted("branch", orbits._separatrix_branch))
    monkeypatch.setattr(leaves, "integrate_profile",
                        counted("profile", leaves.integrate_profile))
    monkeypatch.setattr(model, "integrate_flow",
                        counted("flow", model.integrate_flow))
    return calls


def _invalid_structures(tmp_path):
    """Options selecting three invalid structures, each with the start of
    its first anomaly.  At eps = 2 the axis point x = 1 lies above the
    energy cap; the paper-figure preset has an elliptic origin; a radial H2
    has a circle of critical points."""
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps(
        {"coefficients": {"a": 0, "b": 0, "c": -1, "d": -1}}))
    return [
        (["--epsilon", "2"],
         "axis point x = 1 has H2 = 1.16667 >= 1/2"),
        (["--preset", "paper-figure"],
         "expected 3 critical points, found 5"),
        (["--config", str(circle)],
         "critical points fill the circle of centre (0, 0) and radius 0.5"),
    ]


@pytest.mark.parametrize("command, anomalies", [
    ("validate", lambda report: report["structure"]["anomalies"]),
    ("orbits", lambda report: report["anomalies"])],
    ids=["validate", "orbits"])
def test_invalid_structure_is_reported_without_integrating(
        tmp_path, monkeypatch, command, anomalies):
    """validate and orbits report an invalid structure, and exit 0 without
    integrating a leaf profile, a separatrix branch or the 4-D flow."""
    calls = _count_integrations(monkeypatch)
    for options, anomaly in _invalid_structures(tmp_path):
        assert main(["--out", str(tmp_path), *options, command]) == 0
        report = json.loads((tmp_path / f"{command}.json").read_text())
        assert any(a.startswith(anomaly) for a in anomalies(report))
        assert calls == []


@pytest.mark.parametrize("command", [
    ["leaf", "--which", "disk_to_P2"], ["leaf", "--which", "plane_to_P3"],
    ["leaf", "--which", "cyl_P3_P1"], ["leaf", "--which", "cyl_P2_P1"],
    ["homoclinic"], ["plot", "--targets", "separatrix"],
    ["plot", "--targets", "levels", "atlas"], ["atlas"],
    ["cz", "--orbit", "P1"], ["spectrum", "--orbit", "P1"],
    ["link", "--pair", "P1,P3", "--self", "P2"], ["scan"]])
def test_invalid_structure_is_named_before_integrating(tmp_path, capsys,
                                                       monkeypatch, command):
    """Under three invalid structures each leaf, the homoclinic, the atlas,
    the atlas and separatrix figures, cz, spectrum, link and scan name the
    structure, and integrate neither a leaf profile, nor a separatrix
    branch, nor the 4-D flow first."""
    calls = _count_integrations(monkeypatch)
    for options, anomaly in _invalid_structures(tmp_path):
        assert main(["--out", str(tmp_path), *options, *command]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: StructureMismatch: {anomaly}")
        assert calls == []


@pytest.mark.parametrize("epsilon, branches", [("2", 0), ("0.5", 2)])
def test_level_figure_traces_the_separatrix_of_a_valid_structure_only(
        tmp_path, monkeypatch, epsilon, branches):
    """The level figure is drawn at eps = 2 too, without tracing a branch
    the invalid structure gives no reason to return."""
    calls = _count_integrations(monkeypatch)
    assert main(["--out", str(tmp_path), "--epsilon", epsilon, "plot",
                 "--targets", "levels"]) == 0
    # a traced separatrix is its two planar branches, and no 4-D flow
    assert calls == ["branch"] * branches


def test_homoclinic_of_a_failed_period_chain_is_still_traced(tmp_path,
                                                            monkeypatch):
    """At eps = 1.2 the structure holds but T3 < 2 T1 fails: homoclinic and
    the separatrix figure check the structure only, so they go on to trace
    the separatrix, whose branches both close."""
    calls = _count_integrations(monkeypatch)
    assert main(["--out", str(tmp_path), "--epsilon", "1.2",
                 "homoclinic"]) == 0
    assert main(["--out", str(tmp_path), "--epsilon", "1.2", "plot",
                 "--targets", "separatrix"]) == 0
    assert calls == ["branch", "branch"] * 2


def test_homoclinic_outside_the_star_shaped_region_is_an_error(tmp_path,
                                                              capsys):
    """At eps = 1.5 gamma1 runs where lambda0(X_H) <= 0, so the homoclinic
    built from it is no Reeb trajectory: the command exits 1 and names
    NotStarShaped instead of writing the leg."""
    assert main(["--out", str(tmp_path), "--epsilon", "1.5",
                 "homoclinic"]) == 1
    assert "NotStarShaped" in capsys.readouterr().err
    assert not (tmp_path / "homoclinic.json").exists()


def test_reports_identical_across_processes(tmp_path):
    """validate and plot write the same bytes in fresh interpreters with
    different string-hash seeds."""
    src = str(Path(reeblab.__file__).resolve().parents[1])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scan_levels": 8}))
    blobs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"hash{hashseed}"
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command in (["validate"],
                        ["plot", "--targets", "levels", "atlas",
                         "separatrix", "orbit3d-projection"]):
            subprocess.run([sys.executable, "-m", "reeblab", "--config",
                            str(cfg_path), "--out", str(out), *command],
                           env=env, check=True, capture_output=True)
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(blobs[0]) == 5
    assert blobs[0] == blobs[1]
