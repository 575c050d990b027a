"""The reports of every CLI command, held to the golden files.

`tests/golden/regen.py` lists the commands.  Here they all run through
`cli.main` in one fresh interpreter, which also checks that a run in another
process writes the same reports.  Where the Python, numpy and scipy versions
match the manifest, every file must match its digest byte for byte.
Elsewhere the byte test is skipped and the reports are compared by value:
strings, integers and bools exactly, floats to 1e-9 relative to the
largest magnitude of their key or CSV column, so that a value near zero
in a column of order one may move by rounding; the SVG figures are then
not compared.  `python tests/golden/regen.py` rewrites the
golden files after an intended change.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())
RTOL = 1e-9


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """(output directory, versions) of one fresh run of every command."""
    out = tmp_path_factory.mktemp("golden")
    code = ("import json, regen; regen.generate({!r}); "
            "print(json.dumps(regen.versions()))").format(str(out))
    proc = subprocess.run([sys.executable, "-c", code], cwd=GOLDEN,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout.splitlines()[-1])


def _note(moves: dict, key: str, change) -> None:
    """Keep the largest change per key: a relative float change, or text."""
    old = moves.get(key)
    if isinstance(change, str) or old is None \
            or (not isinstance(old, str) and change > old):
        moves[key] = change


def _scales(value, key: str, scales: dict) -> None:
    """The largest finite float magnitude under each key of a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            _scales(v, f"{key}.{k}" if key else k, scales)
    elif isinstance(value, list):
        for v in value:
            _scales(v, key + "[]", scales)
    elif isinstance(value, float) and math.isfinite(value):
        scales[key] = max(scales.get(key, 0.0), abs(value))


def _compare(want, got, key: str, rtol: float, scales: dict,
             moves: dict) -> None:
    """Record in `moves` each key of two JSON values that differs."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            sub = f"{key}.{k}" if key else k
            if k not in got or k not in want:
                _note(moves, sub, "missing" if k not in got else "added")
            else:
                _compare(want[k], got[k], sub, rtol, scales, moves)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            _note(moves, key, f"length {len(want)} -> {len(got)}")
        else:
            for a, b in zip(want, got):
                _compare(a, b, key + "[]", rtol, scales, moves)
    elif isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not (math.isfinite(want) and math.isfinite(got)):
            if repr(want) != repr(got):
                _note(moves, key, f"{want!r} -> {got!r}")
            return
        scale = max(abs(want), abs(got), scales.get(key, 0.0))
        rel = 0.0 if want == got else abs(want - got) / scale
        if rel > rtol:
            _note(moves, key, rel)
    elif type(want) is not type(got) or want != got:
        _note(moves, key, f"{want!r} -> {got!r}")


def _csv_rows(text: str):
    header, *rows = text.splitlines()
    return header.split(","), [[float(v) for v in row.split(",")] for row in rows]


def moves_of(rel: str, want: str, got: str, rtol: float) -> dict:
    """{key or column: largest relative change, or what changed} between
    two versions of one report."""
    moves = {}
    if rel.endswith(".json"):
        want, got = json.loads(want), json.loads(got)
    else:
        (head_w, rows_w), (head_g, rows_g) = _csv_rows(want), _csv_rows(got)
        if head_w != head_g or len(rows_w) != len(rows_g):
            _note(moves, "(shape)", f"{len(rows_w)} rows of {head_w} -> "
                                    f"{len(rows_g)} rows of {head_g}")
            return moves
        want, got = ({c: [r[i] for r in rows] for i, c in enumerate(head_w)}
                     for rows in (rows_w, rows_g))
    scales = {}
    _scales(want, "", scales)
    _compare(want, got, "", rtol, scales, moves)
    return moves


def _report(failures: dict) -> str:
    lines = []
    for rel, moves in failures.items():
        lines.append(rel)
        for key, change in moves.items():
            shown = change if isinstance(change, str) else f"{change:.3g} relative"
            lines.append(f"  {key}: {shown}")
    return "\n".join(lines)


def test_golden_reports_by_value(fresh_run):
    out, _ = fresh_run
    made = {str(f.relative_to(out)) for f in out.glob("*/*")}
    assert made == set(MANIFEST["files"])
    failures = {}
    for rel in sorted(made):
        if rel.endswith(".svg"):
            continue
        moves = moves_of(rel, (GOLDEN / rel).read_text(),
                         (out / rel).read_text(), RTOL)
        if moves:
            failures[rel] = moves
    assert not failures, "reports moved:\n" + _report(failures)


def test_golden_reports_byte_identical(fresh_run):
    out, versions = fresh_run
    if versions != MANIFEST["versions"]:
        pytest.skip(f"versions {versions} are not the manifest's "
                    f"{MANIFEST['versions']}: reports compared by value only")
    failures = {}
    for rel, digest in MANIFEST["files"].items():
        data = (out / rel).read_bytes()
        if hashlib.sha256(data).hexdigest() == digest:
            continue
        failures[rel] = ({"(digest)": "changed"} if rel.endswith(".svg") else
                         moves_of(rel, (GOLDEN / rel).read_text(),
                                  data.decode(), 0.0))
    assert not failures, "reports not byte-identical:\n" + _report(failures)


def test_moves_name_each_key_and_column():
    want = json.dumps({"a": {"b": [1.0, 2.0]}, "s": "x", "n": 3})
    got = json.dumps({"a": {"b": [1.0, 2.0 + 1e-6]}, "s": "y", "n": 3})
    moves = moves_of("r.json", want, got, RTOL)
    assert set(moves) == {"a.b[]", "s"}
    assert moves["a.b[]"] == pytest.approx(5e-7, rel=1e-6)
    assert moves_of("r.csv", "t,x\n1,2\n3,4\n", "t,x\n1,2\n3,4.5\n",
                    RTOL) == {"x[]": pytest.approx(0.5 / 4.5)}
    assert moves_of("r.json", want, want.replace("2.0", "2.0000000000001"),
                    RTOL) == {}
    # a value near zero moves relative to the largest of its column
    assert moves_of("r.csv", "x\n1\n1e-12\n", "x\n1\n1.5e-12\n",
                    RTOL) == {}
    assert moves_of("r.csv", "x\n1\n1e-12\n", "x\n1\n2e-9\n",
                    RTOL) == {"x[]": pytest.approx(2e-9 - 1e-12)}
