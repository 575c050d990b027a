"""Spans and counters recorded around calls into reeblab's public functions.

While installed, a Tracer replaces each function in WRAPPED, in every
reeblab module that holds it, by a wrapper that records one span (name,
start, end, parent span) per call and updates a few counters; uninstalling
restores the originals.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# float64 arrays of n1*n2 elements, counting each of 3 components, that
# knots.gauss_linking_r3 builds per call: diff (3), dist (1), cross (3),
# the einsum product (1), dist**3 (1) and the quotient (1).
PAIR_DOUBLES = 10


def _after_eigh(tr, args, result):
    a = np.asarray(args[0], float)
    w, v = result
    resid = float(np.linalg.norm(a @ v - v * w) / np.linalg.norm(a))
    tr.peak["eigh_residual"] = max(tr.peak["eigh_residual"], resid)
    tr.peak["eigh_dim"] = max(tr.peak["eigh_dim"], a.shape[0])


def _after_solve(tr, args, rep):
    tr.counts["n_excluded"] += rep.n_excluded


def _after_scan(tr, args, result):
    cands, diags = result
    tr.counts["scan_components"] += len(cands) + sum(
        d.get("status") == "excluded" for d in diags)


def _after_r3(tr, args, result):
    tr.counts["pair_bytes"] += 8 * PAIR_DOUBLES * len(args[0]) * len(args[1])


def _after_svg(tr, args, svg):
    tr.counts["svg_bytes"] += len(svg.encode())


def _after_dumps(tr, args, text):
    tr.counts["report_bytes"] += len(text.encode())


COUNT_CALLS = object()

# (module, function, span name, hook run on the result after the span ends)
WRAPPED = [
    ("jacobi", "jacobi_eigh", "jacobi.eigh", _after_eigh),
    ("spectrum", "assemble_matrix", "spectrum.assemble", None),
    ("spectrum", "discretize_and_solve", "spectrum.solve", _after_solve),
    ("spectrum", "spectrum_property_audit", "spectrum.audit", None),
    ("orbits", "validate_structure", "orbits.structure", None),
    ("orbits", "resonant_orbit_scan", "orbits.scan", _after_scan),
    ("orbits", "planar_period_and_area", "orbits.period_area", None),
    ("orbits", "planar_rhs", None, COUNT_CALLS),
    ("orbits", "separatrix_and_homoclinics", "orbits.separatrix", None),
    ("model", "integrate_flow", "model.integrate_flow", None),
    ("model", "restrict_linearized_to_xi", "model.variational", None),
    ("czindex", "winding_interval", "czindex.winding_interval", None),
    ("czindex", "frame_correction_for", "czindex.frame_correction", None),
    ("knots", "gauss_linking", "knots.gauss_linking", None),
    ("knots", "gauss_linking_r3", "knots.gauss_linking_r3", _after_r3),
    ("leaves", "integrate_profile", "leaves.profile", None),
    ("leaves", "leaf_diagnostics", "leaves.diagnostics", None),
    ("svgplot", "plot_levels", "svgplot.plot", _after_svg),
    ("svgplot", "plot_atlas", "svgplot.plot", _after_svg),
    ("svgplot", "plot_separatrix", "svgplot.plot", _after_svg),
    ("svgplot", "plot_orbit_projection", "svgplot.plot", _after_svg),
    ("cli", "dumps", "cli.report", _after_dumps),
]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.counts = Counter()
        self.peak = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.t0, None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter() - self.t0

    def _wrap(self, fn, name, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _count_rhs(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def planar_rhs(p):
            rhs = fn(p)

            def counted(t, z):
                counts["planar_rhs"] += 1
                return rhs(t, z)

            return counted

        return planar_rhs

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of WRAPPED wherever reeblab holds it."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "reeblab" or n.startswith("reeblab.")]
        patched = []
        try:
            for modname, fname, name, after in WRAPPED:
                orig = getattr(importlib.import_module(f"reeblab.{modname}"), fname)
                new = (self._count_rhs(orig) if after is COUNT_CALLS
                       else self._wrap(orig, name, after))
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, new)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def dump(self, path) -> None:
        path.write_text(json.dumps({
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "peak": dict(self.peak),
        }, indent=1) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Times are inclusive and summed over the outermost calls of each
        function in the traced pass.  `orbits.structure_s` is the set-up's
        validate_structure, the part of `setup_s` it owns.
        """
        spans = self.spans

        def chain(i):
            out = []
            while spans[i][3] is not None:
                i = spans[i][3]
                out.append(i)
            return out

        roots = {}
        for i in range(len(spans)):
            up = chain(i)
            roots[i] = spans[up[-1]][0] if up else spans[i][0]

        def select(name, root="pass"):
            return [i for i, s in enumerate(spans)
                    if s[0] == name and roots[i] == root]

        def seconds(name, root="pass"):
            return sum(spans[i][2] - spans[i][1] for i in select(name, root)
                       if not any(spans[a][0] == name for a in chain(i)))

        def calls(name):
            return len(select(name))

        post = 0.0
        for i in select("spectrum.solve"):
            post += spans[i][2] - spans[i][1]
            post -= sum(s[2] - s[1] for s in spans
                        if s[3] == i and s[0] in ("jacobi.eigh", "spectrum.assemble"))
        traces = sum(1 for i in select("orbits.period_area")
                     if any(spans[a][0] == "orbits.scan" for a in chain(i)))
        c, pk = self.counts, self.peak
        return {
            "jacobi.eigh_s": (seconds("jacobi.eigh"), "s"),
            "jacobi.eigh_calls": (calls("jacobi.eigh"), "count"),
            "jacobi.eigh_dim": (pk["eigh_dim"], "rows"),
            "jacobi.eigh_residual": (float(pk["eigh_residual"]), "ratio"),
            "spectrum.assemble_s": (seconds("spectrum.assemble"), "s"),
            "spectrum.post_s": (post, "s"),
            "spectrum.audit_s": (seconds("spectrum.audit"), "s"),
            "spectrum.n_excluded": (c["n_excluded"], "count"),
            "orbits.scan_s": (seconds("orbits.scan"), "s"),
            "orbits.period_area_calls": (calls("orbits.period_area"), "count"),
            "orbits.planar_rhs_evals": (c["planar_rhs"], "count"),
            "orbits.scan_components_per_trace": (
                c["scan_components"] / traces if traces else 0.0, "ratio"),
            "orbits.separatrix_s": (seconds("orbits.separatrix"), "s"),
            "orbits.separatrix_calls": (calls("orbits.separatrix"), "count"),
            "orbits.structure_s": (seconds("orbits.structure", "setup"), "s"),
            "model.integrate_flow_s": (seconds("model.integrate_flow"), "s"),
            "model.variational_s": (seconds("model.variational"), "s"),
            "czindex.winding_interval_s": (seconds("czindex.winding_interval"), "s"),
            "czindex.frame_correction_s": (seconds("czindex.frame_correction"), "s"),
            "knots.gauss_linking_s": (seconds("knots.gauss_linking"), "s"),
            "knots.gauss_linking_calls": (calls("knots.gauss_linking"), "count"),
            "knots.pair_bytes_computed": (c["pair_bytes"], "B"),
            "leaves.profile_s": (seconds("leaves.profile"), "s"),
            "leaves.diagnostics_s": (seconds("leaves.diagnostics"), "s"),
            "svgplot.plot_s": (seconds("svgplot.plot"), "s"),
            "svgplot.svg_bytes": (c["svg_bytes"], "B"),
            "cli.report_s": (seconds("cli.report"), "s"),
            "cli.report_bytes": (c["report_bytes"], "B"),
        }
