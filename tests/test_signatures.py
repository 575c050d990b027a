"""Every keyword default in the package is one that some caller varies.

A default that no call in the package, the benchmark or the tests ever
overrides is a constant in disguise: it adds a setting nobody exercises.
This test parses the sources with `ast` and lists each such keyword as
`module.function(keyword)`.  Calls are matched by the called name alone, so
a keyword counts as passed when any function or method of that name gets
it by name or by position; a call of a class counts for its `__init__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reeblab"
CALLERS = (PACKAGE, ROOT / "perfbench", ROOT / "tests")


def _defaults(fn: ast.FunctionDef, is_method: bool):
    """(keyword, position or None) for each parameter with a default."""
    pos = fn.args.posonlyargs + fn.args.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
        pos = pos[1:]
    out = [(a.arg, i) for i, a in enumerate(pos)
           if i >= len(pos) - len(fn.args.defaults)]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def keyword_defaults() -> dict:
    """{(module, qualname): (called name, [(keyword, position)])} for the
    module-level functions and methods of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found[(path.stem, node.name)] = (node.name, _defaults(node, False))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        called = node.name if fn.name == "__init__" else fn.name
                        found[(path.stem, f"{node.name}.{fn.name}")] = (
                            called, _defaults(fn, True))
    return {k: v for k, v in found.items() if v[1]}


def passed_keywords() -> dict:
    """{called name: (set of keywords passed, largest positional count)}."""
    passed = {}
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                # a starred argument counts as one position: the positions
                # it may fill beyond that are not known from the source
                names, n_pos = passed.setdefault(name, (set(), 0))
                names.update(kw.arg for kw in node.keywords if kw.arg)
                passed[name] = (names, max(n_pos, len(node.args)))
    return passed


def dead_knobs() -> list:
    passed = passed_keywords()
    dead = []
    for (module, qualname), (called, params) in sorted(keyword_defaults().items()):
        names, n_pos = passed.get(called, (set(), 0))
        for kw, pos in params:
            if kw not in names and (pos is None or pos >= n_pos):
                dead.append(f"{module}.{qualname}({kw})")
    return dead


def test_every_keyword_default_is_passed_by_some_caller():
    dead = dead_knobs()
    assert not dead, "keyword defaults no caller passes: " + ", ".join(dead)
