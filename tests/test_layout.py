"""Layout rules for the package source, checked with the standard ``ast``
module: imports sit at module level, scipy is used through ``scipy.special``
alone, growth classes are never read from a generator's ``recipe``, step
functions are read through their ``values`` and ``widths`` arrays, never
their ``pieces`` list, and every top-level function and class is used
somewhere in the source or the tests."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orlicalc"
SOURCES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_imports_inside_functions():
    found = []
    for path in SOURCES:
        for fn in ast.walk(parse(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert not found, "function-local imports: " + ", ".join(found)


def test_every_top_level_function_is_used():
    # classes count too: a definition of either kind must have a use
    files = SOURCES + sorted((ROOT / "tests").glob("*.py"))
    texts = {path: path.read_text() for path in files}
    unused = []
    for path in SOURCES:
        lines = texts[path].splitlines()
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            # the definition's own lines (its signature, docstring and body)
            # do not count as a use
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            others = [t for p, t in texts.items() if p != path] + ["\n".join(rest)]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(text) for text in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "top-level definitions used nowhere: " + ", ".join(unused)


def test_scipy_only_through_special():
    found = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                mods = ["scipy." + alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                mods = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {mod}" for mod in mods
                      if mod.split(".")[0] == "scipy"
                      and mod.split(".")[:2] != ["scipy", "special"]]
    assert not found, "scipy imports other than scipy.special: " + ", ".join(found)


def test_import_loads_no_heavy_scipy_modules():
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse"]
    code = ("import sys, orlicalc; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert out.stdout.split() == []


def _recipe_reads(tree):
    """Line numbers that read a ``recipe``: the attribute, the name, or the
    string given to ``getattr``."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "recipe")
            or (isinstance(node, ast.Name) and node.id == "recipe")
            or (isinstance(node, ast.Constant) and node.value == "recipe")]


def test_recipe_is_read_only_by_young_and_labels():
    found = []
    for path in SOURCES:
        if path.name == "young.py":
            continue
        tree = parse(path)
        allowed = set()
        for node in tree.body:
            if path.name == "spaces.py" and getattr(node, "name", None) == "_gen_label":
                allowed = set(range(node.lineno, node.end_lineno + 1))
        found += [f"{path.name}:{line}" for line in _recipe_reads(tree)
                  if line not in allowed]
    assert not found, "recipe read outside young.py and spaces._gen_label: " \
        + ", ".join(found)


def test_step_functions_are_read_through_their_arrays():
    # ``SampledFn.pieces`` is a list of tuples kept for callers outside the
    # package; inside it the arrays are the one representation
    found = [f"{path.name}:{node.lineno}" for path in SOURCES for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "pieces"]
    assert not found, "reads of .pieces: " + ", ".join(found)
