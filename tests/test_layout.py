"""Layout rules for the package source, checked with the standard ``ast``
module: imports sit at module level, and every top-level function is used
somewhere in the source or the tests."""

import ast
import pathlib
import re

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
    files = SOURCES + sorted((ROOT / "tests").glob("*.py"))
    texts = {path: path.read_text() for path in files}
    unused = []
    for path in SOURCES:
        lines = texts[path].splitlines()
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # the function's own lines (its definition, docstring and body)
            # do not count as a use
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            others = [t for p, t in texts.items() if p != path] + ["\n".join(rest)]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(text) for text in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "top-level functions used nowhere: " + ", ".join(unused)
