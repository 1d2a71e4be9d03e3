"""Layout rules for the package source, checked with the standard ``ast``
module: imports sit at module level, scipy is named only inside the
incomplete-gamma kernel, which loads ``scipy.special`` on its first call
(a power-log Young function below its grid makes none),
growth classes are never read from a generator's ``recipe``, step functions
are read through their ``values`` and ``widths`` arrays, never their
``pieces`` list, no loop calls the certificate kernel
``integrate_outer_reciprocal``, only the gauge search ``gauge_norm`` calls
the scale search ``least_admissible_scale`` and its root phase
``_certified_bracket``, optimality outcomes are read off their verdicts,
the edge slopes of a table are read only when it is built, an inverse is
built only by the table methods that keep it, no function keeps state at
module level (the CLI's parser is the one memoized function), and every
top-level function and class is used somewhere in the source or the
tests."""

import ast
import json
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


# the one function allowed a run-time import: the incomplete-gamma kernel
# imports scipy.special on its first call, so that importing the package
# (and a CLI query that needs no incomplete gamma) does not load scipy
GAMMA_KERNEL = ("monotone.py", "_log_gamma_mass")


def _kernel_lines(path, tree):
    if path.name != GAMMA_KERNEL[0]:
        return set()
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == GAMMA_KERNEL[1])
    return set(range(fn.lineno, fn.end_lineno + 1))


def _is_runtime_import(node):
    """A call of ``importlib.import_module``, ``import_module`` or ``__import__``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name in ("import_module", "__import__")


def test_no_imports_inside_functions():
    found, kernel_calls = [], 0
    for path in SOURCES:
        tree = parse(path)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
        allowed = _kernel_lines(path, tree)
        for node in ast.walk(tree):
            if _is_runtime_import(node):
                if node.lineno in allowed:
                    kernel_calls += 1
                else:
                    found.append(f"{path.name}:{node.lineno} run-time import")
    assert not found, "function-local imports: " + ", ".join(found)
    assert kernel_calls == 1


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


def test_scipy_only_inside_the_gamma_kernel():
    found = []
    for path in SOURCES:
        allowed = _kernel_lines(path, parse(path))
        found += [f"{path.name}:{i}" for i, line in enumerate(path.read_text().splitlines(), 1)
                  if "scipy" in line and i not in allowed]
    assert not found, "scipy outside the incomplete-gamma kernel: " + ", ".join(found)


def test_cli_import_loads_no_scipy_until_a_query_needs_it():
    query = ["--json", "maximal", "target", "--young", '{"class":"power-log","p":2}']
    code = ("import sys, orlicalc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            f"orlicalc.cli.main({query!r})")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    loaded, report = out.stdout.splitlines()
    assert loaded == "[]"
    assert json.loads(report)["outcome"]["result"] == "optimal"


def test_log_factor_head_loads_no_scipy():
    # a log factor's head is e**z Gamma(alpha + 1, z) with z = 2 l log(1e8)
    # > alpha + 1, which numpy alone integrates from its lower end: building
    # the function takes the head at its first node, and A(1e-12) below it
    code = ("import sys; from orlicalc.young import power_log_young; "
            "A = power_log_young(2, 1, 1); assert 0.0 < A(1e-12) < A(1e-8); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert out.stdout.strip() == "[]"


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


def test_no_loop_calls_the_outer_reciprocal_kernel():
    # integrate_outer_reciprocal takes many rows (c, lo, hi) in one call;
    # a loop of one-row calls pays the kernel's fixed cost once per row
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for loop in ast.walk(parse(path)) if isinstance(loop, loops)
             for node in ast.walk(loop)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "integrate_outer_reciprocal"]
    assert not found, "integrate_outer_reciprocal called in a loop: " + ", ".join(found)


def test_one_scale_search():
    # every gauge norm goes through gauge_norm's certified root phase and
    # replayed bisection; no other code runs a scale search of its own
    found = []
    for path in SOURCES:
        for fn in ast.walk(parse(path)):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "gauge_norm":
                continue
            found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in ("least_admissible_scale", "_certified_bracket")]
    assert not found, "scale search outside gauge_norm: " + ", ".join(found)


def test_outcomes_are_read_off_their_verdicts():
    # an outcome's result and a diagonality status are properties of their
    # verdicts: no record stores them, and no module outside alternative.py
    # maps a verdict to a result by name
    names = {"OPTIMAL", "NO_OPTIMAL", "UNDECIDED_OUTCOME"}
    found = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if path.name != "alternative.py":
                named = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                         else {node.id} if isinstance(node, ast.Name) else set())
                found += [f"{path.name}:{node.lineno} {n}" for n in sorted(named & names)]
            if isinstance(node, ast.ClassDef) and node.name in ("AlternativeOutcome",
                                                                "DiagonalityStatus"):
                found += [f"{path.name}:{field.lineno} {node.name}.{field.target.id}"
                          for field in node.body if isinstance(field, ast.AnnAssign)
                          and field.target.id in ("result", "status")]
    assert not found, "stored or hand-mapped outcomes: " + ", ".join(found)


def test_edge_slopes_are_read_only_when_a_table_is_built():
    # MonotoneFn.__init__ turns a numeric-only end into the power of its
    # edge segment; every other reader takes that power off the descriptor
    found = []
    for path in SOURCES:
        tree = parse(path)
        init = next((fn for cls in tree.body if isinstance(cls, ast.ClassDef)
                     and cls.name == "MonotoneFn" for fn in cls.body
                     if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"), None)
        allowed = set(range(init.lineno, init.end_lineno + 1)) if init else set()
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_edge_slope"
                  and node.lineno not in allowed]
    assert not found, "edge slopes read outside MonotoneFn.__init__: " + ", ".join(found)


# the only callers of the inverse builder: the two methods that store its
# table on the MonotoneFn, so that every inverse is built once per side
INVERSE_BUILDERS = {"right_inverse", "left_inverse"}


def test_every_inverse_goes_through_the_table():
    # no other code names the builder: not a call, an import or an alias
    found = []
    for path in SOURCES:
        tree = parse(path)
        allowed = {line for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   and fn.name in INVERSE_BUILDERS
                   for line in range(fn.lineno, fn.end_lineno + 1)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if ((isinstance(node, ast.Name) and node.id == "_inverse")
                      or (isinstance(node, ast.Attribute) and node.attr == "_inverse")
                      or (isinstance(node, ast.alias) and node.name == "_inverse"))
                  and node.lineno not in allowed]
    assert not found, "inverse built outside right_inverse / left_inverse: " \
        + ", ".join(found)


# the one function allowed a memo: the CLI's argument parser, built once
MEMOIZED = ("cli.py", "shared_parser")
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop",
             "popitem", "clear", "remove", "discard", "sort", "fill", "put", "resize"}


def _base_name(node):
    """The name at the root of a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_names(tree):
    return {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for t in ast.walk(t) if isinstance(t, ast.Name)}


def _local_names(fn):
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg,
                                                                          args.kwarg) if a]
    return {a.arg for a in params} | {node.id for node in ast.walk(fn)
                                      if isinstance(node, ast.Name)
                                      and isinstance(node.ctx, ast.Store)}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_function_keeps_state_at_module_level():
    # speed comes from work on whole arrays, not from caches at module
    # level: no function declares ``global`` or writes into a container
    # bound at module level, and functools' memos sit on the CLI's parser.
    # What is derived from one immutable table may live on that table (a
    # MonotoneFn's slope array and inverses, a generator's char_profile and
    # its E.gw companion): it goes when the table goes
    found = []
    for path in SOURCES:
        tree = parse(path)
        module = _module_names(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(fn, ast.Lambda):
                found += [f"{path.name}:{d.lineno} {fn.name} memoized"
                          for d in fn.decorator_list
                          if _decorator_name(d) in ("cache", "lru_cache")
                          and (path.name, fn.name) != MEMOIZED]
            shared = module - _local_names(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    found.append(f"{path.name}:{node.lineno} global")
                elif (isinstance(node, (ast.Subscript, ast.Attribute))
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      and _base_name(node) in shared):
                    found.append(f"{path.name}:{node.lineno} writes {_base_name(node)}")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS and _base_name(node.func) in shared):
                    found.append(f"{path.name}:{node.lineno} {node.func.attr} on "
                                 f"{_base_name(node.func)}")
    assert not found, "module-level state written by functions: " + ", ".join(found)
