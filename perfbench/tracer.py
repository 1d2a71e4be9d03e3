"""Spans around the public functions and methods of orlicalc's eight modules.

The program has no tracing of its own, so the benchmark wraps, from the
outside, every public function and every public method (and ``__call__``)
of each module, and rebinds each name that another module imported with
``from .x import y``.  A span's key is ``<layer>.<name>``, the layer being
the module that defines the function.  ``install`` puts the wrappers in,
``uninstall`` restores the originals, so an untraced round runs the
program exactly as shipped.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("cli", "alternative", "operators", "diagonality", "spaces",
          "rearrangement", "young", "monotone")

# span names that differ from the attribute name
ALIASES = {"__call__": "eval", "right_inverse": "inverse", "left_inverse": "inverse"}

# spans that also count the points they were asked to evaluate
POINT_SPANS = ("monotone.eval", "young.integral_value")

# per-layer metrics beyond <layer>.calls and <layer>.self_s:
# (name, unit, span key, field)
SPAN_METRICS = [
    ("monotone.eval.calls", "calls/op", "monotone.eval", "calls"),
    ("monotone.eval.points", "points/op", "monotone.eval", "points"),
    ("monotone.cumulative_integral.calls", "calls/op",
     "monotone.cumulative_integral", "calls"),
    ("monotone.inverse.calls", "calls/op", "monotone.inverse", "calls"),
    ("young.integral_value.calls", "calls/op", "young.integral_value", "calls"),
    ("young.integral_value.points", "points/op", "young.integral_value", "points"),
    ("young.integral_inverse.calls", "calls/op", "young.integral_inverse", "calls"),
    ("young.conjugate.calls", "calls/op", "young.conjugate", "calls"),
    ("young.conjugate.self_s", "s/op", "young.conjugate", "self_s"),
    ("young.dominates.calls", "calls/op", "young.dominates", "calls"),
    ("rearrangement.modular.calls", "calls/op", "rearrangement.modular", "calls"),
    ("operators.exp_weight_transform.calls", "calls/op",
     "operators.exp_weight_transform", "calls"),
    ("operators.exp_weight_transform.self_s", "s/op",
     "operators.exp_weight_transform", "self_s"),
    ("diagonality.integrate_outer_reciprocal.calls", "calls/op",
     "diagonality.integrate_outer_reciprocal", "calls"),
    ("diagonality.integrate_outer_reciprocal.self_s", "s/op",
     "diagonality.integrate_outer_reciprocal", "self_s"),
    ("diagonality.build_gw.calls", "calls/op", "diagonality.build_gw", "calls"),
    ("spaces.fundamental_function.calls", "calls/op",
     "spaces.fundamental_function", "calls"),
]

RATIO_METRICS = [
    # (name, unit, numerator key, numerator field, denominator key)
    ("monotone.eval.points_per_call", "points/call", "monotone.eval", "points",
     "monotone.eval"),
    ("rearrangement.modular_per_luxemburg", "calls/call", "rearrangement.modular",
     "calls", "rearrangement.luxemburg_norm"),
]


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
    units.update({name: unit for name, unit, *_ in SPAN_METRICS})
    units.update({name: unit for name, unit, *_ in RATIO_METRICS})
    return units


class Tracer:
    def __init__(self):
        self.stats = {}         # span key -> [calls, self seconds, points]
        self.active = False
        self._stack = []        # time spent in child spans, one slot per open span
        self._patches = []      # (owner, attribute, original, wrapped)
        originals = {}          # id(original function) -> wrapper
        modules = [importlib.import_module(f"orlicalc.{m}") for m in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    originals[id(obj)] = (obj, wrapped)
                    self._patches.append((mod, name, obj, wrapped))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # names bound in other modules (and the package) by ``from .x import y``
        for mod in modules + [importlib.import_module("orlicalc")]:
            for name, obj in vars(mod).items():
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj and obj.__module__ != mod.__name__:
                    self._patches.append((mod, name, obj, hit[1]))

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            key = f"{layer}.{ALIASES.get(name, name)}"
            if isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(key, attr.__func__))
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(key, attr.__func__, first_arg=1))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(key, attr, first_arg=1)
            else:
                continue
            self._patches.append((cls, name, attr, wrapped))

    def _wrap(self, key, fn, first_arg=0):
        """``first_arg`` is the position of the first argument after
        ``self`` or ``cls``: the one whose points a point span counts."""
        stats = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        count_points = key in POINT_SPANS

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if count_points:
                    x = args[first_arg]
                    stats[2] += x.size if isinstance(x, np.ndarray) else np.size(x)

        span.__wrapped__ = fn
        return span

    def install(self):
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def metrics(self, n_ops):
        """Per-layer metrics, each per traced operation."""
        n = max(n_ops, 1)
        field = {"calls": 0, "self_s": 1, "points": 2}
        get = lambda key, fld: self.stats.get(key, (0, 0.0, 0))[field[fld]]
        out = {}
        for layer in LAYERS:
            mine = [s for k, s in self.stats.items() if k.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(s[0] for s in mine) / n
            out[f"{layer}.self_s"] = sum(s[1] for s in mine) / n
        for name, _, key, fld in SPAN_METRICS:
            out[name] = get(key, fld) / n
        for name, _, key, fld, den in RATIO_METRICS:
            d = get(den, "calls")
            out[name] = get(key, fld) / d if d else 0.0
        return out
