"""Command-line front end: parse descriptors, run the decision procedures,
and emit human-readable or JSON reports with witnesses and rule tags.

Exit codes: 0 for decided outcomes, 2 for undecided ones, 1 for input
errors, usage errors included.  All numerics are deterministic, so
identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shlex
import sys

import numpy as np

from .alternative import (
    AlternativeOutcome,
    principal_alternative_domain,
    principal_alternative_target,
)
from .diagonality import (
    UNKNOWN,
    construct_witness_young,
    lifted_norm,
    orlicz_lambda_Nlambda,
    subdiagonality_status,
)
from .monotone import GLOBAL, NEAR_INFINITY, NEAR_ZERO
from .operators import (
    SobolevContext,
    laplace_interpolation_sufficient,
    laplace_optimal_target,
    maximal_optimal_domain,
    maximal_optimal_target,
    sobolev_no_largest_on_level,
    sobolev_optimal_target_fundamental,
    sobolev_orlicz_domain,
    sobolev_target_condition,
)
from .rearrangement import SampledFn, luxemburg_norm
from .spaces import SpaceDescriptor, fundamental_function, norm as space_norm
from .young import (
    HOLDS,
    UNDECIDED,
    QuasiConvexFn,
    conjugate,
    dominates,
    linfty_young,
    young_from_json,
    young_to_json,
)


class InputError(ValueError):
    pass


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what} at position {exc.pos}: {exc.msg}")


def _young_arg(text):
    if text == "linfty":
        return linfty_young()
    try:
        return young_from_json(_load_json(text, "function"))
    except InputError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad function description: {exc}")


def _space_arg(text):
    try:
        return SpaceDescriptor.from_json(_load_json(text, "space"))
    except InputError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad space description: {exc}")


def _samples_arg(args):
    try:
        if args.samples:
            with open(args.samples) as fh:
                return SampledFn.from_csv(fh.read())
        if getattr(args, "fn", None):
            return SampledFn.from_json(_load_json(args.fn, "sampled function"))
    except InputError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad sampled function: {exc}")
    raise InputError("provide --samples FILE.csv or --fn JSON")


def _points(args, lo=1e-8, hi=1e8):
    if getattr(args, "at", None):
        return [float(x) for x in args.at.split(",")]
    return list(np.geomspace(lo, hi, 9))


def _num(x):
    if x is None:
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _verdict_json(v):
    return {"status": v.status, "witness": _num(v.witness), "reason": v.reason}


class Report:
    """One query's echo, outcome, witnesses and the rule applied."""

    def __init__(self, query, outcome, exit_code=0, rule=None):
        self.query = query
        self.outcome = outcome
        self.exit_code = exit_code
        self.rule = rule

    def to_json(self):
        out = {"query": self.query, "outcome": self.outcome}
        if self.rule:
            out["rule"] = self.rule
        return out

    def render(self):
        lines = [f"query: {self.query}"]
        lines.append(json.dumps(self.outcome, sort_keys=True, default=str))
        if self.rule:
            lines.append(f"rule: {self.rule}")
        return "\n".join(lines)


def _exit_for_result(result):
    return 2 if result in (UNDECIDED, UNKNOWN) else 0


def _outcome_report(query, out: AlternativeOutcome):
    """The report of an optimal-Orlicz outcome, its exit code read off its result."""
    d = {
        "side": out.side,
        "result": out.result,
        "space": out.space.to_json() if out.space is not None else None,
        "label": out.space.label() if out.space is not None else None,
        "evidence": _verdict_json(out.evidence),
        "rule": out.rule,
    }
    if out.extra:
        d["witness_data"] = {k: _num(v) if isinstance(v, float) else v
                             for k, v in out.extra.items()}
    return Report(query, d, exit_code=_exit_for_result(out.result), rule=out.rule)


# -- handlers -----------------------------------------------------------------


def _cmd_conj(args):
    A = _young_arg(args.young)
    At = conjugate(A)
    pts = _points(args)
    vals = {str(p): _num(float(v)) for p, v in zip(pts, At(pts))}
    return Report({"op": "conj"}, {"function": young_to_json(At), "values": vals})


def _cmd_inverse(args):
    A = _young_arg(args.young)
    inv = A.base.right_inverse() if args.side == "right" else A.base.left_inverse()
    pts = _points(args)
    vals = {str(p): _num(float(inv(p))) for p in pts}
    return Report({"op": "inverse", "side": args.side}, {"values": vals})


def _cmd_dominates(args):
    A = _young_arg(args.young)
    B = _young_arg(args.below)
    v = dominates(A, B, args.regime)
    return Report({"op": "dominates", "regime": args.regime}, _verdict_json(v),
                  exit_code=_exit_for_result(v.status), rule="dilation-order")


def _cmd_norm(args):
    X = _space_arg(args.space)
    f = _samples_arg(args)
    if X.family == "orlicz":
        val = luxemburg_norm(f, X.generator, rel_tol=args.tol)
    else:
        val = space_norm(X, f)
    return Report({"op": "norm", "space": X.label()}, {"value": _num(float(val))})


def _cmd_fundamental(args):
    X = _space_arg(args.space)
    phi = fundamental_function(X)
    pts = _points(args, lo=1e-6, hi=1.0 if X.interval == "unit" else 1e4)
    vals = {str(p): _num(float(phi(p))) for p in pts}
    return Report({"op": "fundamental", "space": X.label()}, {"values": vals})


def _cmd_alternative(args):
    X = _space_arg(args.space)
    out = principal_alternative_target(X) if args.side == "target" \
        else principal_alternative_domain(X)
    return _outcome_report({"op": "alternative", "side": args.side, "space": X.label()}, out)


def _cmd_sobolev(args):
    ctx = SobolevContext(args.m, args.n)
    if args.side == "domain":
        text = args.target
        if text is None:
            raise InputError("provide --target: a function, a space or 'linfty'")
        obj = None if text == "linfty" else _load_json(text, "target")
        if obj is None or (isinstance(obj, dict) and "class" in obj):
            out = sobolev_orlicz_domain(_young_arg(text), ctx)
        else:
            out = sobolev_no_largest_on_level(_space_arg(text), ctx)
        return _outcome_report({"op": "sobolev", "side": "domain", "m": args.m, "n": args.n},
                               out)
    # target side: profile transform under the contraction condition
    X = _space_arg(args.space)
    phi = fundamental_function(X)
    cond = sobolev_target_condition(phi, ctx)
    payload = {"condition": _verdict_json(cond)}
    code = _exit_for_result(cond.status)
    if cond.status == HOLDS:
        phi_y = sobolev_optimal_target_fundamental(phi, ctx)
        pts = _points(args, lo=1e-6, hi=0.9)
        payload["target_profile"] = {str(p): _num(float(phi_y(p))) for p in pts}
    return Report({"op": "sobolev", "side": "target", "m": args.m, "n": args.n},
                  payload, exit_code=code, rule="contraction-condition")


def _cmd_maximal(args):
    A = _young_arg(args.young)
    out = maximal_optimal_target(A) if args.side == "target" \
        else maximal_optimal_domain(A)
    return _outcome_report({"op": "maximal", "side": args.side}, out)


def _cmd_laplace(args):
    A = _young_arg(args.young)
    if args.side == "sufficient":
        v, target = laplace_interpolation_sufficient(A)
        payload = {"verdict": _verdict_json(v)}
        if target is not None:
            payload["target"] = young_to_json(target)
        return Report({"op": "laplace", "side": "sufficient"}, payload,
                      exit_code=_exit_for_result(v.status),
                      rule="interpolation-sufficient")
    return _outcome_report({"op": "laplace", "side": "target"}, laplace_optimal_target(A))


def _cmd_diag(args):
    X = _space_arg(args.space)
    st = subdiagonality_status(X)
    payload = {"status": st.status, "sub": _verdict_json(st.sub),
               "uniform": _verdict_json(st.uniform)}
    return Report({"op": "diag", "space": X.label()}, payload,
                  exit_code=_exit_for_result(st.status), rule=st.rule)


def _cmd_witness(args):
    E = QuasiConvexFn(_young_arg(args.generator).base)
    f = _samples_arg(args)
    A = construct_witness_young(f, E)
    n1 = orlicz_lambda_Nlambda(A, E, 1.0)
    payload = {"witness": young_to_json(A),
               "certificate_at_unit_scale": _num(float(n1))}
    return Report({"op": "witness"}, payload, rule="weight-along-levels")


def _cmd_lift(args):
    F = _young_arg(args.young)
    X = _space_arg(args.space)
    f = _samples_arg(args)
    val = lifted_norm(F, X, f, rel_tol=args.tol)
    return Report({"op": "lift", "space": X.label()}, {"value": _num(float(val))})


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`InputError`, so
    that they end like every other input error and leave a batch running."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(
        prog="orlicalc",
        description="norm evaluation and optimal-space decisions for "
                    "Orlicz-type function spaces")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative width at which the gauge search of norm "
                        "(Orlicz spaces) and lift stops; the bracket that its "
                        "root phase certifies does not depend on it")
    p.add_argument("--batch", metavar="FILE",
                   help="run one query per line of FILE (shell-style words)")
    sub = p.add_subparsers(dest="cmd")

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=fn)
        return sp

    sp = add("conj", _cmd_conj, help="convex conjugate of a Young function")
    sp.add_argument("--young", required=True)
    sp.add_argument("--at", help="comma-separated evaluation points")

    sp = add("inverse", _cmd_inverse, help="generalized inverse of a function")
    sp.add_argument("--young", required=True)
    sp.add_argument("--side", choices=["right", "left"], default="right")
    sp.add_argument("--at")

    sp = add("dominates", _cmd_dominates,
             help="decide whether the second function sits below a dilation "
                  "of the first")
    sp.add_argument("--young", required=True, help="the dominating function")
    sp.add_argument("--below", required=True, help="the dominated function")
    sp.add_argument("--regime", choices=[NEAR_ZERO, NEAR_INFINITY, GLOBAL],
                    default=GLOBAL)

    sp = add("norm", _cmd_norm, help="norm of a sampled function")
    sp.add_argument("--space", required=True)
    sp.add_argument("--samples", help="CSV file with value,width rows")
    sp.add_argument("--fn", help="sampled function as JSON")

    sp = add("fundamental", _cmd_fundamental,
             help="fundamental function of a space")
    sp.add_argument("--space", required=True)
    sp.add_argument("--at")

    sp = add("alternative", _cmd_alternative,
             help="smallest/largest Orlicz space on a fundamental level")
    sp.add_argument("side", choices=["target", "domain"])
    sp.add_argument("--space", required=True)

    sp = add("sobolev", _cmd_sobolev, help="optimal spaces in the gradient "
                                           "embedding setting")
    sp.add_argument("side", choices=["domain", "target"])
    sp.add_argument("--target", help="Orlicz target (function JSON, space "
                                     "JSON, or 'linfty') for the domain side")
    sp.add_argument("--space", help="domain space JSON for the target side")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--at")

    sp = add("maximal", _cmd_maximal,
             help="optimal Orlicz spaces for the averaging maximal operator")
    sp.add_argument("side", choices=["target", "domain"])
    sp.add_argument("--young", required=True)

    sp = add("laplace", _cmd_laplace,
             help="optimal Orlicz target for the exponential-kernel transform")
    sp.add_argument("side", choices=["target", "sufficient"])
    sp.add_argument("--young", required=True)

    sp = add("diag", _cmd_diag, help="(uniform) sub-diagonality of a space")
    sp.add_argument("--space", required=True)

    sp = add("witness", _cmd_witness,
             help="Orlicz witness containing a sampled function inside a "
                  "strong endpoint space")
    sp.add_argument("--generator", required=True)
    sp.add_argument("--samples")
    sp.add_argument("--fn")

    sp = add("lift", _cmd_lift, help="norm in a composition space")
    sp.add_argument("--young", required=True)
    sp.add_argument("--space", required=True)
    sp.add_argument("--samples")
    sp.add_argument("--fn")
    return p


def _run_one(parser, argv, stream, where=""):
    """Run one query; ``where`` prefixes its error line (a batch line's
    number)."""
    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        print(f"error: {where}{exc}", file=stream)
        return 1
    if args.batch:
        return _run_batch(parser, args.batch, stream)
    if not getattr(args, "handler", None):
        parser.print_usage(stream)
        return 1
    try:
        report = args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {where}{exc}", file=stream)
        return 1
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True, default=str),
              file=stream)
    else:
        print(report.render(), file=stream)
    return report.exit_code


def _run_batch(parser, path, stream):
    """One query per line of the file at ``path``; a bad line reports its
    number and the batch goes on.  The exit code is 1 where any line had an
    input error, else the largest of the lines' codes."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=stream)
        return 1
    codes = {0}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {number}: "
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            print(f"error: {where}{exc}", file=stream)
            codes.add(1)
            continue
        codes.add(_run_one(parser, argv, stream, where))
    return 1 if 1 in codes else max(codes)


@functools.cache
def shared_parser():
    """The one parser of this process, built on first use: every call of
    :func:`main` and every line of a batch parse with it."""
    return build_parser()


def main(argv=None):
    return _run_one(shared_parser(), argv if argv is not None else sys.argv[1:],
                    sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
