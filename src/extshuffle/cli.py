"""Command-line front end.

Exit codes, all set in ``main``: 0 on success or a passing check; 1 on a
failing check (a relation scan fails if any relation does), a divergent
composition, a vanishing denominator, a non-converged result, or a reader
that closed standard output early; 2 on usage errors (unparseable or bad
arguments, checked before convergence, and inputs too large for the process
to compute).  All data output is deterministic given the flags, and exact
output is never cut: the interpreter's limit on digits in int-to-text
conversion is lifted while results are formatted, not while input is parsed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

from . import __version__
from .algebra import _clip, format_composition as _fmt
from .chenfrac import VanishingDenominatorError, evaluate, evaluation_panel, variables
from .convergence import DivergentError, require_convergent
from .parsing import parse_assignment, parse_composition, parse_fraction, parse_symbol
from .relations import enumerate_relations
from .shuffle import ext_shuffle, stuffle
from .symbols import symbol_product
from .zeta import DEFAULT_MAX_N, verify_homomorphism, zeta


# an argument of over 60 characters as argparse echoes it: quoted, as in
# "invalid int value: '...'", or bare, as in "unrecognized arguments: ..."
_ECHO = re.compile(r"'[^']{60,}'|\"[^\"]{60,}\"|\S{61,}")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors are one ``error:`` line of at
    most 200 characters, without the usage text, each long argument it
    echoes cut as ``_clip`` does; its subcommand parsers are of this class too."""

    def error(self, message):
        line = "error: " + _ECHO.sub(lambda m: _clip(m[0]), message)
        self.exit(2, (line if len(line) <= 200 else line[:197] + "...") + "\n")


def _finite(x):
    """``x``, or ``None`` (JSON ``null``, not the non-standard ``Infinity``) if not finite."""
    return x if math.isfinite(x) else None


@contextlib.contextmanager
def _exact_text():
    """Format exact results of any length: lift the interpreter's digit limit
    on int-to-text conversion, where it has one, and restore it after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_product(args) -> int:
    result = args.product(args.parse(args.a), args.parse(args.b))
    with _exact_text():
        print(json.dumps(result.to_json_dict()) if args.json else result)
    return 0


def _cmd_fraction_eval(args) -> int:
    frac = parse_fraction(args.fraction)
    if args.points:
        point = {}
        for index, value in map(parse_assignment, args.points):
            if index in point:
                raise ValueError(f"variable {_clip(index)} is assigned more than once")
            point[index] = value
        value = evaluate(frac, point)
        with _exact_text():
            print(json.dumps({"fraction": str(frac), "value": str(value)}) if args.json else value)
        return 0
    # no explicit point: evaluate across the seeded panel
    panel = evaluation_panel(variables(frac), seed=args.seed)
    rows = []
    with _exact_text():
        for point in panel:
            value = evaluate(frac, point)
            rows.append(
                {
                    "point": {str(i): str(v) for i, v in sorted(point.items())},
                    "value": str(value),
                }
            )
        if args.json:
            print(json.dumps({"fraction": str(frac), "panel": rows}))
        else:
            for row in rows:
                assignments = " ".join(f"{i}={v}" for i, v in row["point"].items())
                print(f"{row['value']}\tat {assignments if assignments else '(no variables)'}")
    return 0


def _cmd_convergent(args) -> int:
    try:
        require_convergent(parse_composition(args.composition))
    except DivergentError as exc:
        print(exc.reason)
        return 1
    print("convergent")
    return 0


def _cmd_zeta(args) -> int:
    est = zeta(parse_composition(args.composition), args.tol, max_n=args.max_n)
    if args.json:
        print(
            json.dumps(
                {
                    "value": est.value,
                    "est_error": _finite(est.est_error),
                    "cutoff": est.cutoff,
                    "converged": est.converged,
                }
            )
        )
    else:
        print(f"{est.value:.10f}")
        print(f"est_error = {est.est_error:.3e}")
        print(f"cutoff = {est.cutoff}")
        print(f"converged = {est.converged}")
    return 0 if est.converged else 1


def _cmd_verify(args) -> int:
    a = parse_composition(args.a)
    b = parse_composition(args.b)
    report = verify_homomorphism(a, b, args.tol, max_n=args.max_n)
    if args.json:
        print(
            json.dumps(
                {
                    "pass": report.passed,
                    "lhs": report.lhs.value,
                    "rhs": report.rhs_value,
                    "delta": report.delta,
                    "tolerance": _finite(report.tolerance),
                    "expansion": report.expansion.to_json_dict(),
                }
            )
        )
    else:
        print(f"expansion: {report.expansion}")
        print(f"series of expansion = {report.lhs.value:.10f}")
        print(f"product of series   = {report.rhs_value:.10f}")
        print(f"delta = {report.delta:.3e} (tolerance {report.tolerance:.3e})")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_relations(args) -> int:
    if args.max_depth < 1:
        raise ValueError(f"--max-depth must be at least 1, got {_clip(args.max_depth)}")
    if args.min_entry > args.max_entry:
        raise ValueError(
            f"--min-entry {_clip(args.min_entry)} is above --max-entry {_clip(args.max_entry)}"
        )
    scan = enumerate_relations(
        args.max_depth,
        (args.min_entry, args.max_entry),
        args.tol,
        max_n=args.max_n,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "relations": [
                        {
                            "a": list(rel.a),
                            "b": list(rel.b),
                            "relation": rel.difference.to_json_dict(),
                            "residual": rel.residual,
                            "est_error": _finite(rel.est_error),
                            "passed": rel.passed,
                        }
                        for rel in scan.relations
                    ],
                    "skipped": [],
                }
            )
        )
    else:
        for rel in scan.relations:
            print(
                f"{rel.difference}    "
                f"(from {_fmt(rel.a)} * {_fmt(rel.b)}, residual {rel.residual:.2e}"
                f"{'' if rel.passed else ', FAIL'})"
            )
    return 0 if all(rel.passed for rel in scan.relations) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extshuffle",
        description="Extended shuffle products, Chen symbols/fractions, and "
        "numeric evaluation of convergent nested zeta series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON")

    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="cutoff cap, above 1024, at most 2**53")

    p = sub.add_parser("shuffle", parents=[json_flag], help="extended shuffle product")
    p.add_argument("a", help="composition, e.g. '[1,-2]' or '1'")
    p.add_argument("b")
    p.set_defaults(func=_cmd_product, product=ext_shuffle, parse=parse_composition)

    p = sub.add_parser("stuffle", parents=[json_flag], help="quasi-shuffle product")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_product, product=stuffle, parse=parse_composition)

    p = sub.add_parser(
        "symbol-product", parents=[json_flag], help="locality product of Chen symbols"
    )
    p.add_argument("a", help="symbol, e.g. '<[1,1];[1,2]>' or '1'")
    p.add_argument("b")
    p.set_defaults(func=_cmd_product, product=symbol_product, parse=parse_symbol)

    p = sub.add_parser(
        "fraction-eval", parents=[json_flag], help="evaluate a Chen fraction exactly"
    )
    p.add_argument("fraction", help="fraction, e.g. 'f([1,1];[1,2])'")
    p.add_argument("points", nargs="*", help="assignments like 2=1/3; omit for panel")
    p.add_argument("--seed", type=int, default=0, help="evaluation panel seed")
    p.set_defaults(func=_cmd_fraction_eval)

    p = sub.add_parser("convergent", help="test the series convergence criterion")
    p.add_argument("composition")
    p.set_defaults(func=_cmd_convergent)

    p = sub.add_parser(
        "zeta", parents=[json_flag, numeric], help="estimate a convergent nested series"
    )
    p.add_argument("composition")
    p.add_argument("--tol", type=float, default=1e-6, help="target tolerance")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser(
        "verify",
        parents=[json_flag, numeric],
        help="check the series homomorphism on one pair",
    )
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-5, help="target tolerance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "relations", parents=[numeric], help="enumerate certified double-shuffle relations"
    )
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--min-entry", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_relations)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DivergentError as exc:
        print(f"error: divergent composition {_clip(_fmt(exc.comp))} ({exc.reason})", file=sys.stderr)
        return 1
    except VanishingDenominatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        # bad arguments of any kind are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # an input too large for this process is a usage error, not a crash
        print(f"error: input too large to compute ({type(exc).__name__})", file=sys.stderr)
        return 2
