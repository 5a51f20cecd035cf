"""Command line front end.

Subcommands: ``census`` (exact pair count and certified partial sum),
``extend`` (chain census tables onto a certified base), ``scan-c``
(divisor-error supremum), ``h-bound`` (certified product bound),
``certify`` (end-to-end enclosure of the full reciprocal sum), and
``project`` (heuristic, clearly flagged non-rigorous).

Each handler prints its summary and returns the artifact body: its
library report's fields, with the ones the command was given moved
under ``inputs``.  Two constants sit under ``inputs`` too, though no
option sets them: certify's tail cutoff (``cutoff_u``) and project's
assumed limit (``b_assumed``).  ``certify`` works at alpha = 2/5, and
``--improved`` anchors the sharper sqrt term at the exact x0.  ``main``
adds ``command`` and ``version`` and writes it to ``--json`` (``--out``
for certify) through one JSON encoder.  An interval is written as
``{lo, hi, lo_hex, hi_hex}``: outward-rounded decimal strings alongside
exact hex doubles.  A rational is written as exact text ("2/5").  File
inputs carry their sha256 hashes.  Every input comes from the command
line or the files it names; no variable outside it is read or
captured, and no timestamp, so reruns with the same inputs are
byte-identical, whatever the worker count.  Exit codes: 0 success, 1
usage error, 2 computation error (running out of memory included).
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__
from .divisor_error import scan_c
from .euler_product import h_bound
from .interval import Interval, _frac_bracket
from .projection import DEFAULT_B_ASSUMED, project_table
from .rv_bound import DEFAULT_WIDTH_TARGET, brun_upper, derive_params
from .sieve import TwinCensus, census
from .tables import (
    DEFAULT_BASE_ENCLOSURE,
    DEFAULT_BASE_THRESHOLD,
    _MAX_DIGITS,
    _entry_at,
    _extend,
    _read_table_dir,
    emit_table,
)

__all__ = ["main"]

_DOWN = decimal.Context(prec=20, rounding=decimal.ROUND_FLOOR)
_UP = decimal.Context(prec=20, rounding=decimal.ROUND_CEILING)


class UsageError(Exception):
    """Bad argument combination that argparse alone cannot express."""


def _dec_down(x: float) -> str:
    return str(_DOWN.plus(Decimal(x)))


def _dec_up(x: float) -> str:
    return str(_UP.plus(Decimal(x)))


def _fields(report, *drop) -> dict:
    """A report dataclass's fields by name, less the ``drop`` names."""
    names = [f.name for f in dataclasses.fields(report) if f.name not in drop]
    return {name: getattr(report, name) for name in names}


def _report(report, *inputs) -> dict:
    """A report's fields, with the ``inputs`` names moved under "inputs"."""
    body = _fields(report)
    body["inputs"] = {name: body.pop(name) for name in inputs}
    return body


def _encode(obj):
    """``json.dumps`` fallback for what the reports hold; ``json`` does the nesting."""
    if isinstance(obj, Interval):
        lo, hi = obj.lo, obj.hi
        return {"lo": _dec_down(lo), "hi": _dec_up(hi), "lo_hex": lo.hex(), "hi_hex": hi.hex()}
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------
# argparse glue


def _exact_int(text: str) -> int:
    """Integer accepting scientific notation, rejecting anything inexact."""
    try:
        d = Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not d.is_finite():  # int(inf) and comparing sNaN would raise uncaught
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if d.adjusted() >= _MAX_DIGITS:  # |d| >= 10^309; int() is quadratic in the digits
        raise argparse.ArgumentTypeError(f"magnitude 10^{_MAX_DIGITS} or more: {text!r}")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(d)


def _positive_int(text: str) -> int:
    value = _exact_int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _exponent_list(text: str) -> list:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list: {text!r}")
    if not ks:
        raise argparse.ArgumentTypeError("empty exponent list")
    return ks


def _outward_from_decimals(lo_text: str, hi_text: str) -> Interval:
    """Endpoint strings to finite doubles, rounded away from the interior."""
    try:
        iv = _frac_bracket(Decimal(lo_text), Decimal(hi_text))
    except decimal.InvalidOperation:
        raise UsageError(f"endpoints must be decimal numbers: {lo_text!r}, {hi_text!r}")
    except ValueError as exc:  # reversed or NaN endpoints
        raise UsageError(f"bad enclosure [{lo_text}, {hi_text}]: {exc}")
    if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
        raise UsageError(f"bad enclosure [{lo_text}, {hi_text}]: endpoints must be finite")
    return iv


# ---------------------------------------------------------------------
# subcommands


def _chain_tables(args: argparse.Namespace) -> tuple:
    """(census at the last row, file hashes) from the ``--tables`` rows
    chained onto the base; an empty name never reads the working directory."""
    if not args.tables:
        raise UsageError(
            "no census tables: --tables needs a directory name (certify also "
            "takes a censused partial sum as --pi2/--brun-lo/--brun-hi)"
        )
    if not Path(args.tables).is_dir():
        raise UsageError(f"directory not found: {args.tables}")
    columns, input_files = _read_table_dir(args.tables)
    base = _outward_from_decimals(args.base_lo, args.base_hi)
    return _extend(args.base_x, base, columns), input_files


def _print_census(result: TwinCensus) -> None:
    print(f"pi2 = {result.pi2}")
    print(
        f"brun_partial in [{_dec_down(result.brun_partial.lo)}, "
        f"{_dec_up(result.brun_partial.hi)}]"
    )


def _cmd_census(args: argparse.Namespace) -> dict:
    result = census(args.limit, threads=args.threads)
    _print_census(result)
    if args.emit_table:
        Path(args.emit_table).write_text(emit_table([_entry_at(args.limit, result.pi2)]))
    # the thread count has no effect on results, so it stays out of the artifact
    return _report(result, "limit")


def _cmd_extend(args: argparse.Namespace) -> dict:
    result, input_files = _chain_tables(args)
    print(f"extended to {result.limit}")
    _print_census(result)
    # the base is echoed as the text it was given
    base = {"lo": args.base_lo, "hi": args.base_hi}
    inputs = dict(base_x=args.base_x, base=base, tables=args.tables, input_files=input_files)
    return {**_fields(result), "inputs": inputs}


def _cmd_scan_c(args: argparse.Namespace) -> dict:
    result = scan_c(args.alpha, args.xmax)
    print(f"c({args.alpha}) <= {_dec_up(result.bound.hi)}")
    print(f"supremum attained near x = {result.argmax:.6g}")
    return _report(result, "alpha", "xmax")


def _cmd_h_bound(args: argparse.Namespace) -> dict:
    report = h_bound(args.cutoff, args.alpha)
    print(f"H <= {_dec_up(report.h.hi)}")
    print(f"log bound in [{_dec_down(report.log_bound.lo)}, {_dec_up(report.log_bound.hi)}]")
    return _report(report, "cutoff", "alpha")


def _cmd_certify(args: argparse.Namespace) -> dict:
    triple = (args.pi2, args.brun_lo, args.brun_hi)
    if any(value is not None for value in triple):
        if args.tables is not None:
            raise UsageError("pass either --tables or the --pi2/--brun-lo/--brun-hi triple")
        if None in triple:
            raise UsageError("--pi2, --brun-lo and --brun-hi must be given together")
        pi2_x0 = args.pi2
        partial = _outward_from_decimals(args.brun_lo, args.brun_hi)
        input_files = {}
    else:
        spliced, input_files = _chain_tables(args)
        if spliced.limit != args.x0:
            raise ValueError(f"census tables end at {spliced.limit}, not at x0 = {args.x0}")
        pi2_x0, partial = spliced.pi2, spliced.brun_partial

    params = derive_params(improved_at=args.x0) if args.improved else derive_params()
    cert = brun_upper(args.x0, pi2_x0, partial, params=params, width_target=args.width_target)
    print(f"certified: {_dec_down(cert.lower)} <= B <= {_dec_up(cert.upper)}")
    print(f"quadrature pieces: {cert.quad_pieces}")
    result = _report(cert, "x0", "pi2_x0", "brun_partial_x0", "cutoff_u", "width_target")
    inputs = result.pop("inputs")
    inputs.update(improved=args.improved, tables=args.tables, input_files=input_files)
    # the artifact has never carried sqrt_valid_from
    params = _fields(result.pop("params"), "sqrt_valid_from")
    # the certificate's two ends: outward decimal strings plus exact hex
    lower, upper = result.pop("lower"), result.pop("upper")
    result.update(lower=_dec_down(lower), lower_hex=lower.hex())
    result.update(upper=_dec_up(upper), upper_hex=upper.hex())
    return {"rigorous": True, "inputs": inputs, "params": params, "result": result}


def _cmd_project(args: argparse.Namespace) -> dict:
    rows = project_table(args.ks)
    print(f"{'k':>4}  {'pi2_pred':>12}  {'B_pred':>10}  {'upper_pred':>10}")
    for row in rows:
        print(
            f"{row.k:>4}  {row.pi2_pred:>12.5e}  {row.b_pred:>10.6f}  "
            f"{row.upper_pred:>10.7f}"
        )
    print("all rows non-rigorous: heuristic inputs, not a certificate")
    return {
        "rigorous": False,
        "non_rigorous": True,
        "inputs": {"ks": list(args.ks), "b_assumed": DEFAULT_B_ASSUMED},
        "rows": rows,
    }


# ---------------------------------------------------------------------
# parser


def _add_table_base_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tables", help="census table directory")
    sub.add_argument(
        "--base-x",
        type=_positive_int,
        default=DEFAULT_BASE_THRESHOLD,
        help="threshold the base enclosure certifies",
    )
    sub.add_argument(
        "--base-lo",
        default=str(DEFAULT_BASE_ENCLOSURE.lo),
        help="lower end of the base partial sum enclosure",
    )
    sub.add_argument(
        "--base-hi",
        default=str(DEFAULT_BASE_ENCLOSURE.hi),
        help="upper end of the base partial sum enclosure",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brun",
        description="Certified bounds on the twin prime reciprocal sum.",
    )
    parser.add_argument("--version", action="version", version=f"brun {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("census", help="sieve an exact census up to a limit")
    p.add_argument("--limit", type=_positive_int, required=True)
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="worker processes, at most CPUs and segments // 6; results do not depend on it",
    )
    p.add_argument("--emit-table", metavar="PATH", help="write the count as a table row")
    p.add_argument("--json", metavar="PATH", help="write a JSON artifact")
    p.set_defaults(handler=_cmd_census)

    p = subs.add_parser("extend", help="chain census tables onto a certified base")
    _add_table_base_options(p)
    p.add_argument("--json", metavar="PATH", help="write a JSON artifact")
    p.set_defaults(handler=_cmd_extend)

    p = subs.add_parser("scan-c", help="divisor-error supremum scan")
    p.add_argument("--alpha", type=_fraction, default=Fraction(2, 5))
    p.add_argument("--xmax", type=_positive_int, default=10**5)
    p.add_argument("--json", metavar="PATH", help="write a JSON artifact")
    p.set_defaults(handler=_cmd_scan_c)

    p = subs.add_parser("h-bound", help="certified product bound from a prime cutoff")
    p.add_argument("--cutoff", type=_positive_int, required=True)
    p.add_argument("--alpha", type=_fraction, default=Fraction(2, 5))
    p.add_argument("--json", metavar="PATH", help="write a JSON artifact")
    p.set_defaults(handler=_cmd_h_bound)

    p = subs.add_parser(
        "certify",
        help="certified enclosure of the full reciprocal sum",
        description=(
            "Certify lower and upper bounds from a censused point: either "
            "census tables chained from a certified base, or an explicit "
            "count and partial sum enclosure.  Projection artifacts are "
            "not valid input: certification consumes censused integers "
            "only."
        ),
    )
    p.add_argument("--x0", type=_positive_int, required=True)
    _add_table_base_options(p)
    p.add_argument("--pi2", type=_positive_int, default=None)
    p.add_argument("--brun-lo", default=None)
    p.add_argument("--brun-hi", default=None)
    p.add_argument("--width-target", type=_positive_float, default=DEFAULT_WIDTH_TARGET)
    p.add_argument(
        "--improved",
        action="store_true",
        help="sharper sqrt coefficient anchored at x0",
    )
    p.add_argument("--out", dest="json", metavar="PATH", help="write the certificate JSON")
    p.set_defaults(handler=_cmd_certify)

    p = subs.add_parser("project", help="heuristic projections (non-rigorous)")
    p.add_argument("--ks", type=_exponent_list, required=True)
    p.add_argument("--json", metavar="PATH", help="write a JSON artifact")
    p.set_defaults(handler=_cmd_project)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        body = args.handler(args)
        if args.json:
            artifact = {"command": args.command, "version": __version__, **body}
            text = json.dumps(artifact, indent=2, sort_keys=True, default=_encode)
            Path(args.json).write_text(text + "\n")
        return 0
    except UsageError as exc:
        print(f"brun: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        print(f"brun: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
