"""Command-line surface.

Every successful run prints one ReportEnvelope as one line of compact JSON,
the line --out appends (or, with --format csv, its table); payloads use the
shared exact serialization, so identical inputs give byte-identical payloads
(the elapsed-time field is excluded from that guarantee).  Exit codes: 0
success, 2 validation error, 3 broken internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
import time

# Every command pays for the import of this module, so it loads only what
# field, cf and lvalue all run (errors, exact, cfrac, quadfield), all of it
# on integers and surds; each command imports the rest where it needs it,
# fractions and the chi-values of characters included.  The handlers of
# linearity, biro and selftest live in commands, which run_command imports
# only when it dispatches to one of them.
from . import __version__
from .cfrac import (MinusCF, PlusCF, evaluate_periodic, minus_expand,
                    plus_expand, plus_to_minus)
from .errors import (HeckeZeroError, InternalInvariantError, ParseError,
                     ValidationError)
from .exact import QuadSurd, parse_ints, quadsurd_to_dict
from .quadfield import check_radicand, class_numbers, make_field

# the one table each payload that has one exports with --format csv, by
# command and subcommand; any other command is refused before it runs
CSV_TABLES = {("linearity", "closed-form"): "cells",
              ("biro", "residues"): "reports", ("biro", "search"): "pairs",
              ("selftest", None): "criteria"}


def _parse_surd(text: str, d: int) -> QuadSurd:
    parts = list(parse_ints(text))
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3:
        raise ParseError(
            f"surd {text!r} must be a,b[,c] for (a+b*sqrt(d))/c")
    if parts[2] == 0:
        raise ParseError(f"surd {text!r}: denominator c must be nonzero")
    return QuadSurd(parts[0], parts[1], parts[2], d)


def cmd_field(args) -> dict:
    F = make_field(args.d)
    h, h_plus = class_numbers(F)
    return {
        "d": F.d,
        "discriminant": F.discriminant,
        "omega": quadsurd_to_dict(F.omega),
        "fundamental_unit": quadsurd_to_dict(F.fund_unit),
        "fundamental_unit_norm": F.fund_unit_norm,
        "totally_positive_unit": quadsurd_to_dict(F.tp_fund_unit),
        "class_number": h,
        "narrow_class_number": h_plus,
    }


def cmd_cf(args) -> dict:
    if args.cf_cmd == "expand":
        check_radicand(args.d)
        x = _parse_surd(args.surd, args.d)
        if args.kind == "plus":
            w = plus_expand(x)
        else:
            w = minus_expand(x)
        return {"kind": args.kind, "preperiod": list(w.preperiod),
                "period": list(w.period)}
    if args.cf_cmd == "convert":
        p = PlusCF((), parse_ints(args.plus))
        m = plus_to_minus(p)
        return {"plus_period": list(p.period), "minus_period": list(m.period),
                "special_positions": list(m.special_positions)}
    # eval
    digits = parse_ints(args.word)
    w = PlusCF((), digits) if args.kind == "plus" else MinusCF((), digits)
    return {"kind": args.kind, "period": list(digits),
            "value": quadsurd_to_dict(evaluate_periodic(w))}


def cmd_lvalue(args) -> dict:
    from .characters import DirichletCharacter, cyclo_to_dict
    from .shintani import partial_hecke_L_zero
    check_radicand(args.d)
    delta = _parse_surd(args.delta, args.d)
    chi = DirichletCharacter.from_identifier(args.chi)
    val = partial_hecke_L_zero(delta, chi)
    return {"d": args.d, "delta": quadsurd_to_dict(delta),
            "q": chi.modulus, "chi": chi.identifier(),
            "value": cyclo_to_dict(val)}


def _csv_flatten(rows: list[dict] | None) -> str:
    """The table's rows as csv, a header first; None or no rows is
    refused."""
    if not rows:
        raise ValidationError(
            "this payload has no flat table to export as csv")
    import csv
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list))
                         else v for k, v in row.items()})
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on a bad argument; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a value that starts with "-" for an option name
        # unless it looks like a negative number, so "--k -2,9" and
        # "--surd -1,1" would fail; comma lists of integers count as numbers
        self._negative_number_matcher = re.compile(
            r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once.  --out/--format live in common only; their defaults come
    from run_command's namespace, as parents share Action objects and a
    default there would overwrite a value given before the subcommand.  The
    parser binds no function: run_command looks up cmd_<command> per call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="append the JSON report to this file")
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    ap = _Parser(
        prog="hecke-zero", parents=[common],
        description="Exact values at s=0 of partial Hecke L-functions of "
                    "real quadratic fields")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", parents=[common],
                       help="field invariants for Q(sqrt(d))")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("cf", help="continued fraction operations")
    cfsub = p.add_subparsers(dest="cf_cmd", required=True)
    pe = cfsub.add_parser("expand", parents=[common])
    pe.add_argument("--d", type=int, required=True)
    pe.add_argument("--surd", required=True, help="a,b[,c]")
    pe.add_argument("--kind", choices=("plus", "minus"), default="minus")
    pc = cfsub.add_parser("convert", parents=[common])
    pc.add_argument("--plus", required=True, help="comma-separated digits")
    pv = cfsub.add_parser("eval", parents=[common])
    pv.add_argument("--word", required=True, help="comma-separated digits")
    pv.add_argument("--kind", choices=("plus", "minus"), default="minus")

    p = sub.add_parser("lvalue", parents=[common], help="partial Hecke L-value at s=0")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", required=True, help="a,b[,c]")
    p.add_argument("--chi", required=True, help="character identifier")

    p = sub.add_parser("linearity", help="family linearity machinery")
    lsub = p.add_subparsers(dest="lin_cmd", required=True)
    for name in ("verify", "closed-form", "hypothesis"):
        pl = lsub.add_parser(name, parents=[common])
        pl.add_argument("--family", required=True)
        pl.add_argument("--chi", required=True)
        pl.add_argument("--r", type=int, required=True)
        if name == "verify":
            pl.add_argument("--k", required=True,
                            help="comma-separated k samples")

    p = sub.add_parser("biro", help="sieve search and congruences")
    bsub = p.add_subparsers(dest="biro_cmd", required=True)
    ps = bsub.add_parser("search", parents=[common])
    ps.add_argument("--q-max", type=int, required=True)
    ps.add_argument("--p-max", type=int, required=True)
    pr = bsub.add_parser("residues", parents=[common])
    pr.add_argument("--family", required=True)
    pr.add_argument("--q-max", type=int, required=True)
    pr.add_argument("--p-max", type=int, required=True)
    po = bsub.add_parser("oracle", parents=[common])
    po.add_argument("--family", required=True)
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--chi", required=True)
    po.add_argument("--intro-ab", action="store_true",
                    help="also evaluate the direct double sums")

    sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    return ap


def run_command(argv) -> int:
    args = build_parser().parse_args(
        argv, argparse.Namespace(out=None, format="json"))
    table = CSV_TABLES.get((args.command, getattr(
        args, "lin_cmd", getattr(args, "biro_cmd", None))))
    if args.format == "csv" and table is None:
        _csv_flatten(None)      # refused before the command runs
    handler = globals().get(f"cmd_{args.command}")
    if handler is None:
        from . import commands
        handler = getattr(commands, f"cmd_{args.command}")
    t0 = time.monotonic()
    payload = handler(args)
    envelope = {
        "tool": "hecke-zero",
        "version": __version__,
        "subcommand": args.command,
        "inputs": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("out", "format") and v is not None},
        "results": payload,
        "elapsed_s": round(time.monotonic() - t0, 6),
    }
    # one compact line, printed and appended to --out alike
    text = line = json.dumps(envelope, separators=(",", ":")) + "\n"
    if args.format == "csv":
        text = _csv_flatten(payload[table])
    # the --out line goes first, so a file that cannot be appended to
    # leaves stdout empty
    if args.out:
        try:
            with open(args.out, "a") as fh:
                fh.write(line)
        except OSError as exc:
            raise ParseError(f"cannot append to --out {args.out!r}: "
                             f"{exc.strerror}") from exc
    sys.stdout.write(text)
    if args.command == "selftest" and not payload["all_passed"]:
        return 3   # a failed acceptance criterion is a broken invariant
    return 0


def main(argv=None) -> int:
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    except (HeckeZeroError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3 if isinstance(exc, InternalInvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
