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
import os
import re
import sys
import time
from typing import TYPE_CHECKING

# Every command pays for the import of this module, so it loads only what
# field, cf and lvalue all run (errors, exact, cfrac, quadfield), all of it
# on integers and surds; each command imports the rest where it needs it,
# fractions and the chi-values of characters included.
from . import __version__
from .cfrac import (MinusCF, PlusCF, evaluate_periodic, minus_expand,
                    plus_expand, plus_to_minus)
from .errors import (HeckeZeroError, InternalInvariantError, ParseError,
                     ValidationError)
from .exact import QuadSurd, quadsurd_to_dict, rational_to_str
from .quadfield import check_radicand, class_numbers, make_field

if TYPE_CHECKING:
    from fractions import Fraction

    from .linearity import FamilySpec

DISPLAY_DIGITS = 30


def _decimal_display(x: Fraction) -> str:
    """30-significant-digit decimal rendering; never authoritative."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = DISPLAY_DIGITS
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _cyclo_payload(to_dict, x) -> dict:
    """to_dict(x) with the value and its decimal when x is rational.  The
    command passes characters.cyclo_to_dict, imported once per command, as
    an import inside a payload would run once per chi-value."""
    out = to_dict(x)
    if x.is_rational():
        out["value"] = rational_to_str(x.as_rational())
        out["display_decimal_approx"] = _decimal_display(x.as_rational())
    return out


def load_family_config(name_or_path: str) -> FamilySpec:
    from .linearity import (BUILTIN_FAMILIES, family_spec_from_dict,
                            smallest_admissible_n)
    if name_or_path in BUILTIN_FAMILIES:
        return BUILTIN_FAMILIES[name_or_path]
    if not os.path.exists(name_or_path):
        raise ParseError(f"no builtin family or file named {name_or_path!r}")
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name_or_path}:{exc.lineno}:{exc.colno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name_or_path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or nesting past the stack
        raise ParseError(f"{name_or_path}: unreadable JSON ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"cannot read family file {name_or_path!r}: "
                         f"{exc.strerror}") from exc
    spec = family_spec_from_dict(obj)
    # a family with no member at all is refused before any radicand is
    # factored, and the file's digits must hold at its first member
    smallest_admissible_n(spec, 1, 0)
    return spec


def _parse_surd(text: str, d: int) -> QuadSurd:
    parts = list(_parse_ints(text))
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3:
        raise ParseError(
            f"surd {text!r} must be a,b[,c] for (a+b*sqrt(d))/c")
    if parts[2] == 0:
        raise ParseError(f"surd {text!r}: denominator c must be nonzero")
    return QuadSurd(parts[0], parts[1], parts[2], d)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(
            f"expected comma-separated integers, got {text!r}") from None


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
        p = PlusCF((), _parse_ints(args.plus))
        m = plus_to_minus(p)
        return {"plus_period": list(p.period), "minus_period": list(m.period),
                "special_positions": list(m.special_positions)}
    # eval
    digits = _parse_ints(args.word)
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
            "value": _cyclo_payload(cyclo_to_dict, val)}


def cmd_linearity(args) -> dict:
    from .characters import DirichletCharacter, chi_sum, cyclo_to_dict
    from .linearity import (closed_form_table, hypothesis_check_norm,
                            verify_linearity)
    spec = load_family_config(args.family)
    chi = DirichletCharacter.from_identifier(args.chi)
    q = chi.modulus
    if args.lin_cmd == "hypothesis":
        ok = hypothesis_check_norm(spec, q, args.r, _parse_ints(args.k))
        return {"family": spec.name, "q": q, "r": args.r,
                "hypothesis_holds": ok}
    cyclo = functools.partial(_cyclo_payload, cyclo_to_dict)
    if args.lin_cmd == "closed-form":
        from fractions import Fraction
        table = closed_form_table(spec, q, args.r)
        return {
            "family": spec.name, "q": q, "chi": chi.identifier(), "r": args.r,
            "A_chi": cyclo(chi_sum(chi, table.A)),
            "B_chi": cyclo(chi_sum(chi, table.B)),
            "cells": [{"C": C, "D": D,
                       "A_CD": rational_to_str(Fraction(a, q * q)),
                       "B_CD": rational_to_str(Fraction(b, q * q))}
                      for (C, D), (a, b) in sorted(table.cells.items())],
        }
    rep = verify_linearity(spec, chi, args.r, _parse_ints(args.k))
    return {
        "family": spec.name, "q": q, "chi": chi.identifier(), "r": args.r,
        "k_used": list(rep.k_used), "k_skipped": list(rep.k_skipped),
        "scaled_values": [cyclo(v) for v in rep.scaled_values],
        "intercept": cyclo(rep.intercept),
        "slope": cyclo(rep.slope),
        "A_chi": cyclo(rep.A_chi),
        "B_chi": cyclo(rep.B_chi),
        "verdicts": {"affine_exact": rep.affine_exact,
                     "closed_form_match": rep.closed_form_match,
                     "hypothesis_check": rep.hypothesis_check},
    }


def cmd_biro(args) -> dict:
    from .biro import (condition_star_search, factorization_oracle_check,
                       residue_reports, yokoi_intro_ab)
    from .characters import DirichletCharacter, cyclo_to_dict
    from .linearity import BUILTIN_FAMILIES
    if args.biro_cmd == "search":
        pairs = condition_star_search(args.q_max, args.p_max)
        names = {chi: chi.identifier() for chi in {p.chi for p in pairs}}
        return {"q_max": args.q_max, "p_max": args.p_max,
                "pairs": [{"q": p.q, "p": p.p, "chi": names[p.chi],
                           "zeta_image": p.realization.zeta_image,
                           "witness": p.witness} for p in pairs]}
    if args.biro_cmd == "residues":
        spec = load_family_config(args.family)
        reports = residue_reports(spec, args.q_max, args.p_max)
        names = {chi: chi.identifier() for chi in {r.chi for r in reports}}
        return {"family": spec.name, "reports": [
            {"family": spec.name, "q": rep.chi.modulus,
             "p": rep.realization.p,
             "chi": names[rep.chi],
             "zeta_image": rep.realization.zeta_image, "r": rep.r,
             "status": rep.status, "residue": rep.residue,
             "A_image": rep.A_image, "B_image": rep.B_image}
            for rep in reports]}
    # oracle
    spec = load_family_config(args.family)
    if args.intro_ab and spec != BUILTIN_FAMILIES["yokoi"]:
        # the double sums run over Yokoi's norm form D^2 - C^2 - rCD
        raise ParseError(f"--intro-ab needs the yokoi family, not {spec.name}")
    chi = DirichletCharacter.from_identifier(args.chi)
    cyclo = functools.partial(_cyclo_payload, cyclo_to_dict)
    lhs, rhs, equal = factorization_oracle_check(spec, args.n, chi)
    out = {"family": spec.name, "n": args.n, "q": chi.modulus,
           "chi": chi.identifier(), "lhs": cyclo(lhs),
           "rhs": cyclo(rhs), "equal": equal}
    if args.intro_ab:
        A, B, rho = yokoi_intro_ab(chi, args.n % chi.modulus)
        out["intro_A"] = cyclo(A)
        out["intro_B"] = cyclo(B)
        out["intro_proportionality"] = \
            rational_to_str(rho) if rho is not None else None
    return out


def cmd_selftest(args) -> dict:
    from .acceptance import run_all
    results = run_all()
    for res in results:
        print(res.line(), file=sys.stderr)
    return {"criteria": [{"number": r.number, "name": r.name,
                          "passed": r.passed, "detail": r.detail}
                         for r in results],
            "all_passed": all(r.passed for r in results)}


def _csv_flatten(payload: dict) -> str:
    """Flatten the first list-of-flat-dicts table found in the payload."""
    import csv
    for key in ("cells", "reports", "pairs", "criteria"):
        if key in payload and isinstance(payload[key], list) and payload[key]:
            rows = payload[key]
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list))
                                 else v for k, v in row.items()})
            return buf.getvalue()
    raise ValidationError("this payload has no flat table to export as csv")


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
        if name != "closed-form":
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
    t0 = time.monotonic()
    payload = globals()[f"cmd_{args.command}"](args)
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
        text = _csv_flatten(payload)
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
