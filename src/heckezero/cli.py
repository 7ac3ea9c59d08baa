"""Command-line surface.

Every successful run prints one ReportEnvelope as one line of compact JSON,
the line --out appends (or, with --format csv, its table); payloads use the
shared exact serialization, so identical inputs give byte-identical payloads
(the elapsed-time field is excluded from that guarantee).  Exit codes: 0
success, 2 validation error, 3 broken internal invariant.
"""

from __future__ import annotations

import io
import json
import sys
import time
from types import SimpleNamespace

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

# The options of every command path: each maps "--name" to its type and
# its default.  The type is int, str, a tuple of the accepted values, or
# bool for a flag; the default REQUIRED marks a required option.  --out and
# --format are shared by every command and may also come before its words.
REQUIRED = object()
INT, STR = (int, REQUIRED), (str, REQUIRED)
KIND = (("plus", "minus"), "minus")
SHARED = {"--out": (str, None), "--format": (("json", "csv"), "json")}
COMMANDS = {path: {**options, **SHARED} for path, options in {
    ("field",): {"--d": INT},
    ("cf", "expand"): {"--d": INT, "--surd": STR, "--kind": KIND},
    ("cf", "convert"): {"--plus": STR},
    ("cf", "eval"): {"--word": STR, "--kind": KIND},
    ("lvalue",): {"--d": INT, "--delta": STR, "--chi": STR},
    ("linearity", "verify"): {"--family": STR, "--chi": STR, "--r": INT,
                              "--k": STR},
    ("linearity", "closed-form"): {"--family": STR, "--chi": STR, "--r": INT},
    ("linearity", "hypothesis"): {"--family": STR, "--chi": STR, "--r": INT},
    ("biro", "search"): {"--q-max": INT, "--p-max": INT},
    ("biro", "residues"): {"--family": STR, "--q-max": INT, "--p-max": INT},
    ("biro", "oracle"): {"--family": STR, "--n": INT, "--chi": STR,
                         "--intro-ab": (bool, False)},
    ("selftest",): {},
}.items()}
# the groups of two-word paths, and the attribute that holds the second word
SUBCOMMAND_DEST = {"cf": "cf_cmd", "linearity": "lin_cmd", "biro": "biro_cmd"}
# the one table each payload that has one exports with --format csv; any
# other command is refused before it runs
CSV_TABLES = {("linearity", "closed-form"): "cells",
              ("biro", "residues"): "reports", ("biro", "search"): "pairs",
              ("selftest",): "criteria"}


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
        w = plus_expand(x) if args.kind == "plus" else minus_expand(x)
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


def _error(path: tuple[str, ...], message: str) -> ParseError:
    return ParseError(" ".join(("hecke-zero",) + path) + ": " + message)


def _usage(path: tuple[str, ...]) -> str:
    """The usage line of one command path, read from COMMANDS."""
    words = ["usage: hecke-zero", *path]
    for name, (kind, default) in COMMANDS[path].items():
        if kind is not bool:
            name += " " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                           else name[2:].replace("-", "_").upper())
        words.append(name if default is REQUIRED else f"[{name}]")
    return " ".join(words)


def parse_argv(argv) -> tuple[tuple[str, ...], SimpleNamespace]:
    """The command path of argv and its options, in one walk: the shared
    options, the path's words, then the path's options.  A value is the
    word after its option, taken verbatim, or follows "=" in it; a name
    must be spelled out.  The namespace holds the first word as command,
    the second under SUBCOMMAND_DEST, and every option of the path by its
    dest (--q-max as q_max), at its default if not given.  -h or --help,
    where an option may stand, prints the usage of every path that starts
    with the words so far and exits 0."""
    path, options, given = (), SHARED, {}
    rest = iter(argv)
    for word in rest:
        if word in ("-h", "--help"):
            print(*(_usage(p) for p in COMMANDS if p[:len(path)] == path),
                  sep="\n")
            raise SystemExit(0)
        sub = path + (word,)
        if sub in COMMANDS or not path and word in SUBCOMMAND_DEST:
            path, options = sub, COMMANDS.get(sub, {})
            continue
        name, eq, value = word.partition("=")
        if name not in options or eq and options[name][0] is bool:
            raise _error(path, f"unrecognized arguments: {word}")
        kind = options[name][0]
        value = True if kind is bool else value if eq else next(rest, None)
        if value is None:
            raise _error(path, f"argument {name}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _error(path, f"argument {name}: invalid int value: "
                             f"{value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise _error(path, f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
        given[name] = value
    missing = [name for name, (_, default) in options.items()
               if default is REQUIRED and name not in given]
    if path not in COMMANDS or missing:
        raise _error(path, "the following arguments are required: "
                     + (", ".join(missing) or "command"))
    words = zip(("command", SUBCOMMAND_DEST.get(path[0])), path)
    return path, SimpleNamespace(**dict(words), **{
        name[2:].replace("-", "_"): given.get(name, default)
        for name, (_, default) in options.items()})


def run_command(argv) -> int:
    path, args = parse_argv(argv)
    table = CSV_TABLES.get(path)
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
