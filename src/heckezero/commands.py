"""The commands that field, cf and lvalue never run: linearity, biro and
selftest.  cli.run_command imports this module only when it dispatches to
one of them, so the start-up every command pays for does not compile them.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .characters import DirichletCharacter, chi_sum, cyclo_to_dict
from .errors import HypothesisFailed, ParseError
from .exact import parse_ints, rational_to_str
from .linearity import (BUILTIN_FAMILIES, class_norm_form, closed_form_table,
                        load_family_config, verify_linearity)


def cmd_linearity(args) -> dict:
    spec = load_family_config(args.family)
    chi = DirichletCharacter.from_identifier(args.chi)
    q = chi.modulus
    if args.lin_cmd == "hypothesis":
        try:
            class_norm_form(spec, q, args.r)
            ok = True
        except HypothesisFailed:
            ok = False
        return {"family": spec.name, "q": q, "r": args.r,
                "hypothesis_holds": ok}
    if args.lin_cmd == "closed-form":
        table = closed_form_table(spec, q, args.r)
        return {
            "family": spec.name, "q": q, "chi": chi.identifier(), "r": args.r,
            "A_chi": cyclo_to_dict(chi_sum(chi, table.A)),
            "B_chi": cyclo_to_dict(chi_sum(chi, table.B)),
            "cells": [{"C": C, "D": D,
                       "A_CD": rational_to_str(Fraction(a, q * q)),
                       "B_CD": rational_to_str(Fraction(b, q * q))}
                      for (C, D), (a, b) in sorted(table.cells.items())],
        }
    rep = verify_linearity(spec, chi, args.r, parse_ints(args.k))
    return {
        "family": spec.name, "q": q, "chi": chi.identifier(), "r": args.r,
        "k_used": list(rep.k_used), "k_skipped": list(rep.k_skipped),
        "scaled_values": [cyclo_to_dict(v) for v in rep.scaled_values],
        "intercept": cyclo_to_dict(rep.intercept),
        "slope": cyclo_to_dict(rep.slope),
        "A_chi": cyclo_to_dict(rep.A_chi),
        "B_chi": cyclo_to_dict(rep.B_chi),
        "verdicts": {"affine_exact": rep.affine_exact,
                     "closed_form_match": rep.closed_form_match,
                     "hypothesis_check": rep.hypothesis_check},
    }


def cmd_biro(args) -> dict:
    from .biro import (condition_star_search, factorization_oracle_check,
                       residue_reports, yokoi_intro_ab)
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
    lhs, rhs, equal = factorization_oracle_check(spec, args.n, chi)
    out = {"family": spec.name, "n": args.n, "q": chi.modulus,
           "chi": chi.identifier(), "lhs": cyclo_to_dict(lhs),
           "rhs": cyclo_to_dict(rhs), "equal": equal}
    if args.intro_ab:
        A, B, rho = yokoi_intro_ab(chi, args.n % chi.modulus)
        out["intro_A"] = cyclo_to_dict(A)
        out["intro_B"] = cyclo_to_dict(B)
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
