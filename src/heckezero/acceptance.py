"""The package's acceptance gate: ten self-contained criteria, each returning
a pass/fail record.  The CLI selftest and the test suite both run these.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .biro import condition_star_search, residue_mod_p
from .cfrac import (MinusCF, PlusCF, evaluate_periodic, minus_expand,
                    minus_word, plus_to_minus)
from .characters import enumerate_characters, gen_bernoulli_b1
from .errors import DegenerateWord, HeckeZeroError
from .exact import QuadSurd
from .kernels import zeta12_times
from .linearity import (BUILTIN_FAMILIES, admissible, closed_form_cells,
                        closed_form_table, family_minus_cf, nu_sequence,
                        residue_word, verify_linearity)
from .quadfield import class_numbers, make_field
from .shintani import (delta_sequence, partial_hecke_L_zero,
                       partial_zeta_zero, yamamoto_identity_residual,
                       yamamoto_sequence)


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    time_limit: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lim = f" (limit {self.time_limit:.0f}s)" if self.time_limit else ""
        return (f"[{status}] criterion {self.number}: {self.name} -- "
                f"{self.detail} [{self.elapsed:.2f}s{lim}]")


def _timed(number, name, limit, fn) -> CriterionResult:
    t0 = time.monotonic()
    try:
        ok, detail = fn()
    except HeckeZeroError as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    dt = time.monotonic() - t0
    if limit is not None and dt > limit:
        ok = False
        detail += f"; exceeded {limit}s"
    return CriterionResult(number, name, ok, detail, dt, limit)


def _quadratic_chi3():
    return next(c for c in enumerate_characters(3) if c.order == 2)


def _quartic_chi5():
    return next(c for c in enumerate_characters(5) if c.order == 4)


def criterion_1() -> CriterionResult:
    def run():
        results = []
        for d, delta in ((5, QuadSurd(3, 1, 2, 5)), (2, QuadSurd(2, 1, 1, 2))):
            t0 = time.monotonic()
            val = partial_hecke_L_zero(delta, _quadratic_chi3())
            dt = time.monotonic() - t0
            results.append((d, val, dt))
        product = gen_bernoulli_b1(_quadratic_chi3())
        ok = all(v == Fraction(2, 3) and dt < 1.0 for _, v, dt in results)
        ok = ok and product == Fraction(-1, 3)
        return ok, (f"L-values {[(d, str(v)) for d, v, _ in results]}, "
                    f"B1(chi3) = {product}, target 2/3 = (-1/3)(-2)")
    return _timed(1, "exact L-value oracle", 2.0, run)


def criterion_2() -> CriterionResult:
    def run():
        words = {2: MinusCF((), (4, 2)), 5: MinusCF((), (3,))}
        vals = {d: partial_zeta_zero(1, 1, 1, w) for d, w in words.items()}
        return all(v == 0 for v in vals.values()), \
            f"q=1 zeta values {[(d, str(v)) for d, v in vals.items()]}"
    return _timed(2, "q=1 zero checks", None, run)


def criterion_3() -> CriterionResult:
    def run():
        z2 = partial_zeta_zero(3, 1, 1, MinusCF((), (4, 2)))
        z5 = partial_zeta_zero(3, 1, 1, MinusCF((), (3,)))
        return (z2 == Fraction(2, 9) and z5 == Fraction(-1, 9)), \
            f"Z(1,1): d=2 gives {z2} (want 2/9), d=5 gives {z5} (want -1/9)"
    return _timed(3, "per-cell zeta values", None, run)


def criterion_4() -> CriterionResult:
    def run():
        count = 0
        for d in (2, 3, 5, 13, 15, 29):
            F = make_field(d)
            mcf = minus_expand(F.tp_fund_unit)
            for q in (2, 3, 5):
                for C in range(1, q + 1):
                    for D in range(1, q + 1):
                        if yamamoto_identity_residual(F, mcf, q, C, D) != 0:
                            return False, f"nonzero at d={d} q={q} ({C},{D})"
                        count += 1
        return True, f"residual 0 on all {count} cases"
    return _timed(4, "cone-ratio identity", 10.0, run)


def criterion_5() -> CriterionResult:
    def run():
        conv = plus_to_minus(PlusCF((), (2, 3)))
        if conv.period != (4, 2, 2):
            return False, f"[[2,3]] converted to {conv.period}"
        rng = random.Random(20260823)
        done = 0
        while done < 50:
            word = tuple(rng.randint(1, 6)
                         for _ in range(rng.randint(1, 6)))
            p = PlusCF((), word)
            try:
                x = evaluate_periodic(p)
            except DegenerateWord:
                continue
            direct = minus_expand(x + 1)
            if plus_to_minus(p).period != direct.period:
                return False, f"disagreement on word {word}"
            done += 1
        for d in (2, 3, 5, 13, 15):
            F = make_field(d)
            ds = delta_sequence(F, minus_expand(F.tp_fund_unit))
            prod = QuadSurd.from_rational(1, d)
            for dl in ds.deltas:
                prod = prod * dl
            if prod != F.tp_fund_unit:
                return False, f"delta product mismatch at d={d}"
        return True, "conversion word ok; 50 random agreements; unit products ok"
    return _timed(5, "continued-fraction suite", None, run)


def criterion_6() -> CriterionResult:
    def run():
        yok = BUILTIN_FAMILIES["yokoi"]
        A, B = closed_form_cells(yok, residue_word(yok, 3, 1))[0][0]
        if (A, B) != (-12, -36):
            return False, f"closed form gave ({A}, {B}), want (-12, -36)"
        for k, n in ((0, 1), (2, 7), (4, 13)):
            z = partial_zeta_zero(3, 1, 1, family_minus_cf(yok, n))
            if Fraction(A + k * B, 12 * 9) != z:
                return False, f"mismatch at n={n}: {z}"
        return True, "(-12, -36) and the k = 0, 2, 4 cross-checks agree"
    return _timed(6, "closed form per cell", None, run)


def criterion_7() -> CriterionResult:
    def run():
        yok = BUILTIN_FAMILIES["yokoi"]
        chi = _quartic_chi5()
        for r in range(5):
            rep = verify_linearity(yok, chi, r, range(0, 10))
            if not (rep.affine_exact and rep.closed_form_match):
                return False, f"verdicts failed at r={r}"
            for v in rep.scaled_values + (rep.A_chi, rep.B_chi):
                if any(c.denominator != 1 for c in v.coeffs):
                    return False, f"non-integral coordinates at r={r}"
        return True, "all r in 0..4 affine-exact and closed-form-match"
    return _timed(7, "linearity end to end", 30.0, run)


def criterion_8() -> CriterionResult:
    def run():
        pairs = condition_star_search(7, 13)
        q5 = [p for p in pairs if p.q == 5]
        q3 = [p for p in pairs if p.q == 3]
        q7 = [p for p in pairs if p.q == 7]
        if len(q5) != 2 or any(p.p != 5 or p.chi.order != 4 for p in q5):
            return False, f"q=5 block wrong: {[(p.p, p.chi.order) for p in q5]}"
        if q5[0].chi != q5[1].chi.conjugate():
            return False, "q=5 characters are not a conjugate pair"
        if q3:
            return False, f"unexpected q=3 pairs: {len(q3)}"
        # The q=7 block is nonempty: the quadratic character has digit sum
        # -7 and the sextic ones have digit sum -2-4*zeta_6 of norm 28, so
        # p=7 admits genuine degree-one divisors.  Frozen expected set:
        expected_q7 = {("q=7;gens=3:1", 7, 3), ("q=7;gens=3:3", 7, 6),
                       ("q=7;gens=3:5", 7, 5)}
        got_q7 = {(p.chi.identifier(), p.p, p.realization.zeta_image)
                  for p in q7}
        if got_q7 != expected_q7:
            return False, f"q=7 block {got_q7} != {expected_q7}"
        return True, ("two conjugate (5,5, quartic) pairs; none for q=3; "
                      "q=7 yields its three verified p=7 pairs")
    return _timed(8, "sieve pair search", None, run)


def criterion_9() -> CriterionResult:
    def run():
        yok = BUILTIN_FAMILIES["yokoi"]
        pairs = [p for p in condition_star_search(5, 5) if p.q == 5]
        ns = (5, 7, 13, 17)
        tables = {r: closed_form_table(yok, 5, r) for r in {n % 5 for n in ns}}
        for n in ns:
            h, h_plus = class_numbers(make_field(yok.f(n)))
            if (h, h_plus) != (1, 1):
                return False, f"class numbers at n={n}: ({h}, {h_plus})"
            r, k = n % 5, n // 5
            for pair in pairs:
                rep = residue_mod_p(pair, r, tables[r])
                if (rep.A_image + k * rep.B_image) % 5 != 0:
                    return False, f"congruence broken at n={n}"
                if rep.status == "determined" and rep.residue != n % 5:
                    return False, f"residue {rep.residue} != {n % 5} at n={n}"
        return True, "congruence and residue reports consistent at n=5,7,13,17"
    return _timed(9, "sieve congruence self-consistency", None, run)


def criterion_10() -> CriterionResult:
    def run():
        cells = 0
        for spec, q in ((BUILTIN_FAMILIES["yokoi"], 3),
                        (BUILTIN_FAMILIES["yokoi"], 5),
                        (BUILTIN_FAMILIES["rd-n2p1"], 5)):
            for r in range(q):
                rw = residue_word(spec, q, r)
                grid = closed_form_cells(spec, rw)
                word = minus_word(rw.gamma)
                Gamma = word.special_positions + (word.m,)
                ns = list(islice((q * k + r for k, _ in admissible(
                    spec, q, r, range(200 // q))
                    if min(spec.digits(q * k + r)) >= q), 2))
                for n in ns:
                    mcf = family_minus_cf(spec, n)
                    samples = [(1, 1), (1, q), (q, 1), (2 % q + 1, 2 % q + 1)]
                    for C, D in samples:
                        # YamamotoSeq.__init__ enforces the sequence invariants
                        seq = yamamoto_sequence(q, C, D, mcf)
                        X = nu_sequence(rw, C, D)
                        S = mcf.special_positions
                        # block bridge q x_{S_j + i} = q nu_{Gamma_j + i}
                        for j in range(len(S)):
                            g = rw.gamma[(2 * j + 1) % spec.s]
                            for i in range(g + 1):
                                if q * seq.x_at(S[j] + i) != \
                                        X[Gamma[j] + i + 1]:
                                    return False, (f"bridge broken q={q} "
                                                   f"r={r} n={n} j={j} i={i}")
                        # in-block period-q equality
                        for j in range(1, len(S) + 1):
                            a = spec.a(2 * j - 1, n)
                            if a < q:
                                continue
                            for i in range(a - q + 1):
                                if seq.x_at(S[j - 1] + q + i) != \
                                        seq.x_at(S[j - 1] + i):
                                    return False, (f"period broken q={q} "
                                                   f"n={n} j={j} i={i}")
                    # every cell's closed form against the kernel
                    for C, row in enumerate(grid, 1):
                        for D, (A, B) in enumerate(row, 1):
                            if A + (n - r) // q * B != zeta12_times(
                                    q, C, D, list(mcf.period)):
                                return False, (f"{spec.name} closed form "
                                               f"!= kernel at n={n} "
                                               f"({q},{r},{C},{D})")
                            cells += 1
        return True, (f"bridges and block periods hold; closed forms equal "
                      f"the kernel on {cells} cells")
    return _timed(10, "structural property suites", None, run)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
