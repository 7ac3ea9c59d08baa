"""The package's acceptance gate: ten self-contained criteria, each returning
a pass/fail record.  The CLI selftest and the test suite both run these.

The rational references the criteria check the engine against live here
too, and nothing else in the package runs them: Yamamoto's translation
recursion on Fractions with the per-(C, D) partial zeta value, the
cone-ratio identity residual with the cone ratios and the lattice unit
order it reads, and the nu-sequence of one cell with the minus word of a
family member, the two sides of the bridge of criterion 10.
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
from .errors import (DegenerateWord, HeckeZeroError, InternalInvariantError,
                     UnitMismatch)
from .exact import QuadSurd
from .kernels import zeta12_times
from .linearity import (BUILTIN_FAMILIES, FamilySpec, ResidueWord, admissible,
                        closed_form_cells, closed_form_table, residue_word,
                        verify_linearity)
from .quadfield import FieldData, class_numbers, make_field
from .shintani import partial_hecke_L_zero


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
                            a = spec.digits(n)[(2 * j - 1) % spec.s]
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


# ---------------------------------------------------------------------------
# the rational references: the cone recursion and its partial zeta values,
# the cone-ratio identity, and the two sides of the nu-bridge


def frac_pos(x: Fraction | int) -> Fraction:
    """Representative of x mod 1 in the half-open interval (0, 1].

    Integers map to 1, not 0.  This is deliberate and load-bearing for the
    cone recursions; a conventional fractional part is intentionally not
    exported.
    """
    x = Fraction(x)
    f = x - (x.numerator // x.denominator)
    return Fraction(1) if f == 0 else f


def bernoulli_poly(k: int, x: Fraction | int) -> Fraction:
    """B_1(x) = x - 1/2 or B_2(x) = x^2 - x + 1/6."""
    x = Fraction(x)
    if k == 1:
        return x - Fraction(1, 2)
    if k == 2:
        return x * x - x + Fraction(1, 6)
    raise ValueError("only k in {1, 2} supported")


class YamamotoSeq:
    """Translation coordinates x_{-1}, x_0, ..., x_N of the shifted lattice.

    x[i] is x_{i-1} (one slot of offset); every x_i lies in (0, 1] with
    q*x_i an integer, and y_i = 1 - x_{i-1}.
    """

    __slots__ = ("q", "C", "D", "x")

    def __init__(self, q: int, C: int, D: int, x: tuple[Fraction, ...]):
        for v in x:
            if not (0 < v <= 1) or (v * q).denominator != 1:
                raise InternalInvariantError(f"x value {v} out of contract")
        self.q, self.C, self.D, self.x = q, C, D, x

    def __eq__(self, other) -> bool:
        if other.__class__ is not YamamotoSeq:
            return NotImplemented
        return (self.q, self.C, self.D, self.x) == \
            (other.q, other.C, other.D, other.x)

    def x_at(self, i: int) -> Fraction:
        """x_i for i >= -1."""
        return self.x[i + 1]

    def y_at(self, i: int) -> Fraction:
        """y_i = 1 - x_{i-1}, in [0, 1).  The boundary x_{i-1} = 1 gives 0."""
        v = 1 - self.x_at(i - 1)
        return v if v != 1 else Fraction(0)


def yamamoto_sequence(q: int, C: int, D: int, mcf: MinusCF,
                      steps: int | None = None) -> YamamotoSeq:
    """Run x_{i+1} = <b_i x_i + y_i> from the (C, D) seeds.

    By default one minus period of steps; identity checkers extend to
    lam * m steps with the digits taken cyclically.
    """
    m = mcf.m
    if steps is None:
        steps = m
    b = mcf.period
    xs = [frac_pos(1 - Fraction(C, q)), frac_pos(Fraction(D, q))]
    for i in range(steps):
        y = 1 - xs[-2]
        if y == 1:
            y = Fraction(0)
        xs.append(frac_pos(b[i % m] * xs[-1] + y))
    return YamamotoSeq(q, C, D, tuple(xs))


def partial_zeta_zero(q: int, C: int, D: int, mcf: MinusCF) -> Fraction:
    """Z(C,D) = sum_{i=1}^{m} B_1(x_i)B_1(y_i) + (b_i/2) B_2(x_i).

    The digit paired with summand i is b_i with b_m = b_0.  Runs on the
    integer kernel; 12*q^2*Z is always an integer.
    """
    return Fraction(zeta12_times(q, C, D, list(mcf.period)), 12 * q * q)


def lattice_unit_order(F: FieldData, delta: QuadSurd, q: int) -> int:
    """Order of multiplication by the totally positive unit on [1, delta]
    modulo q.

    This is the window length for orbit closure.  It equals the order of the
    unit in O/qO only when the index of [1, delta] in O is coprime to q, so
    the matrix order is computed directly.
    """
    if q == 1:
        return 1
    eps = F.tp_fund_unit
    cols = []
    for gen in (QuadSurd.from_rational(1, F.d), delta):
        u, v = (eps * gen).coords(delta)
        if u.denominator != 1 or v.denominator != 1:
            raise InternalInvariantError(
                "unit does not stabilize the lattice [1, delta]")
        cols.append((int(u) % q, int(v) % q))
    m00, m10 = cols[0]
    m01, m11 = cols[1]
    a, b, c, d = m00, m01, m10, m11
    for k in range(1, q ** 4 + 1):
        if (a % q, b % q, c % q, d % q) == (1, 0, 0, 1):
            return k
        a, b, c, d = (a * m00 + b * m10, a * m01 + b * m11,
                      c * m00 + d * m10, c * m01 + d * m11)
        a, b, c, d = a % q, b % q, c % q, d % q
    raise InternalInvariantError("unit matrix order not found mod q")


class DeltaSequence(NamedTuple):
    """Cone ratios delta_1..delta_m and the cumulative A_i = A_{i-1}/delta_i."""

    deltas: tuple[QuadSurd, ...]
    A: tuple[QuadSurd, ...]


def delta_sequence(F: FieldData, mcf: MinusCF) -> DeltaSequence:
    """delta_i from rotated-word evaluation, with the exact unit product check.

    Evaluating each rotation independently (rather than iterating the cyclic
    relation from delta_0) lets the relation delta_i = b_i - 1/delta_{i+1}
    serve as a genuine cross-check in the test suite.  mcf is the purely
    periodic expansion of the totally positive unit.
    """
    m = mcf.m
    deltas = []
    for i in range(1, m + 1):
        di = evaluate_periodic(mcf.rotated(i))
        if di.d != F.d:
            raise UnitMismatch(
                f"word evaluates in Q(sqrt({di.d})), not Q(sqrt({F.d}))")
        deltas.append(di)
    A = [QuadSurd.from_rational(1, F.d)]
    for di in deltas:
        A.append(A[-1] / di)
    prod = A[0] / A[-1]
    if prod != F.tp_fund_unit:
        raise UnitMismatch(
            f"product of cone ratios is {prod}, not the unit {F.tp_fund_unit}")
    return DeltaSequence(tuple(deltas), tuple(A))


def yamamoto_identity_residual(F: FieldData, mcf: MinusCF, q: int,
                               C: int, D: int) -> Fraction:
    """Aggregate difference between the cone-ratio form and the digit form
    of the s=0 summand, over a full lam*m window.  Contract: exactly 0.
    """
    lam = lattice_unit_order(F, evaluate_periodic(mcf), q)
    m = mcf.m
    n = lam * m
    seq = yamamoto_sequence(q, C, D, mcf, steps=n)
    ds = delta_sequence(F, mcf)
    acc = Fraction(0)
    for i in range(1, n + 1):
        d_i = ds.deltas[(i - 1) % m]  # deltas[0] is delta_1
        t = d_i.trace()
        u = d_i.trace() / d_i.norm()  # trace of 1/delta_i
        b = mcf.period[i % m]
        acc += (t / 4) * bernoulli_poly(2, seq.x_at(i))
        acc += (u / 4) * bernoulli_poly(2, seq.y_at(i))
        acc -= Fraction(b, 2) * bernoulli_poly(2, seq.x_at(i))
    return acc


def family_minus_cf(spec: FamilySpec, n: int) -> MinusCF:
    """The minus word of the family's plus digits at n: the minus expansion
    of delta(n) wherever family_instance accepts n."""
    return plus_to_minus(PlusCF((), spec.digits(n)))


def nu_sequence(rw: ResidueWord, C: int, D: int) -> list[int]:
    """Run nu_{i+1} = <c_i nu_i - nu_{i-1}> over the residue word (c_i its
    digits) on the integers X_i = q*nu_i; entry i + 1 holds X_i, from
    i = -1 to Gamma_L.  The seeds are nu_{-1} = <1 - C/q> and nu_0 = <D/q>.
    """
    q = rw.q
    X = [(q - C - 1) % q + 1, (D - 1) % q + 1]
    for c in minus_word(rw.gamma).period:
        X.append((c * X[-1] - X[-2] - 1) % q + 1)
    return X
