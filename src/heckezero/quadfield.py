"""Real quadratic field data: integral basis, units, the norm form of
b = [1, delta]^{-1}, class numbers by reduced-form enumeration, and ideal
lattices kept as the test oracle of the norm form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import fold_moebius, surd_walk
from .errors import (BoundExceeded, IncompatiblePair, InternalInvariantError,
                     NotAnIdeal, NotSquarefree, ValidationError)
from .exact import QuadSurd, Rational, square_prime

CLASS_NUMBER_BOUND = 10 ** 6


@dataclass(frozen=True)
class FieldData:
    """Q(sqrt(d)) with its maximal order O = [1, omega] and units.

    fund_unit is the fundamental unit eps0 > 1; tp_fund_unit is the totally
    positive fundamental unit (eps0 itself when N(eps0) = 1, else eps0^2).
    """

    d: int
    discriminant: int
    omega: QuadSurd
    fund_unit: QuadSurd
    fund_unit_norm: int
    tp_fund_unit: QuadSurd


def check_radicand(d: int) -> None:
    """Raise NotSquarefree unless d is a squarefree integer > 1."""
    if d <= 1:
        raise NotSquarefree(d)
    p = square_prime(d)
    if p:
        raise NotSquarefree(d, p)


def field_discriminant(d: int) -> int:
    """The discriminant of Q(sqrt(d)) for squarefree d > 1: d or 4d."""
    return d if d % 4 == 1 else 4 * d


def make_field(d: int) -> FieldData:
    """Construct FieldData for squarefree d > 1."""
    check_radicand(d)
    omega = QuadSurd(1, 1, 2, d) if d % 4 == 1 else QuadSurd.sqrt(d)
    eps0, norm = _fundamental_unit(omega)
    eps = eps0 if norm == 1 else eps0 * eps0
    if not (eps > 1 and eps.conj() > 0 and eps.norm() == 1):
        raise InternalInvariantError("totally positive unit contract broken")
    return FieldData(d, field_discriminant(d), omega, eps0, norm, eps)


def _fundamental_unit(omega: QuadSurd) -> tuple[QuadSurd, int]:
    """Fundamental unit > 1 via the continued fraction of omega.

    The plus period of omega, folded at the complete quotient y where it
    starts, gives the fundamental automorph of the maximal order.
    """
    _, period, y = surd_walk(omega, minus=False)
    # fixed point y = (m00*y + m01)/(m10*y + m11) for the period word;
    # eps = m10*y + m11 is a unit of norm det = (-1)^len(period)
    _, _, m10, m11 = fold_moebius(period, plus=True)
    eps = y * m10 + m11
    norm = (-1) ** len(period)
    if eps < 0:
        eps = -eps
    if eps < 1:
        eps = eps.inverse()
        if norm == -1:
            eps = -eps
    if eps.norm() != norm or not eps > 1:
        raise InternalInvariantError("fundamental unit computation failed")
    return eps, norm


@dataclass(frozen=True)
class IdealLattice:
    """A full lattice in K, stored in canonical Hermite normal form.

    The lattice is (1/den) * { Z*e + Z*(f + h*omega) } with e, h > 0,
    0 <= f < e, h | e, h | f for ideals (general lattices keep arbitrary f),
    and gcd(e, f, h, den) = 1.  Equal lattices normalize identically.
    """

    e: int
    f: int
    h: int
    den: int

    def __post_init__(self):
        for name in ("e", "h", "den"):
            if getattr(self, name) <= 0:
                raise ValidationError(
                    f"ideal {name} must be positive, got {getattr(self, name)}")

    @staticmethod
    def from_rows(rows: list[tuple[Rational, Rational]]) -> IdealLattice:
        """Lattice generated by vectors u + v*omega given as (u, v) pairs."""
        rows = [(Fraction(u), Fraction(v)) for u, v in rows]
        den = 1
        for u, v in rows:
            den = math.lcm(den, u.denominator, v.denominator)
        ints = [(int(u * den), int(v * den)) for u, v in rows]
        e, f, h = _hnf2(ints)
        if e == 0 or h == 0:
            raise ValueError("generators do not span a full lattice")
        g = math.gcd(math.gcd(e, f), math.gcd(h, den))
        return IdealLattice(e // g, f // g, h // g, den // g)

    @staticmethod
    def from_surds(alpha: QuadSurd, beta: QuadSurd, F: FieldData) -> IdealLattice:
        return IdealLattice.from_rows([alpha.coords(F.omega),
                                       beta.coords(F.omega)])

    def basis(self, F: FieldData) -> tuple[QuadSurd, QuadSurd]:
        d = F.d
        one = QuadSurd.from_rational(1, d)
        u = (one * self.e) * Fraction(1, self.den)
        v = (self.f + self.h * F.omega) * Fraction(1, self.den)
        return u, v

    def member(self, x: QuadSurd, F: FieldData) -> bool:
        u, v = x.coords(F.omega)
        u, v = u * self.den, v * self.den
        if v.denominator != 1 or v % self.h:
            return False
        n2 = v / self.h
        u = u - n2 * self.f
        return u.denominator == 1 and u % self.e == 0


def _hnf2(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite normal form of the lattice spanned by integer rows (u, v).

    Returns (e, f, h): basis vectors (e, 0) and (f, h) with h > 0 dividing
    every second coordinate and 0 <= f < e.
    """
    h = 0
    for _, v in rows:
        h = math.gcd(h, v)
    if h == 0:
        e = 0
        for u, _ in rows:
            e = math.gcd(e, u)
        return e, 0, 0
    # find f with (f, h) in the lattice via the extended gcd of the v's
    f_acc, g = 0, 0
    for u, v in rows:
        if v == 0:
            continue
        gg = math.gcd(g, v)
        # solve a*g + b*v = gg
        a, b = _bezout(g, v)
        f_acc = a * f_acc + b * u
        g = gg
    f = f_acc
    e = 0
    for u, v in rows:
        k = v // h
        e = math.gcd(e, abs(u - k * f))
    if e == 0:
        return 0, 0, h
    f %= e
    return e, f, h


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Coefficients (x, y) with x*a + y*b = math.gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        # floor division leaves a negative remainder chain for negative
        # inputs; flip so the combination hits the nonnegative gcd
        x0, y0 = -x0, -y0
    return x0, y0


def maximal_order(F: FieldData) -> IdealLattice:
    return IdealLattice(1, 0, 1, 1)


def is_fractional_ideal(F: FieldData, L: IdealLattice) -> bool:
    """True iff L is stable under multiplication by omega (an O-module)."""
    a, b = L.basis(F)
    return L.member(a * F.omega, F) and L.member(b * F.omega, F)


def ideal_norm(F: FieldData, L: IdealLattice) -> Fraction:
    """Generalized index |det(basis over (1, omega))| of a fractional ideal."""
    if not is_fractional_ideal(F, L):
        raise NotAnIdeal(f"{L} is not an O-module")
    return Fraction(L.e * L.h, L.den * L.den)


def ideal_inverse(F: FieldData, L: IdealLattice) -> IdealLattice:
    """The fractional ideal with L * result = O (conjugate over norm)."""
    n = ideal_norm(F, L)
    a, b = L.basis(F)
    inv = IdealLattice.from_surds(a.conj() * (1 / n), b.conj() * (1 / n), F)
    if lattice_product(F, L, inv) != maximal_order(F):
        raise InternalInvariantError("ideal inverse failed product check")
    return inv


def lattice_product(F: FieldData, L: IdealLattice, M: IdealLattice) -> IdealLattice:
    a, b = L.basis(F)
    c, e = M.basis(F)
    gens = [a * c, a * e, b * c, b * e]
    return IdealLattice.from_rows([g.coords(F.omega) for g in gens])


def norm_residue(F: FieldData, b: IdealLattice, delta: QuadSurd,
                 C: int, D: int, q: int) -> int:
    """N(b * (C + D*delta)) mod q, in [0, q), through the lattice product.

    The per-cell route that norm_form replaces; kept as its oracle.
    """
    if lattice_product(F, b, IdealLattice.from_surds(
            QuadSurd.from_rational(1, F.d), delta, F)) != maximal_order(F):
        raise IncompatiblePair("b * [1, delta] is not the maximal order")
    t, nm = delta.trace(), delta.norm()
    val = (C * C + t * C * D + nm * D * D) * ideal_norm(F, b)
    if val.denominator != 1:
        raise InternalInvariantError("norm of an integral ideal not integral")
    return int(val) % q


def norm_form(delta: QuadSurd) -> tuple[int, int, int]:
    """Integers (u, v, w) with N(b * (C + D*delta)) = u C^2 + v CD + w D^2,
    where b = [1, delta]^{-1}.

    For delta = (a + b*sqrt(d))/c this is the primitive minimal polynomial
    of delta, (c^2, 2ac, a^2 - b^2 d)/g with g the gcd of the three.  Its
    discriminant v^2 - 4uw equals the field discriminant exactly when
    [1, delta] is an ideal of the maximal order; then b is an integral
    ideal with N(b) = u.  Any other delta raises IncompatiblePair.
    """
    a, b, c, d = delta.a, delta.b, delta.c, delta.d
    u, v, w = c * c, 2 * a * c, a * a - b * b * d
    g = math.gcd(u, v, w)
    u, v, w = u // g, v // g, w // g
    if v * v - 4 * u * w != field_discriminant(d):
        raise IncompatiblePair(
            f"[1, {delta}] is not an ideal of the maximal order of "
            f"Q(sqrt({d}))")
    return u, v, w


def class_numbers(F: FieldData) -> tuple[int, int]:
    """(h, h_plus) of F by enumerating cycles of reduced indefinite forms.

    The form class number of discriminant D equals the narrow class number
    h_plus; h follows from the norm of the fundamental unit.
    """
    if F.d > CLASS_NUMBER_BOUND:
        raise BoundExceeded(f"d = {F.d} exceeds {CLASS_NUMBER_BOUND}")
    D = F.discriminant
    sq = math.isqrt(D)

    def reduced(a: int, b: int) -> bool:
        # |sqrt(D) - 2|a|| < b < sqrt(D), exact in integers
        if b <= 0 or b * b >= D:
            return False
        if (b + 2 * abs(a)) ** 2 <= D:
            return False
        t = 2 * abs(a) - b
        return t < 0 or t * t < D

    forms = set()
    for b in range(1, sq + 1):
        if (D - b * b) % 4:
            continue
        ac = (b * b - D) // 4  # negative
        for a in range(1, math.isqrt(-ac) + 1):
            if ac % a:
                continue
            c = ac // a
            for (aa, cc) in ((a, c), (-a, -c), (c, a), (-c, -a)):
                if reduced(aa, b):
                    forms.add((aa, b, cc))

    def rho(form):
        a, b, c = form
        # b' = -b mod 2c chosen with sqrt(D) - 2|c| < b' < sqrt(D)
        step = 2 * abs(c)
        b2 = (-b) % step
        while b2 * b2 >= D or (b2 + 2 * abs(c)) ** 2 <= D:
            b2 += step
            if b2 > D:
                raise InternalInvariantError("reduction step failed")
        c2 = (b2 * b2 - D) // (4 * c)
        return (c, b2, c2)

    h_plus = 0
    remaining = set(forms)
    while remaining:
        h_plus += 1
        start = next(iter(remaining))
        f = start
        while True:
            remaining.discard(f)
            f = rho(f)
            if f == start:
                break
    if F.fund_unit_norm == -1:
        h = h_plus
    else:
        if h_plus % 2:
            raise InternalInvariantError("odd form count with N(eps0) = +1")
        h = h_plus // 2
    return h, h_plus
