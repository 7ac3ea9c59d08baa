"""Real quadratic field data: integral basis, units, the norm form of
b = [1, delta]^{-1}, and class numbers by counting plus cycles of reduced
surds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cfrac import fold_moebius, surd_walk
from .errors import (BoundExceeded, IncompatiblePair, InternalInvariantError,
                     NotSquarefree)
from .exact import QuadSurd, square_prime

CLASS_NUMBER_BOUND = 10 ** 6


class FieldData(NamedTuple):
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
    """Construct FieldData for squarefree 1 < d <= CLASS_NUMBER_BOUND; a
    larger d is refused before the unit is built."""
    check_radicand(d)
    if d > CLASS_NUMBER_BOUND:
        raise BoundExceeded(f"d = {d} exceeds {CLASS_NUMBER_BOUND}")
    omega = QuadSurd(1, 1, 2, d) if d % 4 == 1 else QuadSurd.sqrt(d)
    eps0, norm = _fundamental_unit(omega)
    eps = eps0 if norm == 1 else eps0 * eps0
    if not (eps > 1 and eps.conj() > 0 and _norm_is(eps, 1)):
        raise InternalInvariantError("totally positive unit contract broken")
    return FieldData(d, field_discriminant(d), omega, eps0, norm, eps)


def _fundamental_unit(omega: QuadSurd) -> tuple[QuadSurd, int]:
    """Fundamental unit > 1 via the continued fraction of omega.

    The plus period of omega, folded at the complete quotient y where it
    starts, gives the fundamental automorph of the maximal order.
    """
    _, period, y = surd_walk(omega, minus=False)
    # fixed point y = (m00*y + m01)/(m10*y + m11) for the period word;
    # eps = m10*y + m11 is a unit of norm det = (-1)^len(period), and
    # eps > 1 since y > 1, m10 >= 1 and m11 >= 0 for plus digits
    _, _, m10, m11 = fold_moebius(period, plus=True)
    eps = y * m10 + m11
    norm = (-1) ** len(period)
    if not (_norm_is(eps, norm) and eps > 1):
        raise InternalInvariantError("fundamental unit computation failed")
    return eps, norm


def _norm_is(x: QuadSurd, n: int) -> bool:
    """Whether N(x) = n, on integers: (a^2 - b^2 d)/c^2 = n for
    x = (a + b*sqrt(d))/c."""
    return x.a * x.a - x.b * x.b * x.d == n * x.c * x.c


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
    """(h, h_plus) of F.  h counts the cycles of the plus step on the reduced
    x = (P + sqrt(D))/Q (x > 1, -1 < x' < 0): two share a cycle exactly when
    they are GL_2(Z)-equivalent, that is when the lattices [1, x] lie in one
    wide ideal class (Cohen, A Course in Computational Algebraic Number
    Theory, 5.6).  h_plus = h if N(eps0) = -1, else 2h; every cycle length l
    must satisfy (-1)^l = N(eps0).  make_field has bounded F.d.

    The reduced x are the states (P, Q) with 0 < P < sqrt(D), Q = 2a for a
    divisor a of N = (D - P^2)/4, and sqrt(D) - P < Q < sqrt(D) + P.  The
    cofactor Q' = 2N/a has Q*Q' = (sqrt(D) - P)(sqrt(D) + P), so (P, Q) is
    reduced exactly when (P, Q') is, and one of the two has a <= isqrt(N).
    Such an a gives Q <= sqrt(D - P^2) < sqrt(D) + P, so it is reduced
    exactly when a > (isqrt(D) - P)/2.  The trial division therefore starts
    at that edge and keeps both states of each divisor untested, and for
    odd N it tries odd a only.  N is always odd at D = 5 mod 8, odd for
    every other P at D = 4d and never odd at D = 1 mod 8, so the divisions
    number about 0.036 D, 0.054 D and 0.071 D, where the whole range
    1..isqrt(N) takes 0.2 D.

    Each cofactor is kept because the walk checks every plus step against
    the enumeration: a cycle passes through states with a <= isqrt(N) and
    their cofactors alike, and a step onto a state that is not listed, or
    was already walked, raises InternalInvariantError.  So a missing or
    stray state cannot change h silently, and no walk takes more steps
    than there are states."""
    D = F.discriminant
    s = math.isqrt(D)
    states = set()
    for P in range(2 - D % 2, s + 1, 2):
        N = (D - P * P) // 4
        lo, hi = (s - P) // 2 + 1, math.isqrt(N) + 1
        # an odd N has only odd divisors
        for a in range(lo | 1, hi, 2) if N % 2 else range(lo, hi):
            if N % a == 0:
                states.update(((P, 2 * a), (P, 2 * N // a)))
    h = 0
    while states:
        h += 1
        P, Q = start = states.pop()
        length = 1
        while True:
            P = (P + s) // Q * Q - P
            Q = (D - P * P) // Q
            if (P, Q) == start:
                break
            if (P, Q) not in states:
                raise InternalInvariantError(
                    f"plus step from {start} left the reduced states")
            states.remove((P, Q))
            length += 1
        if (-1) ** length != F.fund_unit_norm:
            raise InternalInvariantError(
                f"cycle length {length}, N(eps0) = {F.fund_unit_norm}")
    return h, h if F.fund_unit_norm == -1 else 2 * h
