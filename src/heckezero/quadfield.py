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
    must satisfy (-1)^l = N(eps0).  make_field has bounded F.d."""
    D = F.discriminant
    s = math.isqrt(D)
    states = set()
    for P in range(2 - D % 2, s + 1, 2):
        N = (D - P * P) // 4
        for a in range(1, math.isqrt(N) + 1):
            if N % a == 0:
                states.update((P, Q) for Q in (2 * a, 2 * N // a)
                              if s - P < Q <= s + P)
    h = 0
    while states:
        h += 1
        P, Q = start = states.pop()
        length = 0
        while not length or (P, Q) != start:
            P = (P + s) // Q * Q - P
            Q = (D - P * P) // Q
            states.discard((P, Q))
            length += 1
        if (-1) ** length != F.fund_unit_norm:
            raise InternalInvariantError(
                f"cycle length {length}, N(eps0) = {F.fund_unit_norm}")
    return h, h if F.fund_unit_norm == -1 else 2 * h
