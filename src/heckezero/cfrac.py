"""Plus and minus continued fractions of quadratic surds, the plus-to-minus
conversion and exact periodic evaluation, on integers and surds alone.
"""

from __future__ import annotations

import math

from .errors import (BoundExceeded, DegenerateWord, InternalInvariantError,
                     ParseError, RationalInput)
from .exact import QuadSurd, squarefree_part

# surd_walk and minus_length (so minus_word) refuse a word longer than this:
# no family member below N_SEARCH_LIMIT needs more than 2*10^4 digits, and
# q^2 * m within KERNEL_STEP_BOUND already caps m at 10^6 for q = 10
WALK_DIGIT_BOUND = 10 ** 6


class PlusCF:
    """Eventually periodic plus continued fraction a0 + 1/(a1 + ...)."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise ParseError("period must be nonempty")
        if any(a < 1 for a in period):
            raise ParseError("periodic plus digits must be >= 1")
        self.preperiod, self.period = tuple(preperiod), tuple(period)

    def __eq__(self, other) -> bool:
        if other.__class__ is not PlusCF:
            return NotImplemented
        return (self.preperiod, self.period) == \
            (other.preperiod, other.period)

    def __repr__(self) -> str:
        # family_instance quotes it in SpecInconsistent
        return f"PlusCF(preperiod={self.preperiod}, period={self.period})"


class MinusCF:
    """Eventually periodic minus continued fraction b0 - 1/(b1 - ...).

    When produced by minus_word, carries the special positions S_j at which
    the digit exceeds 2.
    """

    __slots__ = ("preperiod", "period", "special_positions")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...],
                 special_positions: tuple[int, ...] = ()):
        if not period:
            raise ParseError("period must be nonempty")
        if any(b < 2 for b in period):
            raise ParseError("periodic minus digits must be >= 2")
        self.preperiod, self.period = tuple(preperiod), tuple(period)
        self.special_positions = tuple(special_positions)

    def __eq__(self, other) -> bool:
        if other.__class__ is not MinusCF:
            return NotImplemented
        return (self.preperiod, self.period, self.special_positions) == \
            (other.preperiod, other.period, other.special_positions)

    @property
    def m(self) -> int:
        return len(self.period)

    def rotated(self, k: int) -> MinusCF:
        """The word started at digit index k (cyclically)."""
        k %= self.m
        return MinusCF((), self.period[k:] + self.period[:k])


def surd_walk(x: QuadSurd, minus: bool
              ) -> tuple[tuple[int, ...], tuple[int, ...], QuadSurd]:
    """(preperiod, period, tail) of the plus or minus expansion of x.

    Runs on integer states x_k = (P + sqrt(D))/Q with Q | D - P^2 (Cohen,
    ch. 5).  Plus digits are floor(x_k) with x_{k+1} = 1/(x_k - a_k), minus
    digits ceil(x_k) with x_{k+1} = 1/(b_k - x_k).  The period starts at the
    first reduced state, the one state the walk remembers: x > 1 with
    -1 < x' < 0 (plus) or 0 < x' < 1 (minus), exactly the states whose
    expansion is purely periodic (Galois; Zagier for minus).  It closes when
    the walk returns there, and tail is the complete quotient at that state.
    BoundExceeded past WALK_DIGIT_BOUND digits.
    """
    if x.is_rational():
        raise RationalInput(f"{x} is rational")
    a, b, c = x.a, abs(x.b), x.c
    P, Q, D = a * c, c * c, b * b * c * c * x.d
    if x.b < 0:
        P, Q = -P, -Q
    s = math.isqrt(D)
    # a reduced state has Q > 0; sqrt(D) is irrational, so n < sqrt(D)
    # iff n <= s for an integer n: x > 1 iff Q - P <= s, x' < 0 iff P <= s,
    # x' > -1 iff s < P + Q, and x' < 1 iff P - Q <= s
    j = None
    digits: list[int] = []
    while True:
        if j is None:
            if Q > 0 and Q - P <= s and (
                    P > s and P - Q <= s if minus else P <= s < P + Q):
                j, P0, Q0 = len(digits), P, Q
        elif P == P0 and Q == Q0:
            break
        if len(digits) == WALK_DIGIT_BOUND:
            raise BoundExceeded(
                f"the expansion of {x} runs past {WALK_DIGIT_BOUND} digits")
        k = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        if minus:
            k += 1
        digits.append(k)
        P = k * Q - P
        Q = (P * P - D) // Q if minus else (D - P * P) // Q
    return tuple(digits[:j]), tuple(digits[j:]), QuadSurd(P, b * c, Q, x.d)


def plus_expand(x: QuadSurd) -> PlusCF:
    """Plus continued fraction digits with exact periodicity detection."""
    preperiod, period, _ = surd_walk(x, minus=False)
    return PlusCF(preperiod, period)


def minus_expand(x: QuadSurd) -> MinusCF:
    """Minus continued fraction digits b_k = ceil(x_k), x_{k+1} = 1/(b_k - x_k)."""
    preperiod, period, _ = surd_walk(x, minus=True)
    return MinusCF(preperiod, period)


def minus_length(a: tuple[int, ...]) -> int:
    """The length m of minus_word(a), read off the plus period a without
    building the word; BoundExceeded when m exceeds WALK_DIGIT_BOUND."""
    m = sum(a) if len(a) % 2 else sum(a[1::2])
    if m > WALK_DIGIT_BOUND:
        raise BoundExceeded(
            f"the minus word has {m} digits, over {WALK_DIGIT_BOUND}")
    return m


def minus_word(a: tuple[int, ...]) -> MinusCF:
    """The minus word of value + 1 for the purely periodic plus period a,
    uncertified.

    With s = len(a), the minus period is m = a_1 + a_3 + ... + a_{s-1} for
    even s and a_0 + ... + a_{s-1} for odd s; digits are a_{2j} + 2 at the
    positions S_j = S_{j-1} + a_{2j-1} (S_0 = 0, j below s for odd s and
    below s/2 for even s) and 2 elsewhere.  All a-indices wrap mod s.
    BoundExceeded when m exceeds WALK_DIGIT_BOUND.
    """
    s = len(a)
    m = minus_length(a)
    positions = [0]
    for j in range(1, s if s % 2 else s // 2):
        positions.append(positions[-1] + a[(2 * j - 1) % s])
    digits = [2] * m
    for j, S in enumerate(positions):
        digits[S] = a[(2 * j) % s] + 2
    return MinusCF((), tuple(digits), special_positions=tuple(positions))


def plus_to_minus(p: PlusCF) -> MinusCF:
    """minus_word of a purely periodic plus word, certified: the minus value
    must equal the plus value + 1."""
    out = minus_word(p.period)
    if evaluate_periodic(out) != evaluate_periodic(p) + 1:
        raise InternalInvariantError("plus_to_minus certification failed")
    return out


def fold_moebius(word, plus: bool) -> tuple[int, int, int, int]:
    """(m00, m01, m10, m11) with the word read from y equal to
    (m00 y + m01)/(m10 y + m11): the maps y -> a + 1/y (plus) or
    y -> a - 1/y (minus) composed over the digits a."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    sign = 1 if plus else -1
    for a in word:
        m00, m01, m10, m11 = (m00 * a + m01, sign * m00,
                              m10 * a + m11, sign * m10)
    return m00, m01, m10, m11


def fixes_plus_word(word, A: int, B: int, c: int, d: int) -> bool:
    """Whether x = (A + B sqrt(d))/c, B != 0, is the fixed point of the plus
    word's fold: m10 x^2 + (m11 - m00) x = m01, its sqrt(d) part and its
    rational part each multiplied by c^2.  It runs on the integers alone,
    so d need not be squarefree.

    For reduced x (x > 1, -1 < x' < 0) and a primitive word with digits
    >= 1 this holds iff plus_expand(x).period == word: x = [word; x] with
    x > 1 makes word repeated the expansion of x, and a reduced x has a
    purely periodic one.
    """
    m00, m01, m10, m11 = fold_moebius(word, plus=True)
    return (2 * m10 * A + (m11 - m00) * c == 0
            and m10 * (A * A + B * B * d) + (m11 - m00) * A * c
            == m01 * c * c)


def evaluate_periodic(word: PlusCF | MinusCF) -> QuadSurd:
    """The exact quadratic surd fixed by an eventually periodic word."""
    plus = isinstance(word, PlusCF)
    m00, m01, m10, m11 = fold_moebius(word.period, plus)
    # fixed point of y = (m00 y + m01)/(m10 y + m11)
    A, B, C = m10, m11 - m00, -m01
    disc = B * B - 4 * A * C
    if disc <= 0:
        raise DegenerateWord("no real quadratic fixed point")
    d, s = squarefree_part(disc)
    if d == 1:
        raise DegenerateWord("period word has rational fixed points")
    y = QuadSurd(-B, s, 2 * A, d)  # larger root (A = m10 > 0)
    for a in reversed(word.preperiod):
        # x = a + 1/y (plus) or a - 1/y (minus)
        y = a + y.inverse() * (1 if plus else -1)
    return y

