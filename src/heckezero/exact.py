"""Exact scalar arithmetic on integers and quadratic surds: residues,
factorization, the surds (a + b*sqrt(d))/c with their exact sign, and the
serialization of rationals and surds.

Importing this module loads no fractions, as field and cf run on integers
and surds alone: a surd's trace, norm and coordinates are rationals, and
only the methods that return them import Fraction.  All values are
immutable and all operations are pure functions, so everything here is safe
to use from parallel sweeps.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import BoundExceeded, ParseError

if TYPE_CHECKING:
    from fractions import Fraction


def residue_1q(m: int, q: int) -> int:
    """The representative of m mod q lying in [1, q]."""
    if q < 1:
        raise ValueError("q must be positive")
    r = m % q
    return q if r == 0 else r


# Trial division removes every prime up to this bound, so a number below its
# square is factored by trial division alone.
_TRIAL_BOUND = 10_000
# Miller-Rabin to these bases proves primality below _MR_BOUND
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_RHO_BATCH = 128
# Rho finds a prime factor p in about sqrt(p) steps, so this budget splits
# any cofactor whose least prime factor is below about 10^9 and refuses the
# rest with BoundExceeded in well under a second.
_RHO_STEPS = 1 << 18


def factorize(n: int) -> dict[int, int]:
    """Prime factorization.

    Trial division removes the primes up to _TRIAL_BOUND.  A larger
    cofactor is split by Pollard-Brent rho whenever Miller-Rabin finds a
    witness, which proves it composite at any size.  A factor with no
    witness is prime below _MR_BOUND; above it nothing proves it prime, so
    BoundExceeded is raised, as it is when rho finds no factor within
    _RHO_STEPS steps.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= _TRIAL_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if f * f <= n:
        _rho_factorize(n, out)
    elif n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _rho_factorize(n: int, out: dict[int, int]) -> None:
    """Add the factorization of n, which has no prime factor up to
    _TRIAL_BOUND, to out."""
    if _is_prime(n):
        if n >= _MR_BOUND:
            raise BoundExceeded(
                f"{n} is a probable prime above {_MR_BOUND}, where "
                "Miller-Rabin to the bases 2..41 proves nothing")
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_factor(n)
    _rho_factorize(d, out)
    _rho_factorize(n // d, out)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES for odd n > 41: False proves n
    composite; True proves it prime only below _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's
    cycle search, taking one gcd per _RHO_BATCH steps.  BoundExceeded once
    _RHO_STEPS steps, over every restart, have found none."""
    c, steps = 0, 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise BoundExceeded(
                    f"rho found no factor of {n} in {_RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:   # the batch passed the collision: replay it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d squarefree; returns (d, s).  Needs n > 0."""
    d, s = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return d, s


@lru_cache(maxsize=2 ** 14)
def square_prime(n: int) -> int:
    """The least prime p with p^2 | n, or 0 when n is squarefree.  Needs
    n >= 1.

    Memoized: one command checks the same radicand at several entry points
    (family_instance, then make_field for the same member), and a command
    that searches several residues n = qk + r re-checks the radicands of
    n <= linearity.N_SEARCH_LIMIT = 10^4, so each d is factored once per
    command.  The bound holds one such search window whole, about 2.6 MiB,
    where an unbounded memo kept every radicand a process ever saw.
    """
    for p, e in factorize(n).items():
        if e > 1:
            return p
    return 0


class QuadSurd:
    """The real number (a + b*sqrt(d)) / c, stored in canonical form.

    d is a fixed squarefree integer > 1 (kept even when b = 0 so that field
    elements stay in one ambient field); c > 0 and gcd(a, b, c) = 1.  d is
    not re-checked here: every surd takes it from check_radicand,
    squarefree_part or another surd.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(a, b), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other) -> bool:
        if other.__class__ is not QuadSurd:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == \
            (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    @staticmethod
    def from_rational(x: Fraction | int, d: int) -> QuadSurd:
        # ints and Fractions both carry numerator and denominator
        return QuadSurd(x.numerator, 0, x.denominator, d)

    @staticmethod
    def sqrt(d: int) -> QuadSurd:
        return QuadSurd(0, 1, 1, d)

    def is_rational(self) -> bool:
        return self.b == 0

    def conj(self) -> QuadSurd:
        return QuadSurd(self.a, -self.b, self.c, self.d)

    def trace(self) -> Fraction:
        from fractions import Fraction
        return Fraction(2 * self.a, self.c)

    def norm(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.a * self.a - self.b * self.b * self.d,
                        self.c * self.c)

    def _coerce(self, other) -> QuadSurd:
        if isinstance(other, QuadSurd):
            if other.d != self.d:
                raise ValueError(f"mixed fields sqrt({self.d}), sqrt({other.d})")
            return other
        return QuadSurd.from_rational(other, self.d)

    def __add__(self, other) -> QuadSurd:
        o = self._coerce(other)
        return QuadSurd(self.a * o.c + o.a * self.c,
                        self.b * o.c + o.b * self.c,
                        self.c * o.c, self.d)

    __radd__ = __add__

    def __neg__(self) -> QuadSurd:
        return QuadSurd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> QuadSurd:
        o = self._coerce(other)
        return QuadSurd(self.a * o.a + self.b * o.b * self.d,
                        self.a * o.b + self.b * o.a,
                        self.c * o.c, self.d)

    __rmul__ = __mul__

    def inverse(self) -> QuadSurd:
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadSurd(self.a * self.c, -self.b * self.c, n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def sign(self) -> int:
        return surd_sign(self)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def coords(self, omega: QuadSurd) -> tuple[Fraction, Fraction]:
        """Rational (u, v) with self = u + v*omega; omega must be irrational."""
        from fractions import Fraction
        v = Fraction(self.b * omega.c, omega.b * self.c)
        u = Fraction(self.a, self.c) - v * Fraction(omega.a, omega.c)
        return u, v

    def __str__(self) -> str:
        return f"({self.a}{self.b:+}*sqrt({self.d}))/{self.c}"


def surd_sign(x: QuadSurd) -> int:
    """Exact sign of (a + b*sqrt(d))/c; no floating point in the decision."""
    a, b = x.a, x.b
    if b == 0:
        return 0 if a == 0 else (1 if a > 0 else -1)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 d, never equal for d
    # squarefree > 1; the sign is that of the dominant term
    if a * a > b * b * x.d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


# ---------------------------------------------------------------------------
# shared serialization (used verbatim by the CLI JSON schema), and the comma
# lists of integers the CLI reads


def rational_to_str(x: Fraction | int) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


def quadsurd_to_dict(x: QuadSurd) -> dict:
    return {"a": x.a, "b": x.b, "c": x.c, "d": x.d}


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(
            f"expected comma-separated integers, got {text!r}") from None
