"""Dirichlet characters mod q and the field Q(zeta_o) of their values:
characters as exponents over the canonical generators of (Z/q)*, elements
of Q(zeta_o) in the power basis, generalized Bernoulli numbers twisted by a
real quadratic character, and mod-p realizations.

Every command that prints a chi-value loads this module, and with it
fractions and decimal; field and cf load none of them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import BoundExceeded, InternalInvariantError, ParseError
from .exact import factorize, rational_to_str
from .kernels import KERNEL_STEP_BOUND


class UnitGroup(NamedTuple):
    """The unit group of Z/q on its canonical generators: units lists the
    unit residues, and columns[i][j] is the exponent of gens[i] in
    units[j], so units[j] = prod_i gens[i]^columns[i][j] mod q."""

    gens: tuple[int, ...]
    orders: tuple[int, ...]
    units: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _unit_group(q: int) -> UnitGroup:
    """Canonical generating set of (Z/q)* and the discrete logs of its units.

    Generators: the smallest primitive root for each odd prime power factor,
    and the pair (-1, 5) at 2^k for k >= 3; each lifted by CRT to be 1 at the
    other factors.
    """
    gens: list[int] = []
    orders: list[int] = []
    for p, k in sorted(factorize(q).items()) if q > 1 else []:
        pk = p ** k
        rest = q // pk
        if p == 2:
            if k == 1:
                continue
            local = [(pk - 1, 2)] if k == 2 else [(pk - 1, 2), (5, 2 ** (k - 2))]
        else:
            local = [(_primitive_root(pk), euler_phi(pk))]
        for g, n in local:
            gens.append(_crt_lift(g, pk, rest, q))
            orders.append(n)
    table: dict[int, tuple[int, ...]] = {}
    for exps in product(*(range(n) for n in orders)):
        r = 1
        for g, n, e in zip(gens, orders, exps):
            r = r * pow(g, e, q) % q
        table[r % q] = exps
    if len(table) != euler_phi(q):
        raise InternalInvariantError(f"unit group of Z/{q} misgenerated")
    return UnitGroup(tuple(gens), tuple(orders), tuple(table),
                     tuple(zip(*table.values())))


def _primitive_root(pk: int) -> int:
    phi = euler_phi(pk)
    prime_divs = list(factorize(phi))
    for g in range(2, pk):
        if math.gcd(g, pk) != 1:
            continue
        if all(pow(g, phi // p, pk) != 1 for p in prime_divs):
            return g
    raise InternalInvariantError(f"no primitive root mod {pk}")


def _crt_lift(g: int, pk: int, rest: int, q: int) -> int:
    if rest == 1:
        return g % q
    inv = pow(pk, -1, rest)
    return (g + pk * ((1 - g) * inv % rest)) % q


class DirichletCharacter:
    """Character of (Z/q)* given by one exponent per canonical generator.

    chi(g_i) = zeta_{n_i}^{e_i} where n_i is the order of generator g_i.
    The order of chi and its hash are computed once, when it is built.
    """

    __slots__ = ("modulus", "exponents", "order", "_hash")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        orders = _unit_group(modulus).orders
        if len(exponents) != len(orders):
            raise ValueError("wrong number of exponents")
        self.modulus = modulus
        self.exponents = tuple(e % n for e, n in zip(exponents, orders))
        # chi(g_i) has order n_i / gcd(e_i, n_i), and chi the lcm of those
        self.order = math.lcm(*(n // math.gcd(e, n)
                                for e, n in zip(self.exponents, orders)))
        self._hash = hash((modulus, self.exponents))

    def __eq__(self, other) -> bool:
        if other.__class__ is not DirichletCharacter:
            return NotImplemented
        return (self.modulus, self.exponents) == \
            (other.modulus, other.exponents)

    def __hash__(self):
        return self._hash

    def __pow__(self, k: int) -> DirichletCharacter:
        """chi^k, with chi^k(a) = chi(a)^k."""
        return DirichletCharacter(self.modulus,
                                  tuple(k * e for e in self.exponents))

    def conjugate(self) -> DirichletCharacter:
        return self ** -1

    def identifier(self) -> str:
        gens = _unit_group(self.modulus).gens
        pairs = ",".join(f"{g}:{e}" for g, e in zip(gens, self.exponents))
        return f"q={self.modulus};gens={pairs}"

    @staticmethod
    def from_identifier(s: str) -> DirichletCharacter:
        try:
            qpart, gpart = s.split(";")
            q = int(qpart.removeprefix("q="))
            body = gpart.removeprefix("gens=")
            pairs = [(int(g), int(e)) for g, e in
                     (t.split(":") for t in body.split(","))] if body else []
        except (ValueError, AttributeError) as exc:
            raise ParseError(f"bad character identifier {s!r}") from exc
        if q < 1:
            raise ParseError(f"character modulus must be >= 1, got q = {q}")
        # an L-value mod q sums at least q^2 kernel steps, so past this
        # modulus none fits the budget; refused before the phi(q) table
        if q > math.isqrt(KERNEL_STEP_BOUND):
            raise BoundExceeded(
                f"modulus q = {q}: q^2 kernel steps exceed "
                f"{KERNEL_STEP_BOUND}")
        gens = _unit_group(q).gens
        exps: dict[int, int] = {}
        for g, e in pairs:
            if g not in gens:
                raise ParseError(f"{g} is not a canonical generator mod {q}")
            if g in exps:
                raise ParseError(f"generator {g} is named twice in {s!r}")
            exps[g] = e
        return DirichletCharacter(q, tuple(exps.get(g, 0) for g in gens))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q."""
    orders = _unit_group(q).orders
    return [DirichletCharacter(q, exps)
            for exps in product(*(range(n) for n in orders))]


def chi_weights(chi: DirichletCharacter, table) -> list[int]:
    """The integers w_j with sum_a chi(a)*table[a] = sum_j w_j zeta_o^j,
    o = chi.order, for integers table[a] indexed by the residues a mod q.

    The one place a character meets data: every character sum builds a
    chi-free residue table and folds it here.  Entries at non-units, which
    chi annihilates, are ignored.  The exponent j of each unit is built one
    generator column at a time from the cached discrete logs.
    """
    o = chi.order
    group = _unit_group(chi.modulus)
    exps = [0] * len(group.units)
    for e, n, column in zip(chi.exponents, group.orders, group.columns):
        # chi(g_i) = zeta_{n_i}^{e_i} = zeta_o^{e_i o / n_i}; o is a
        # multiple of the order of every zeta_{n_i}^{e_i}, so each step is
        # an integer
        if e * o % n:
            raise InternalInvariantError(
                "character phase not compatible with its order")
        if e:
            step = e * o // n
            exps = [x + step * t for x, t in zip(exps, column)]
    weights = [0] * o
    for a, x in zip(group.units, exps):
        weights[x % o] += table[a]
    return weights


def odd_primitive_characters(q: int) -> list[DirichletCharacter]:
    """The odd characters of conductor q, for odd q, in the order of
    enumerate_characters(q), read off the generator exponents with q
    factored once: only the exponent tuples that pass become characters.

    At each p^k || q the generator g has even order phi = phi(p^k), so
    -1 = g^(phi/2) and chi(-1) = (-1)^(sum of the e_i).  chi has conductor
    q iff no p^k component factors through p^(k-1): for k = 1 iff e != 0;
    for k >= 2 iff chi(g^(phi/p)) = zeta_p^e != 1, g^(phi/p) generating the
    kernel of reduction mod p^(k-1), i.e. iff p does not divide e.
    """
    powers = sorted(factorize(q).items())
    orders = _unit_group(q).orders
    return [DirichletCharacter(q, exps)
            for exps in product(*(range(n) for n in orders))
            if sum(exps) % 2
            and all(e % p if k > 1 else e for (p, k), e in zip(powers, exps))]


def _kronecker_raw(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    # now n odd positive: Jacobi symbol (a/n)
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def gen_bernoulli_b1(chi: DirichletCharacter, disc: int = 1) -> CycloElement:
    """B_{1,psi} = (1/f) * sum_{a=1}^{f} a*psi(a), exact, for
    psi = chi * (disc/.) of modulus f = q*disc.

    disc is a positive fundamental discriminant; the default 1 gives
    B_{1,chi}.  The sum is the chi-fold of b1_table(q, disc).
    """
    q = chi.modulus
    return chi_sum(chi, b1_table(q, disc), Fraction(1, q * disc))


def b1_table(q: int, disc: int = 1) -> list[int]:
    """Entry a (0 <= a < q) is the sum of b*(disc/b) over the b = a mod q
    in [1, q*disc]: its chi-fold is f*B_{1,psi}, f = q*disc, for every
    character chi mod q.

    (disc/.) is a character mod disc, read from a table of one period.
    disc is 1 or field_discriminant of a checked radicand.
    """
    kron = [_kronecker_raw(disc, a) for a in range(disc)]
    table = [0] * q
    for a in range(1, q * disc + 1):
        table[a % q] += a * kron[a % disc]
    return table


def unit_product(s, t, q: int) -> list[int]:
    """u[c] = sum s[a]*t[b] over the units a, b mod q with ab = c mod q:
    chi is multiplicative on the units and 0 off them, so for every chi
    mod q the chi-fold of u is the product of those of s and t."""
    units = _unit_group(q).units
    out = [0] * q
    for a in units:
        if s[a]:
            for b in units:
                out[a * b % q] += s[a] * t[b]
    return out


class ModPRealization(NamedTuple):
    """Reduction of Q(zeta_o) to Z/pZ along zeta_o -> zeta_image.

    Computationally equivalent to a degree-one prime of the character field
    over p: zeta_image has multiplicative order exactly o mod p.
    """

    p: int
    order: int
    zeta_image: int

    def image(self, weights) -> int:
        """The image of sum_j weights[j] * zeta_o^j for integer weights, by
        Horner's rule at zeta_image.  zeta_image has order exactly o, so it
        is a root of the o-th cyclotomic polynomial mod p and the weights
        need no reduction first: this is the image of their reduced
        coordinates as well."""
        t, p = self.zeta_image, self.p
        acc = 0
        for w in reversed(weights):
            acc = (acc * t + w) % p
        return acc


def modp_realizations(chi: DirichletCharacter, p: int
                      ) -> dict[int, ModPRealization]:
    """The realizations zeta_o -> h^e of o = chi.order at the prime p, keyed
    by e in [1, o] prime to o: one per element of exact order o in (Z/p)*,
    and none if o does not divide p - 1.

    h = t^((p-1)/o) for the least t that gives exact order o (for a
    primitive root t it always does), so only o is factored, not p - 1.
    """
    o = chi.order
    if (p - 1) % o:
        return {}
    primes_o = list(factorize(o))
    for t in range(1, p):
        h = pow(t, (p - 1) // o, p)
        if all(pow(h, o // ell, p) != 1 for ell in primes_o):
            break
    return {e: ModPRealization(p, o, pow(h, e, p))
            for e in range(1, o + 1) if math.gcd(e, o) == 1}


# ---------------------------------------------------------------------------
# the field Q(zeta_o) of the character values


@lru_cache(maxsize=None)
def cyclotomic_polynomial(o: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the o-th cyclotomic polynomial."""
    if o == 1:
        return (-1, 1)
    # divide x^o - 1 by the product of Phi_e over proper divisors e of o
    num = [0] * (o + 1)
    num[0], num[o] = -1, 1
    for e in range(1, o):
        if o % e == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(e)))
    return tuple(num)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        coef = num[i + len(den) - 1] // den[-1]
        q[i] = coef
        for j, dj in enumerate(den):
            num[i + j] -= coef * dj
    if any(num):
        raise InternalInvariantError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


class CycloElement:
    """Element of Q(zeta_o) as its phi(o) rational coordinates in the power
    basis, reduced mod the o-th cyclotomic polynomial.  A plain value that
    cyclo_value builds: sums and products of chi-values are taken on the
    integer tables before the one fold, so it has no arithmetic."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order, self.coeffs = order, tuple(coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloElement):
            return NotImplemented
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        terms = [f"{c}*z{self.order}^{i}" for i, c in enumerate(self.coeffs)
                 if c]
        return " + ".join(terms) or "0"


def chi_coords(chi: DirichletCharacter, table) -> tuple[int, ...]:
    """The integer coordinates of sum_a chi(a)*table[a] in Q(zeta_o),
    o = chi.order: its chi_weights reduced once.  The reduction is linear
    and canonical, so adding or scaling tables adds or scales these."""
    return _cyclo_reduce(chi.order, chi_weights(chi, table))


def cyclo_value(order: int, coords, scale: Fraction | int = 1
                ) -> CycloElement:
    """scale * sum_j coords[j] * zeta_order^j for reduced integer
    coordinates: the one place a CycloElement is built."""
    scale = Fraction(scale)
    return CycloElement(order, tuple(c * scale for c in coords))


def chi_sum(chi: DirichletCharacter, table, scale: Fraction | int = 1
            ) -> CycloElement:
    """scale * sum_a chi(a)*table[a] for an integer table over the residues
    mod chi.modulus."""
    return cyclo_value(chi.order, chi_coords(chi, table), scale)


def _cyclo_reduce(order: int, coeffs) -> tuple[int, ...]:
    phi_poly = cyclotomic_polynomial(order)
    deg = len(phi_poly) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        coef = cs[i]
        if coef:
            for j in range(deg + 1):
                cs[i - deg + j] -= coef * phi_poly[j]
        cs.pop()
    while len(cs) < deg:
        cs.append(0)
    return tuple(cs)


DISPLAY_DIGITS = 30


def cyclo_to_dict(x: CycloElement) -> dict:
    """The payload of a chi-value: its order and exact coordinates, and,
    when x is rational, its value and a 30-significant-digit decimal
    rendering that is never authoritative."""
    out = {"order": x.order, "coeffs": [rational_to_str(c) for c in x.coeffs]}
    if x.is_rational():
        r = x.as_rational()
        out["value"] = rational_to_str(r)
        with localcontext() as ctx:
            ctx.prec = DISPLAY_DIGITS
            out["display_decimal_approx"] = str(
                Decimal(r.numerator) / Decimal(r.denominator))
    return out
