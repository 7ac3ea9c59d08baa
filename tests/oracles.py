"""Independent oracles the tests compare the program against.

Nothing in the package imports this module.  It holds the routes the
program no longer runs: ideal lattices in Hermite normal form (the lattice
product, inverse and norm behind the per-cell norm residue that
quadfield.norm_form replaced), the Bernoulli-polynomial evaluation of
Z(C, D) and the orbit-closure check of the cone recursion, character values
and their sums and products as weight vectors over Z[x]/(x^o - 1), reduced
to coordinates in Q(zeta_o) only to be compared, the order of a character
by an lcm loop on each read and the odd primitive filter over built
characters (DirichletCharacter now stores its order when built, and
odd_primitive_characters filters exponent tuples before it builds any),
parity and the conductor search over
the divisors of q (which characters.odd_primitive_characters reads off the
exponents), the reduction of a cyclotomic number along a mod-p realization, the condition
(*) search with one image per realization that biro.condition_star_search
replaced with one image per character and prime, fundamental discriminants
and the Kronecker symbol, floor, ceiling and power of quadratic surds, the
cycles of Zagier's reduced forms, one per narrow ideal class, the form
walk over the minus word one digit at a time and the sums of a form over
every cell (which shintani.form_counts replaced with a walk over the plus
period that counts each run of 2s by S(2)^q = I mod q, and form_sums
with the cells s and -s summed as one), and two
class-number references: the plus-cycle count over a trial division of the
whole range that quadfield.class_numbers narrowed to the reduced window,
and Dirichlet's analytic class number formula.  Three routes back the
integer paths of the family pipeline: the closed forms of each cell from
its whole nu-sequence, with the table of them that
linearity.closed_form_table replaced with coefficient pairs per (q, r)
and the shared norm form sampled where linearity.class_norm_form proves it;
reducedness of delta by surd comparisons; and the chi-fold with one
generator expression per unit residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from heckezero.acceptance import (bernoulli_poly, lattice_unit_order,
                                  nu_sequence, yamamoto_sequence)
from heckezero.cfrac import (MinusCF, evaluate_periodic, minus_word,
                             period_blocks)
from heckezero.biro import (ConditionStarPair, _check_sieve_work, _odd_primes,
                            sieve_work)
from heckezero.characters import (CycloElement, DirichletCharacter,
                                  ModPRealization, _cyclo_reduce, _unit_group,
                                  b1_table, chi_weights, enumerate_characters,
                                  modp_realizations)
from heckezero.errors import (BoundExceeded, HypothesisFailed,
                              IncompatiblePair, InsufficientSamples,
                              InternalInvariantError, ValidationError)
from heckezero.exact import QuadSurd, factorize, residue_1q, square_prime
from heckezero.kernels import KERNEL_STEP_BOUND
from heckezero.linearity import (CELL_BOUND, ClosedFormTable, FamilySpec,
                                 ResidueWord, admissible, residue_word,
                                 smallest_admissible_n)
from heckezero.quadfield import FieldData, field_discriminant, norm_form


class NotAnIdeal(ValidationError):
    """The lattice is not a fractional ideal of the maximal order."""


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
    def from_rows(rows: list[tuple[Fraction | int, Fraction | int]]
                  ) -> IdealLattice:
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


def surd_floor(x: QuadSurd) -> int:
    """Exact floor under the embedding sqrt(d) > 0."""
    # initial float-free guess from integer sqrt, then exact fix-up
    s = math.isqrt(x.b * x.b * x.d) * (1 if x.b >= 0 else -1)
    n = (x.a + s) // x.c
    while x - (n + 1) >= 0:
        n += 1
    while x - n < 0:
        n -= 1
    return n


def surd_ceil(x: QuadSurd) -> int:
    return -surd_floor(-x)


def surd_pow(x: QuadSurd, n: int) -> QuadSurd:
    if n < 0:
        return surd_pow(x.inverse(), -n)
    out = QuadSurd.from_rational(1, x.d)
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def surd_walk_by_table(x: QuadSurd, minus: bool
                       ) -> tuple[tuple[int, ...], tuple[int, ...], QuadSurd]:
    """cfrac.surd_walk by a table of every state seen: the period closes
    at the first repeated (P, Q), with no reducedness test and no bound."""
    a, b, c = x.a, abs(x.b), x.c
    P, Q, D = a * c, c * c, b * b * c * c * x.d
    if x.b < 0:
        P, Q = -P, -Q
    s = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    while (P, Q) not in seen:
        seen[P, Q] = len(digits)
        k = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        if minus:
            k += 1
        digits.append(k)
        P = k * Q - P
        Q = (P * P - D) // Q if minus else (D - P * P) // Q
    j = seen[P, Q]
    return tuple(digits[:j]), tuple(digits[j:]), QuadSurd(P, b * c, Q, x.d)


def minus_cycles(d: int) -> list[list[tuple[int, int]]]:
    """The cycles of Zagier's reduction on the reduced primitive forms of
    discriminant D = field_discriminant(d), one per narrow ideal class
    (Zagier, "A Kronecker limit formula for real quadratic fields",
    Math. Ann. 213 (1975)).

    A form (a, b, c) is reduced when a, c > 0 and b > a + c, that is when
    delta = (b + sqrt(D))/(2a) has delta > 1 > delta' > 0.  It is kept as the
    state (P, Q) = (b, 2a), and the step delta -> 1/(ceil(delta) - delta)
    is k = (P + isqrt(D))//Q + 1, P' = kQ - P, Q' = (P'^2 - D)/Q.  The
    enumeration is bounded: b^2 - (a + c)^2 = D - (a - c)^2 with
    b - (a + c) >= 1 gives b <= (D + 1)/2, and delta > 1 > delta' puts 2a
    between b - sqrt(D) and b + sqrt(D).
    """
    D = field_discriminant(d)
    s = math.isqrt(D)
    states = set()
    for P in range(s + 1 + (s + 1 + D) % 2, (D + 1) // 2 + 1, 2):
        N = (P * P - D) // 4
        for a in range(max(1, (P - s + 1) // 2), (P + s) // 2 + 1):
            if N % a == 0 and a + N // a < P and math.gcd(a, P, N // a) == 1:
                states.add((P, 2 * a))
    cycles = []
    while states:
        P, Q = start = min(states)
        cycle = []
        while not cycle or (P, Q) != start:
            states.remove((P, Q))
            cycle.append((P, Q))
            P = ((P + s) // Q + 1) * Q - P
            Q = (P * P - D) // Q
        cycles.append(cycle)
    return cycles


def class_numbers_full_scan(F: FieldData) -> tuple[int, int]:
    """(h, h_plus) of F as quadfield.class_numbers computed them before the
    reduced window: every a <= isqrt(N) is trial-divided and each of the two
    states of a divisor is tested against the window s - P < Q <= s + P."""
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


def class_number_analytic(F: FieldData) -> float:
    """h of F as a float from Dirichlet's class number formula
    h * log(eps0) = -1/2 * sum_{a=1}^{D-1} (D/a) log sin(pi a/D).

    eps0 = (a + b sqrt(d))/c has trace t = 2a/c and norm n = +-1, so
    eps0 = t (1 + sqrt(1 - 4n/t^2))/2; log t is taken from the integers, so
    a unit of any size gives a finite float.
    """
    D = F.discriminant
    total = math.fsum(kronecker(D, a) * math.log(math.sin(math.pi * a / D))
                      for a in range(1, D))
    eps = F.fund_unit
    log_eps = (math.log(2 * eps.a) - math.log(eps.c)
               + math.log((1 + math.sqrt(1 - F.fund_unit_norm * eps.c ** 2
                                         / eps.a ** 2)) / 2))
    return -total / (2 * log_eps)


def zeta_power(order: int, e: int) -> list[int]:
    """zeta_order^e as a weight vector over Z[x]/(x^order - 1)."""
    out = [0] * order
    out[e % order] = 1
    return out


def cyclic_product(x: list, y: list) -> list:
    """The product of two weight vectors of one order o in Z[x]/(x^o - 1):
    their cyclic convolution."""
    o = len(x)
    out = [0] * o
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[(i + j) % o] += a * b
    return out


def char_sum(chi: DirichletCharacter, terms) -> list:
    """sum c*chi(a) over the (a, c) of terms, a any integer, as a weight
    vector over Z[x]/(x^o - 1), o = chi.order: each term adds c at the
    exponent char_logs gives a, and nothing off the units."""
    q, logs = chi.modulus, char_logs(chi)
    out = [0] * chi.order
    for a, c in terms:
        if logs[a % q] >= 0:
            out[logs[a % q]] += c
    return out


def reduced(order: int, weights) -> tuple:
    """The coordinates of sum_j weights[j] zeta_order^j in the power basis
    of Q(zeta_order), to compare with CycloElement.coeffs: the weight
    vector's one reduction mod the cyclotomic polynomial."""
    return _cyclo_reduce(order, weights)


def bernoulli_product_reference(chi: DirichletCharacter, disc: int) -> tuple:
    """The coordinates of B_{1,chi} * B_{1,chi*(disc/.)}: each factor summed
    term by term over a = 1..f, f its modulus, and the two multiplied by
    cyclic convolution."""
    q = chi.modulus
    b1 = [char_sum(chi, ((a, Fraction(a * kronecker(D, a), q * D))
                         for a in range(1, q * D + 1)))
          for D in (1, disc)]
    return reduced(chi.order, cyclic_product(*b1))


def unit_logs(q: int) -> dict[int, tuple[int, ...]]:
    """Each unit residue mod q mapped to its exponents over the canonical
    generators, read row by row from the columns of characters._unit_group."""
    group = _unit_group(q)
    return {a: tuple(column[j] for column in group.columns)
            for j, a in enumerate(group.units)}


def chi_weights_per_residue(chi: DirichletCharacter, table) -> list[int]:
    """characters.chi_weights as one generator expression per unit residue:
    the zeta_o exponent of a is sum_i e_i t_i o / n_i over the discrete
    logs t_i of a."""
    o = chi.order
    orders = _unit_group(chi.modulus).orders
    steps = [e * o // n for e, n in zip(chi.exponents, orders)]
    weights = [0] * o
    for a, t in unit_logs(chi.modulus).items():
        weights[sum(s * x for s, x in zip(steps, t)) % o] += table[a]
    return weights


def char_logs(chi: DirichletCharacter) -> list[int]:
    """Entry a (0 <= a < q) is the k with chi(a) = zeta_o^k, o = chi.order,
    or -1 when a is not a unit mod q.  With lam the exponent of (Z/q)* and
    t_i the discrete logs of a, chi(a) = zeta_lam^(sum e_i t_i lam/n_i),
    and o divides lam."""
    q, o = chi.modulus, chi.order
    orders = _unit_group(q).orders
    lam = math.lcm(*orders)
    out = [-1] * q
    for a, t in unit_logs(q).items():
        k = sum(e * x * (lam // n)
                for e, x, n in zip(chi.exponents, t, orders)) % lam
        if k * o % lam:
            raise InternalInvariantError("chi(a) is not a power of zeta_o")
        out[a] = k * o // lam
    return out


def char_eval(chi: DirichletCharacter, a: int) -> list[int]:
    """chi(a) as a weight vector over Z[x]/(x^o - 1), o = chi.order: a
    power of zeta_o, or 0 off the units."""
    k = char_logs(chi)[a % chi.modulus]
    if k < 0:
        return [0] * chi.order
    return zeta_power(chi.order, k)


def character_order(chi: DirichletCharacter) -> int:
    """The order of chi by the lcm loop the order property ran before
    DirichletCharacter stored it: chi(g_i) has order n_i / gcd(e_i, n_i)."""
    o = 1
    for e, n in zip(chi.exponents, _unit_group(chi.modulus).orders):
        o = math.lcm(o, n // math.gcd(e, n))
    return o


def odd_primitive_by_objects(q: int) -> list[DirichletCharacter]:
    """characters.odd_primitive_characters as it ran before: every
    character mod q is built, then filtered on its exponents."""
    powers = sorted(factorize(q).items())
    return [chi for chi in enumerate_characters(q)
            if sum(chi.exponents) % 2
            and all(e % p if k > 1 else e
                    for (p, k), e in zip(powers, chi.exponents))]


def char_invariants(chi: DirichletCharacter) -> tuple[str, int]:
    """(parity, conductor): parity from chi(-1), conductor the smallest
    f | q through which chi factors, searched over the divisors."""
    q = chi.modulus
    logs = char_logs(chi)
    parity = "even" if logs[(q - 1) % q] == 0 else "odd"
    for f in sorted(_divisors(q)):
        if all(logs[a] <= 0 for a in range(1 % f, q, f)):
            return parity, f
    raise InternalInvariantError("conductor search failed")


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p ** e for d in out for e in range(k + 1)]
    return out


def is_primitive(chi: DirichletCharacter) -> bool:
    return char_invariants(chi)[1] == chi.modulus


def apply_realization(real: ModPRealization, x) -> int:
    """The image of x in Z/p along zeta_{real.order} -> real.zeta_image,
    coefficient by coefficient, for a CycloElement x or a weight vector x
    over Z[x]/(x^o - 1), o = len(x); its order must divide real.order.
    zeta_image is a root of x^o - 1 and of the o-th cyclotomic polynomial,
    so weights and reduced coordinates have one image."""
    order, coeffs = (x.order, x.coeffs) if isinstance(x, CycloElement) \
        else (len(x), x)
    if real.order % order:
        raise ValueError(f"cannot reduce order-{order} element")
    t = pow(real.zeta_image, real.order // order, real.p)
    acc, tp = 0, 1
    for c in map(Fraction, coeffs):
        num = c.numerator % real.p
        den = pow(c.denominator, -1, real.p)
        acc = (acc + num * den * tp) % real.p
        tp = tp * t % real.p
    return acc


def condition_star_search_reference(q_max: int, p_max: int
                                    ) -> list[ConditionStarPair]:
    """biro.condition_star_search with one image per realization: each odd
    primitive chi (by the conductor search) tested at every realization of
    its order at each p, and the pairs sorted on identifier strings."""
    _check_sieve_work(q_max, p_max, sieve_work(q_max, p_max))
    chars = [(chi, chi.order, chi_weights(chi, b1_table(q)))
             for q in range(3, q_max + 1, 2)
             for chi in enumerate_characters(q)
             if char_invariants(chi) == ("odd", q)]
    out: list[ConditionStarPair] = []
    for p in _odd_primes(p_max):
        realizations: dict[int, dict[int, ModPRealization]] = {}
        for chi, o, weights in chars:
            if (p - 1) % o:
                continue
            if o not in realizations:
                realizations[o] = modp_realizations(chi, p)
            for real in realizations[o].values():
                if real.image(weights) == 0:
                    out.append(ConditionStarPair(chi.modulus, p, chi, real, 0))
    out.sort(key=lambda pair: (pair.q, pair.p, pair.chi.identifier(),
                               pair.realization.zeta_image))
    return out


def is_squarefree(n: int) -> bool:
    return n > 0 and square_prime(n) == 0


def _is_fundamental(D: int) -> bool:
    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(abs(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


def kronecker(D: int, b: int) -> int:
    """Kronecker symbol (D/b) for a fundamental discriminant D and b >= 0,
    multiplied out over the primes of b: Euler's criterion
    D^((p-1)/2) mod p at odd p, and at p = 2 the rule (D/2) = 0 for even D,
    1 for D = +-1 mod 8 and -1 for D = +-3 mod 8.  (D/0) is 1 at D = 1."""
    if not _is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if b < 0:
        raise ValueError(f"b = {b} must be >= 0")
    if b == 0:
        return 1 if D == 1 else 0
    out = 1
    for p, e in factorize(b).items():
        if p == 2:
            sym = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            sym = pow(D, (p - 1) // 2, p)
            sym = -1 if sym == p - 1 else sym
        out *= sym ** e
    return out


def partial_zeta_zero_reference(q: int, C: int, D: int, mcf: MinusCF) -> Fraction:
    """Kernel-free evaluation straight from the Bernoulli polynomials.

    Kept as the independent route against the integer kernel.
    """
    seq = yamamoto_sequence(q, C, D, mcf)
    m = mcf.m
    acc = Fraction(0)
    for i in range(1, m + 1):
        b = mcf.period[i % m]
        acc += (bernoulli_poly(1, seq.x_at(i)) * bernoulli_poly(1, seq.y_at(i))
                + Fraction(b, 2) * bernoulli_poly(2, seq.x_at(i)))
    return acc


def form_counts_stepwise(form: tuple[int, int, int], word, q: int
                         ) -> dict[tuple[int, int, int], list[int]]:
    """shintani.form_counts over a whole word, one digit at a time: each
    form (A, B, C) mod q the walk from (u, -v, w) meets after digit b_i,
    mapped to [count, sum of the next digits b_{i+1}] (b_m = b_0), with no
    run counted at once.  shintani.form_counts(form, plus, q) must equal
    it on the word minus_word(plus).period.
    """
    counts: dict[tuple[int, int, int], list[int]] = {}
    u, v, w = form
    A, B, C = u % q, -v % q, w % q
    nxt = iter(word[1:] + word[:1])
    for b in word:
        A, B, C = (A * b * b + B * b + C) % q, (-2 * A * b - B) % q, A
        entry = counts.get((A, B, C))
        if entry is None:
            counts[A, B, C] = [1, next(nxt)]
        else:
            entry[0] += 1
            entry[1] += next(nxt)
    return counts


def form_sums_full(form: tuple[int, int, int], q: int
                   ) -> tuple[list[int], list[int]]:
    """(G, H) of a form (A, B, C) mod q over every cell of [1, q]^2, the
    cells s and -s summed apart: G[a] sums b1(x) b1(y) and H[a] sums b2(y)
    over the points (x, y) where A x^2 + B x y + C y^2 is the unit a mod q,
    with b1(x) = 2x - q and b2(y) = 6y^2 - 6qy + q^2.
    """
    A, B, C = form
    unit = [math.gcd(a, q) == 1 for a in range(q)]
    b1 = [2 * x - q for x in range(q + 1)]
    b2 = [6 * y * y - 6 * q * y + q * q for y in range(q + 1)]
    reps = range(1, q + 1)
    G, H = [0] * q, [0] * q
    for x in reps:
        Ax2, Bx, b1x = A * x * x, B * x, b1[x]
        for y in reps:
            a = (Ax2 + (Bx + C * y) * y) % q
            if unit[a]:
                G[a] += b1x * b1[y]
                H[a] += b2[y]
    return G, H


def orbit_shift_check(F: FieldData, mcf: MinusCF, q: int,
                      C: int, D: int) -> bool:
    """Does the epsilon-translated seed reproduce each shifted m-window,
    and does the sequence close up after the full lam*m window?"""
    m = mcf.m
    delta = evaluate_periodic(mcf)
    lam = lattice_unit_order(F, delta, q)
    seq = yamamoto_sequence(q, C, D, mcf, steps=lam * m)
    if seq.x_at(lam * m) != seq.x_at(0) or \
            seq.x_at(lam * m - 1) != seq.x_at(-1):
        return False
    eps = F.tp_fund_unit
    for i in range(1, lam):
        alpha = surd_pow(eps, i) * (C + D * delta)
        u, v = alpha.coords(delta)
        if u.denominator != 1 or v.denominator != 1:
            raise InternalInvariantError(
                "unit translate left the lattice [1, delta]")
        Ci, Di = residue_1q(int(u), q), residue_1q(int(v), q)
        shifted = yamamoto_sequence(q, Ci, Di, mcf, steps=m)
        if any(shifted.x_at(j) != seq.x_at(m * i + j) for j in range(m)):
            return False
    return True


def delta_reduced_by_surds(delta: QuadSurd) -> bool:
    """delta > 2 and 0 < delta' < 1 by QuadSurd comparisons, the surd
    arithmetic that shintani.check_delta_hypotheses replaced with integer
    inequalities."""
    return delta > 2 and 0 < delta.conj() < 1


def closed_form_cell_reference(spec: FamilySpec, rw: ResidueWord, C: int,
                               D: int) -> tuple[int, int]:
    """(q^2 A_CD(r), q^2 B_CD(r)) from the whole nu_sequence of the cell,
    the paper's Bernoulli-value formula term for term on x = q*nu, with
    b1(x) = 2q B_1(x/q), b2(x) = 6q^2 B_2(x/q) and
    dl = q*<nu_{Gamma_l + 1} - nu_{Gamma_l}>: the per-cell route that
    linearity.closed_form_cells replaced with coefficient pairs per (q, r).
    """
    q, gam, tau = rw.q, rw.gamma, rw.tau
    s = len(gam)
    word = minus_word(gam)
    Gamma = word.special_positions + (word.m,)
    X = nu_sequence(rw, C, D)

    def nu(i: int) -> int:
        return X[i + 1]

    def b1(x: int) -> int:
        return 2 * x - q

    def b2(x: int) -> int:
        return 6 * x * x - 6 * q * x + q * q

    A = B = 0
    for l in range(1, len(Gamma)):
        x = nu(Gamma[l])
        i = 2 * l % s
        A += (-3 * b1(x) * b1(nu(Gamma[l] - 1))
              + (q * tau[i] + gam[i] + 2) * b2(x))
        B += q * spec.alpha(i) * b2(x)
    for l in range(len(Gamma) - 1):
        i = (2 * l + 1) % s
        g = gam[i]
        base = nu(Gamma[l])
        dl = (nu(Gamma[l] + 1) - base - 1) % q + 1
        full = q * (6 * q * dl - 6 * dl * dl - q * q)
        A += (6 * ((g - 1) * dl * dl
                   + q * (q - 2 * dl) * ((base + dl * (g - 1) - 1) // q))
              + b2(nu(Gamma[l + 1] - 1)) - b2(base)
              - q * q * (g - 1) + tau[i] * full)
        B += spec.alpha(i) * full
    return A, B


def common_norm_form(q: int, deltas) -> tuple[int, int, int] | None:
    """The norm form mod q shared by every delta, or None at the first that
    differs; InsufficientSamples with fewer than two deltas.

    u C^2 + v CD + w D^2 mod q read at (1, q), (q, 1) and (1, 1) gives u, w
    and u + v + w mod q, so two norm residue tables over [1, q]^2 agree
    exactly when the forms agree mod q.
    """
    forms = []
    for delta in deltas:
        forms.append(tuple(c % q for c in norm_form(delta)))
        if forms[-1] != forms[0]:
            return None
    if len(forms) < 2:
        raise InsufficientSamples("need at least 2 admissible k")
    return forms[0]


def closed_form_table_reference(spec: FamilySpec, q: int, r: int
                                ) -> ClosedFormTable:
    """linearity.closed_form_table with closed_form_cell_reference in every
    cell and the hypothesis sampled, not proven: the smallest member and
    the 2q + 1 members after it must share one norm form mod q.  Its
    refusals come in the same order: the step bound, the cell bound, then
    the members, then the shared norm form."""
    rw = residue_word(spec, q, r)
    b = len(period_blocks(spec.s))
    if q * q * b > KERNEL_STEP_BOUND:
        raise BoundExceeded(f"q^2 * {b} = {q * q * b} closed-form steps "
                            f"exceed {KERNEL_STEP_BOUND}")
    if q * q > CELL_BOUND:
        raise BoundExceeded(f"q^2 = {q * q} closed-form cells exceed "
                            f"{CELL_BOUND}")
    n0, delta0 = smallest_admissible_n(spec, q, r)
    k0 = (n0 - r) // q
    window = admissible(spec, q, r, range(k0 + 1, k0 + 2 * q + 2))
    form = common_norm_form(
        q, chain([delta0], (delta for _, delta in window)))
    if form is None:
        raise HypothesisFailed(
            f"norm residues mod {q} vary with k at r = {r}")
    u, v, w = form
    cells = [[closed_form_cell_reference(spec, rw, C, D)
              for D in range(1, q + 1)] for C in range(1, q + 1)]
    A_sums, B_sums = [0] * q, [0] * q
    for C, row in enumerate(cells, 1):
        for D, (A, B) in enumerate(row, 1):
            a = (u * C * C + v * C * D + w * D * D) % q
            A_sums[a] += A
            B_sums[a] += B
    return ClosedFormTable(cells, tuple(A_sums), tuple(B_sums))
