"""Dirichlet characters mod q as exponent tables over the powers of zeta_o,
generalized Bernoulli numbers twisted by a real quadratic character, and
mod-p realizations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import BoundExceeded, InternalInvariantError, ParseError
from .exact import CycloElement, cyclo_from_buckets, euler_phi, factorize
from .kernels import KERNEL_STEP_BOUND


@lru_cache(maxsize=None)
def _unit_group(q: int):
    """Canonical generating set of (Z/q)* and the discrete-log table.

    Generators: the smallest primitive root for each odd prime power factor,
    and the pair (-1, 5) at 2^k for k >= 3; each lifted by CRT to be 1 at the
    other factors.  Returns (gens, orders, table) with table mapping each
    unit residue to its exponent tuple.
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
    return tuple(gens), tuple(orders), table


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
    """

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        _, orders, _ = _unit_group(modulus)
        if len(exponents) != len(orders):
            raise ValueError("wrong number of exponents")
        self.modulus = modulus
        self.exponents = tuple(e % n for e, n in zip(exponents, orders))

    def __eq__(self, other) -> bool:
        if other.__class__ is not DirichletCharacter:
            return NotImplemented
        return (self.modulus, self.exponents) == \
            (other.modulus, other.exponents)

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    @property
    def order(self) -> int:
        _, orders, _ = _unit_group(self.modulus)
        o = 1
        for e, n in zip(self.exponents, orders):
            o = math.lcm(o, n // math.gcd(e, n))
        return o

    def conjugate(self) -> DirichletCharacter:
        return DirichletCharacter(self.modulus,
                                  tuple(-e for e in self.exponents))

    def identifier(self) -> str:
        gens, _, _ = _unit_group(self.modulus)
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
        gens, _, _ = _unit_group(q)
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
    _, orders, _ = _unit_group(q)
    return [DirichletCharacter(q, exps)
            for exps in product(*(range(n) for n in orders))]


# room for the 423 tables of the perfbench family workload; unbounded, a
# sieve search would keep one for every character of every odd q <= q_max
@lru_cache(maxsize=1024)
def char_exponents(chi: DirichletCharacter) -> tuple[int, ...]:
    """Entry a (0 <= a < q) is the k with chi(a) = zeta_o^k, o = chi.order,
    or -1 when a is not a unit mod q."""
    q, o = chi.modulus, chi.order
    _, orders, table = _unit_group(q)
    # chi(g_i) = zeta_{n_i}^{e_i} = zeta_o^{e_i o / n_i}; o is a multiple of
    # the order of every zeta_{n_i}^{e_i}, so each weight is an integer
    weights = []
    for e, n in zip(chi.exponents, orders):
        if e * o % n:
            raise InternalInvariantError(
                "character phase not compatible with its order")
        weights.append(e * o // n)
    out = [-1] * q
    for a, logs in table.items():
        out[a] = sum(w * t for w, t in zip(weights, logs)) % o
    return tuple(out)


def chi_weights(chi: DirichletCharacter, table) -> list[int]:
    """The integers w_j with sum_a chi(a)*table[a] = sum_j w_j zeta_o^j,
    o = chi.order, for integers table[a] indexed by the residues a mod q.

    The one place a character meets data: every character sum builds a
    chi-free residue table and folds it here.  Entries at non-units, which
    chi annihilates, are ignored.
    """
    weights = [0] * chi.order
    for k, t in zip(char_exponents(chi), table):
        if k >= 0:
            weights[k] += t
    return weights


def char_invariants(chi: DirichletCharacter) -> tuple[str, int]:
    """(parity, conductor): parity from chi(-1), conductor the smallest
    f | q through which chi factors."""
    q = chi.modulus
    exps = char_exponents(chi)
    parity = "even" if exps[(q - 1) % q] == 0 else "odd"
    for f in sorted(_divisors(q)):
        if all(exps[a] == 0 for a in range(q)
               if exps[a] >= 0 and a % f == 1 % f):
            return parity, f
    raise InternalInvariantError("conductor search failed")  # pragma: no cover


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p ** e for d in out for e in range(k + 1)]
    return out


def _kronecker_raw(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if a < 0:
            out = -out
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
    B_{1,chi}.  The sum is b1_weights(chi, disc) reduced once.
    """
    f = chi.modulus * disc
    return cyclo_from_buckets(chi.order, b1_weights(chi, disc), Fraction(1, f))


def b1_weights(chi: DirichletCharacter, disc: int = 1) -> list[int]:
    """The integers w_j = sum a*(disc/a) over a = 1..q*disc with
    chi(a) = zeta_o^j, o = chi.order: f*B_{1,psi} = sum_j w_j zeta_o^j.

    (disc/.) is a character mod disc, read from a table of one period.
    disc is 1 or field_discriminant of a checked radicand.
    """
    q = chi.modulus
    kron = [_kronecker_raw(disc, a) for a in range(disc)]
    table = [0] * q
    for a in range(1, q * disc + 1):
        table[a % q] += a * kron[a % disc]
    return chi_weights(chi, table)


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
        need no reduction first: this is the image of the reduced
        cyclo_from_buckets(o, weights) as well."""
        t, p = self.zeta_image, self.p
        acc = 0
        for w in reversed(weights):
            acc = (acc * t + w) % p
        return acc


def modp_realizations(chi: DirichletCharacter, p: int) -> list[ModPRealization]:
    """One realization per element of exact order o = chi.order in (Z/p)*,
    p prime, ascending; empty if o does not divide p - 1.

    Those elements are h^k for 0 < k <= o with gcd(k, o) = 1, h any one of
    them: h = t^((p-1)/o) for the least t that gives exact order o (for a
    primitive root t it always does), so only o is factored, not p - 1.
    """
    o = chi.order
    if (p - 1) % o:
        return []
    primes_o = list(factorize(o))
    for t in range(1, p):
        h = pow(t, (p - 1) // o, p)
        if all(pow(h, o // ell, p) != 1 for ell in primes_o):
            break
    return [ModPRealization(p, o, t) for t in sorted(
        pow(h, k, p) for k in range(1, o + 1) if math.gcd(k, o) == 1)]
