"""The sieve machinery: the L-value factorization oracle, the (q, p) pair
search, and the residue congruences that class-number-one family members must
satisfy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .cfrac import period_blocks
from .characters import (CycloElement, DirichletCharacter, ModPRealization,
                         b1_table, chi_coords, chi_sum, chi_weights,
                         cyclo_value, euler_phi, modp_realizations,
                         odd_primitive_characters, unit_product)
from .errors import (BoundExceeded, HypothesisFailed, NarrowClassNotOne,
                     NoAdmissibleN, ParseError)
from .linearity import (BUILTIN_FAMILIES, ClosedFormTable, FamilySpec,
                        closed_form_table, family_instance)
from .quadfield import class_numbers, field_discriminant, make_field
from .shintani import partial_hecke_L_zero

# A search or residue run whose priced steps exceed this is refused
SIEVE_WORK_BOUND = 10 ** 7


class ConditionStarPair(NamedTuple):
    """A (q, p, chi) triple with a mod-p realization killing sum a*chi(a)."""

    q: int
    p: int
    chi: DirichletCharacter
    realization: ModPRealization
    witness: int


def sieve_work(q_max: int, p_max: int) -> int:
    """An upper bound on the steps of condition_star_search(q_max, p_max).

    The search sieves the numbers up to p_max, then tabulates each of the
    fewer than q_max^2/4 characters of odd modulus q <= q_max (q_max
    steps at most) and tests it against the primes up to p_max.  It
    images a character only at the primes p = 1 mod its order, and there
    once per orbit, so this over-counts the tests.
    """
    return p_max + q_max * q_max * (q_max + p_max) // 4


def _check_sieve_work(q_max: int, p_max: int, work: int) -> None:
    if q_max < 3 or p_max < 3:
        raise ParseError("bounds must be at least 3")
    if work > SIEVE_WORK_BOUND:
        raise BoundExceeded(
            f"q_max = {q_max}, p_max = {p_max} estimate {work} sieve steps, "
            f"over {SIEVE_WORK_BOUND}")


def _odd_primes(n: int) -> list[int]:
    """The odd primes up to n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    return [p for p in range(3, n + 1, 2) if sieve[p]]


def condition_star_search(q_max: int, p_max: int) -> list[ConditionStarPair]:
    """All (q, p, chi, realization) with odd q <= q_max, odd prime p <= p_max,
    odd primitive chi of conductor q, and realization(sum a*chi(a)) = 0,
    ordered by q, p, chi.identifier() and zeta_image.

    sum a*chi(a) = q*B_{1,chi} is the Horner image of its integer weights.
    Each Galois orbit {chi^a} of a modulus is folded once, at its first
    character chi, and imaged at every h^e of modp_realizations per prime:
    one image per character and prime.  chi^a at h^b has the image of chi
    at h^(ab), since the weights of chi^a are those of chi moved from slot
    i to slot a*i.  So the zero set Z of those e gives the pairs
    (chi^a, h^(e/a)), e in Z, of the whole orbit.
    """
    _check_sieve_work(q_max, p_max, sieve_work(q_max, p_max))
    primes = _odd_primes(p_max)
    reals: dict[tuple[int, int], dict[int, ModPRealization]] = {}
    out: list[ConditionStarPair] = []
    for q in range(3, q_max + 1, 2):
        chars = sorted(odd_primitive_characters(q),
                       key=DirichletCharacter.identifier)
        rank = {chi: i for i, chi in enumerate(chars)}
        seen: set[int] = set()
        found: list[tuple[int, int, ModPRealization]] = []
        for i, chi in enumerate(chars):
            if i in seen:
                continue
            # chi is the first of its orbit; chi^a has rank k for each
            # (k, 1/a mod o) of powers
            o = chi.order
            powers = [(rank[chi ** a], pow(a, -1, o))
                      for a in range(1, o) if math.gcd(a, o) == 1]
            seen.update(k for k, _ in powers)
            weights = chi_weights(chi, range(q))
            for p in primes:
                if (p - 1) % o:
                    continue
                if (o, p) not in reals:
                    reals[o, p] = modp_realizations(chi, p)
                at = reals[o, p]
                for e, real in at.items():
                    if real.image(weights) == 0:
                        found.extend((p, k, at[e * inv % o])
                                     for k, inv in powers)
        out.extend(ConditionStarPair(q, p, chars[k], real, 0)
                   for p, k, real in sorted(found))
    return out


class ResidueReport(NamedTuple):
    """The congruence n = -q*A/B + r mod p for one (family, pair, r)."""

    chi: DirichletCharacter
    realization: ModPRealization
    r: int
    status: str                      # determined | vacuous | indeterminate
    residue: int | None
    A_image: int
    B_image: int


def residue_mod_p(pair: ConditionStarPair, r: int, table: ClosedFormTable
                  ) -> ResidueReport:
    """Push A_chi(r), B_chi(r) through the realization and solve for n mod p.

    table is the family's closed_form_table(spec, pair.q, r).  B mapping to
    0 leaves nothing to divide by: with A also 0 the congruence holds
    identically (indeterminate), with A nonzero it has no solution at
    all (vacuous: no class-number-one member in this residue class).
    """
    p = pair.p
    a_img = pair.realization.image(chi_weights(pair.chi, table.A))
    b_img = pair.realization.image(chi_weights(pair.chi, table.B))
    if b_img == 0:
        status = "indeterminate" if a_img == 0 else "vacuous"
        return ResidueReport(pair.chi, pair.realization, r, status, None,
                             a_img, b_img)
    k_res = (-a_img * pow(b_img, -1, p)) % p
    residue = (pair.q * k_res + r) % p
    return ResidueReport(pair.chi, pair.realization, r, "determined",
                         residue, a_img, b_img)


def residue_reports(spec: FamilySpec, q_max: int, p_max: int
                    ) -> list[ResidueReport]:
    """residue_mod_p for every pair of condition_star_search(q_max, p_max)
    and every r mod its q, in that order.  The pairs come sorted by q, so
    the q tables of one q are built once and dropped at the next q.  A
    class refused for no member (NoAdmissibleN) or no closed form
    (HypothesisFailed) gets no report; any other refusal ends the run.

    The pairs found price the rest before any table is built: on top of
    the search's sieve_work, each distinct q costs q tables of q^2 * b
    steps (b the blocks of the plus period, the price closed_form_table
    checks), and each pair q reports of 2 * (phi(q) + o) steps, o its
    order: two folds over the units and two Horner images.  Each table
    keeps only the A and B that residue_mod_p reads, not its q^2 cells."""
    pairs = condition_star_search(q_max, p_max)
    b = len(period_blocks(spec.s))
    work = sieve_work(q_max, p_max)
    work += sum(q ** 3 * b for q in {pair.q for pair in pairs})
    work += sum(2 * pair.q * (euler_phi(pair.q) + pair.chi.order)
                for pair in pairs)
    _check_sieve_work(q_max, p_max, work)
    out: list[ResidueReport] = []
    for q, group in groupby(pairs, key=attrgetter("q")):
        tables = {}
        for r in range(q):
            try:
                tables[r] = closed_form_table(spec, q, r)._replace(cells=())
            except (NoAdmissibleN, HypothesisFailed):
                continue
        for pair in group:
            out.extend(residue_mod_p(pair, r, table)
                       for r, table in tables.items())
    return out


def factorization_oracle_check(spec: FamilySpec, n: int,
                               chi: DirichletCharacter
                               ) -> tuple[CycloElement, CycloElement, bool]:
    """Compare the cone-engine value against the Bernoulli-number product
    B_{1,chi} * B_{1,chi*chi_D} for a narrow-class-number-one member.

    The product is one chi-fold of the unit_product of the b1_tables.  The
    sign between them is +1, fixed by the d = 5, q = 3 oracle (2/3 each).
    """
    delta = family_instance(spec, n)
    _, h_plus = class_numbers(make_field(delta.d))
    if h_plus != 1:
        raise NarrowClassNotOne(
            f"h+({delta.d}) = {h_plus}; the single-class oracle does not apply")
    lhs = partial_hecke_L_zero(delta, chi)
    q, disc = chi.modulus, field_discriminant(delta.d)
    rhs = chi_sum(chi, unit_product(b1_table(q), b1_table(q, disc), q),
                  Fraction(1, q * q * disc))
    return lhs, rhs, lhs == rhs


def yokoi_intro_ab(chi: DirichletCharacter, r: int
                   ) -> tuple[CycloElement, CycloElement, Fraction | None]:
    """The two direct double sums over 0 <= C, D < q, q = chi.modulus, and
    the single rational factor relating them to the closed-form pair of
    Yokoi's family when one exists.
    """
    q = chi.modulus
    # the table's bounds refuse before the q^2 double sums run
    table = closed_form_table(BUILTIN_FAMILIES["yokoi"], q, r)
    A_table, B_table = [0] * q, [0] * q
    for C in range(q):
        for D in range(q):
            a = (D * D - C * C - r * C * D) % q
            ceil_term = -((D - r * C) // q)        # ceil((rC - D) / q)
            A_table[a] += ceil_term * (C - q)
            B_table[a] += C * (C - q)
    A, B = chi_coords(chi, A_table), chi_coords(chi, B_table)
    rho = _proportionality(
        (A, B), (chi_coords(chi, table.A), chi_coords(chi, table.B)))
    return cyclo_value(chi.order, A), cyclo_value(chi.order, B), rho


def _proportionality(pair, ref) -> Fraction | None:
    """The rational rho with pair = rho * ref componentwise, if one exists;
    all four are integer coordinates of one order."""
    rho: Fraction | None = None
    for x, y in zip(pair, ref):
        for cx, cy in zip(x, y):
            if cy == 0:
                if cx != 0:
                    return None
                continue
            cand = Fraction(cx, cy)
            if rho is None:
                rho = cand
            elif rho != cand:
                return None
    return rho
