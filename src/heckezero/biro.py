"""The sieve machinery: the L-value factorization oracle, the (q, p) pair
search, and the residue congruences that class-number-one family members must
satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import (DirichletCharacter, ModPRealization, char_exponents,
                         char_invariants, enumerate_characters,
                         gen_bernoulli_b1, modp_realizations)
from .errors import NarrowClassNotOne
from .exact import CycloElement, cyclo_from_buckets, factorize
from .linearity import FamilySpec, closed_form_chi, family_instance
from .quadfield import class_numbers, field_discriminant, make_field
from .shintani import partial_hecke_L_zero

# Sign relating the cone-engine value to the Bernoulli-number product; fixed
# once by the d=5, q=3 oracle (2/3 on both sides) and used everywhere.
SIGN_CONVENTION = 1


@dataclass(frozen=True)
class ConditionStarPair:
    """A (q, p, chi) triple with a mod-p realization killing sum a*chi(a)."""

    q: int
    p: int
    chi: DirichletCharacter
    realization: ModPRealization
    witness: int

    def sort_key(self):
        return (self.q, self.p, self.chi.identifier(),
                self.realization.zeta_image)


def char_sum_a(chi: DirichletCharacter) -> CycloElement:
    """Sum of a*chi(a) over a = 1..q, i.e. q times the first generalized
    Bernoulli number."""
    return gen_bernoulli_b1(chi) * chi.modulus


def condition_star_search(q_max: int, p_max: int) -> list[ConditionStarPair]:
    """All (q, p, chi, realization) with odd q <= q_max, odd prime p <= p_max,
    odd primitive chi of conductor q, and realization(sum a*chi(a)) = 0.
    """
    if q_max < 3 or p_max < 3:
        raise ValueError("bounds must be at least 3")
    primes = [p for p in range(3, p_max + 1, 2) if factorize(p) == {p: 1}]
    out: list[ConditionStarPair] = []
    for q in range(3, q_max + 1, 2):
        for chi in enumerate_characters(q):
            parity, cond = char_invariants(chi)
            if parity != "odd" or cond != q:
                continue
            S = char_sum_a(chi)
            for p in primes:
                for real in modp_realizations(chi, p):
                    if real.apply(S) == 0:
                        out.append(ConditionStarPair(q, p, chi, real, 0))
    out.sort(key=ConditionStarPair.sort_key)
    return out


@dataclass(frozen=True)
class ResidueReport:
    """The congruence n = -q*A/B + r mod p for one (family, pair, r)."""

    spec_name: str
    q: int
    chi: DirichletCharacter
    realization: ModPRealization
    r: int
    status: str                      # determined | vacuous | indeterminate
    residue: int | None
    A_image: int
    B_image: int


def residue_mod_p(spec: FamilySpec, pair: ConditionStarPair,
                  r: int) -> ResidueReport:
    """Push A_chi(r), B_chi(r) through the realization and solve for n mod p.

    B mapping to 0 leaves nothing to divide by: with A also 0 the congruence
    holds identically (indeterminate), with A nonzero it has no solution at
    all (vacuous: no class-number-one member in this residue class).
    """
    cf = closed_form_chi(spec, pair.q, pair.chi, r)
    p = pair.p
    a_img = pair.realization.apply(cf.A_chi)
    b_img = pair.realization.apply(cf.B_chi)
    if b_img == 0:
        status = "indeterminate" if a_img == 0 else "vacuous"
        return ResidueReport(spec.name, pair.q, pair.chi, pair.realization,
                             r, status, None, a_img, b_img)
    k_res = (-a_img * pow(b_img, -1, p)) % p
    residue = (pair.q * k_res + r) % p
    return ResidueReport(spec.name, pair.q, pair.chi, pair.realization,
                         r, "determined", residue, a_img, b_img)


def factorization_oracle_check(spec: FamilySpec, n: int,
                               chi: DirichletCharacter
                               ) -> tuple[CycloElement, CycloElement, bool]:
    """Compare the cone-engine value against the Bernoulli-number product
    B_{1,chi} * B_{1,chi*chi_D} for a narrow-class-number-one member.
    """
    delta = family_instance(spec, n)
    _, h_plus = class_numbers(make_field(delta.d))
    if h_plus != 1:
        raise NarrowClassNotOne(
            f"h+({delta.d}) = {h_plus}; the single-class oracle does not apply")
    lhs = partial_hecke_L_zero(delta, chi) * SIGN_CONVENTION
    rhs = gen_bernoulli_b1(chi) * gen_bernoulli_b1(
        chi, field_discriminant(delta.d))
    return lhs, rhs, lhs == rhs


def yokoi_intro_ab(q: int, chi: DirichletCharacter, r: int
                   ) -> tuple[CycloElement, CycloElement, Fraction | None]:
    """The two direct double sums over 0 <= C, D < q, and the single rational
    factor relating them to the closed-form pair when one exists.
    """
    exps = char_exponents(chi)
    A_buckets = [0] * chi.order
    B_buckets = [0] * chi.order
    for C in range(q):
        for D in range(q):
            k = exps[(D * D - C * C - r * C * D) % q]
            if k < 0:
                continue
            ceil_term = -((D - r * C) // q)        # ceil((rC - D) / q)
            A_buckets[k] += ceil_term * (C - q)
            B_buckets[k] += C * (C - q)
    A = cyclo_from_buckets(chi.order, A_buckets)
    B = cyclo_from_buckets(chi.order, B_buckets)
    from .linearity import BUILTIN_FAMILIES
    cf = closed_form_chi(BUILTIN_FAMILIES["yokoi"], q, chi, r)
    rho = _proportionality((A, B), (cf.A_chi, cf.B_chi))
    return A, B, rho


def _proportionality(pair, ref) -> Fraction | None:
    """The rational rho with pair = rho * ref componentwise, if one exists."""
    rho: Fraction | None = None
    for x, y in zip(pair, ref):
        xs, ys = x.coeffs, y.coeffs
        if len(xs) != len(ys):
            ys = y.to_order(x.order).coeffs if x.order % y.order == 0 else None
            if ys is None:
                return None
        for cx, cy in zip(xs, ys):
            if cy == 0:
                if cx != 0:
                    return None
                continue
            cand = Fraction(cx) / Fraction(cy)
            if rho is None:
                rho = cand
            elif rho != cand:
                return None
    return rho
