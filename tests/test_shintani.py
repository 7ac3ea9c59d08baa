"""The cone engine: digit orbits, per-cell zeta values, L-values at s=0."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from heckezero import exact, quadfield
from heckezero.biro import factorization_oracle_check
from heckezero.cfrac import MinusCF, minus_expand
from heckezero.characters import (DirichletCharacter, char_eval,
                                  enumerate_characters, gen_bernoulli_b1)
from heckezero.errors import (DeltaOutOfRange, IdealNotCoprime,
                              IncompatiblePair)
from heckezero.exact import CycloElement, QuadSurd
from heckezero.linearity import (BUILTIN_FAMILIES, closed_form_chi,
                                 family_instance, verify_linearity)
from heckezero.quadfield import (IdealLattice, class_numbers, ideal_inverse,
                                 ideal_norm, make_field, norm_residue)
from heckezero.shintani import (check_delta_hypotheses, lattice_unit_order,
                                orbit_shift_check, partial_hecke_L_zero,
                                partial_zeta_zero, partial_zeta_zero_reference,
                                yamamoto_identity_residual, yamamoto_sequence)

CHI3 = DirichletCharacter.from_identifier("q=3;gens=2:1")   # quadratic mod 3


class TestYamamotoSequence:
    def test_seed_values(self):
        seq = yamamoto_sequence(3, 1, 1, MinusCF((), (3,)), steps=4)
        # x_{-1} = 1 - C/q mapped into (0,1], x_0 = D/q
        assert seq.x_at(-1) == Fraction(2, 3)
        assert seq.x_at(0) == Fraction(1, 3)
        # x_{i+1} = frac_pos(b_i x_i - x_{i-1})
        assert seq.x_at(1) == Fraction(1, 3)
        assert seq.x_at(2) == Fraction(2, 3)

    def test_range_invariant(self):
        for word in ((3,), (4, 2), (5, 2, 2)):
            for q in (2, 3, 5):
                for C in range(1, q + 1):
                    for D in range(1, q + 1):
                        seq = yamamoto_sequence(q, C, D, MinusCF((), word),
                                                steps=12)
                        for i in range(-1, 12):
                            x = seq.x_at(i)
                            assert 0 < x <= 1 and (q * x).denominator == 1

    def test_boundary_seed(self):
        # C = q gives x_{-1} = 1 (not 0)
        seq = yamamoto_sequence(3, 3, 1, MinusCF((), (3,)), steps=2)
        assert seq.x_at(-1) == 1


class TestPartialZeta:
    def test_oracles(self):
        assert partial_zeta_zero(3, 1, 1, MinusCF((), (3,))) == Fraction(-1, 9)
        assert partial_zeta_zero(3, 1, 1, MinusCF((), (4, 2))) == Fraction(2, 9)

    def test_q_one_vanishes(self):
        # the two maximal-order words; an arbitrary word need not vanish
        for word in ((3,), (4, 2)):
            assert partial_zeta_zero(1, 1, 1, MinusCF((), word)) == 0

    def test_dual_route_agreement(self):
        # integer kernel vs the direct Bernoulli-polynomial sum
        for word in ((3,), (4, 2), (5, 2, 2), (7, 2, 3)):
            mcf = MinusCF((), word)
            for q in (2, 3, 4, 5):
                for C in range(1, q + 1):
                    for D in range(1, q + 1):
                        assert partial_zeta_zero(q, C, D, mcf) == \
                            partial_zeta_zero_reference(q, C, D, mcf)

    def test_q_squared_integrality(self):
        for word in ((3,), (4, 2), (5, 2, 2)):
            mcf = MinusCF((), word)
            for q in (3, 5, 7):
                for C in range(1, q + 1):
                    for D in range(1, q + 1):
                        v = partial_zeta_zero(q, C, D, mcf) * 12 * q * q
                        assert v.denominator == 1


class TestDeltaHypotheses:
    def test_accepts_reduced(self):
        check_delta_hypotheses(QuadSurd(3, 1, 2, 5))
        check_delta_hypotheses(QuadSurd(2, 1, 1, 2))

    def test_rejects(self):
        with pytest.raises(DeltaOutOfRange):
            check_delta_hypotheses(QuadSurd(1, 1, 2, 5))    # < 2
        with pytest.raises(DeltaOutOfRange):
            check_delta_hypotheses(QuadSurd(0, 1, 1, 5))    # conj < 0


class TestHeckeL:
    def test_oracle_d5(self):
        val = partial_hecke_L_zero(QuadSurd(3, 1, 2, 5), CHI3)
        assert val == Fraction(2, 3)

    def test_oracle_d2(self):
        val = partial_hecke_L_zero(QuadSurd(2, 1, 1, 2), CHI3)
        assert val == Fraction(2, 3)

    def test_matches_bernoulli_product(self):
        # 2/3 = (-1/3) * (-2) with the two first Bernoulli numbers; the
        # second is B_{1, chi*chi_5}, summed here term by term mod 15
        from heckezero.characters import kronecker
        assert gen_bernoulli_b1(CHI3) == Fraction(-1, 3)
        acc = CycloElement.zero()
        for a in range(1, 16):
            acc = acc + char_eval(CHI3, a) * (a * kronecker(5, a))
        assert gen_bernoulli_b1(CHI3, 5) == acc * Fraction(1, 15)
        assert gen_bernoulli_b1(CHI3, 5) == Fraction(-2)

    def test_rejects_incompatible_pair(self):
        # [1, 3+sqrt5] = Z[sqrt5] and [1, 4+sqrt13] = Z[sqrt13] are reduced
        # but are orders of index 2, not ideals of the maximal order, so no
        # b = [1, delta]^{-1} exists
        for delta in (QuadSurd(3, 1, 1, 5), QuadSurd(4, 1, 1, 13)):
            with pytest.raises(IncompatiblePair):
                partial_hecke_L_zero(delta, CHI3)

    def test_rejects_non_coprime(self):
        # [1, (11+sqrt79)/3] is the inverse of the norm-3 prime [3, 1+sqrt79]
        with pytest.raises(IdealNotCoprime):
            partial_hecke_L_zero(QuadSurd(11, 1, 3, 79), CHI3)


class TestIdentity:
    @pytest.mark.parametrize("d", [2, 3, 5, 13, 15, 29])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_residual_zero(self, d, q):
        F = make_field(d)
        mcf = minus_expand(F.tp_fund_unit)
        for C in range(1, q + 1):
            for D in range(1, q + 1):
                assert yamamoto_identity_residual(F, mcf, q, C, D) == 0

    def test_lattice_unit_order_vs_order_order(self):
        # [1, 2*sqrt2] has index 2 in the order of Q(sqrt2): mod q = 2 the
        # unit acts trivially on O/2O but swaps the basis of the sublattice
        F = make_field(2)
        delta = QuadSurd(3, 2, 1, 2)       # 3 + 2*sqrt2, the tp unit itself
        assert lattice_unit_order(F, F.omega, 2) == 1
        assert lattice_unit_order(F, delta, 2) == 2

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 15])
    def test_orbit_shift(self, d):
        F = make_field(d)
        mcf = minus_expand(F.tp_fund_unit)
        for q in (2, 3, 5):
            for C in range(1, q + 1):
                for D in range(1, q + 1):
                    assert orbit_shift_check(F, mcf, q, C, D)


def _lattice_case(delta):
    """(F, delta, b) with b = [1, delta]^{-1} built by the lattice oracle."""
    F = make_field(delta.d)
    return F, delta, ideal_inverse(F, IdealLattice.from_surds(
        QuadSurd.from_rational(1, delta.d), delta, F))


# yokoi n = 11 (f = 125) and rd-n2p1 n = 7 (f = 50) are not squarefree, so
# the next members stand in for them
ENGINE_CASES = (
    [("yokoi", n) for n in (1, 3, 5, 7, 9, 13)]
    + [("rd-n2p1", n) for n in (1, 3, 5, 9)]
    + [("d2", None), ("d79", None)])


def _engine_case(name, n):
    if name == "d2":
        return _lattice_case(QuadSurd(2, 1, 1, 2))
    if name == "d79":
        # b = [3, 1+sqrt79] of norm 3 with b * [1, (11+sqrt79)/3] = O
        return (make_field(79), QuadSurd(11, 1, 3, 79),
                IdealLattice(3, 1, 1, 1))
    return _lattice_case(family_instance(BUILTIN_FAMILIES[name], n))


class TestBucketedEngine:
    """The bucketed sum against the per-cell reference: the lattice norm
    residue, char_eval and the Bernoulli-polynomial Z(C, D), one
    CycloElement addition per cell.  q <= 12 takes in composite moduli with
    annihilated cells and characters of order 4, 6 and 10."""

    @pytest.mark.parametrize("name,n", ENGINE_CASES)
    def test_every_character_mod_q_up_to_12(self, name, n):
        F, delta, b = _engine_case(name, n)
        mcf = minus_expand(delta)
        nb = int(ideal_norm(F, b))
        for q in range(1, 13):
            chars = enumerate_characters(q)
            if math.gcd(nb, q) != 1:
                with pytest.raises(IdealNotCoprime):
                    partial_hecke_L_zero(delta, chars[0])
                continue
            cells = [(norm_residue(F, b, delta, C, D, q),
                      partial_zeta_zero_reference(q, C, D, mcf))
                     for C in range(1, q + 1) for D in range(1, q + 1)]
            for chi in chars:
                want = CycloElement.zero(chi.order)
                for res, z in cells:
                    val = char_eval(chi, res)
                    if not val.is_zero():
                        want = want + val * z
                got = partial_hecke_L_zero(delta, chi)
                assert got.order == want.order
                assert got.coeffs == want.coeffs, (q, chi.identifier())


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, by first argument, from every heckezero
    module that binds it."""
    orig = getattr(module, name)
    calls = Counter()

    def wrapper(*args, **kwargs):
        calls[args[0]] += 1
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("heckezero") and \
                mod.__dict__.get(name) is orig:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


class TestHoist:
    """Call counts, not timings: no L-value path touches the lattice
    oracle, and each radicand is factored once."""

    @pytest.mark.parametrize("fn", ["lattice_product", "ideal_norm",
                                    "ideal_inverse", "is_fractional_ideal"])
    def test_ideal_work_independent_of_q(self, monkeypatch, fn):
        yokoi = BUILTIN_FAMILIES["yokoi"]
        delta = family_instance(yokoi, 7)
        calls = _count_calls(monkeypatch, quadfield, fn)
        for ident in ("q=3;gens=2:1", "q=11;gens=2:1"):
            partial_hecke_L_zero(delta,
                                 DirichletCharacter.from_identifier(ident))
        closed_form_chi(yokoi, 3, CHI3, 1)
        verify_linearity(yokoi, 3, CHI3, 1, range(0, 8))
        factorization_oracle_check(yokoi, 7, CHI3)
        assert sum(calls.values()) == 0

    def test_radicand_factored_once(self, monkeypatch):
        exact.square_prime.cache_clear()
        calls = _count_calls(monkeypatch, exact, "factorize")
        delta = family_instance(BUILTIN_FAMILIES["yokoi"], 7)
        class_numbers(make_field(delta.d))
        partial_hecke_L_zero(delta, DirichletCharacter.from_identifier(
            "q=11;gens=2:1"))
        assert calls[53] == 1

    def test_bad_radicand_still_raises(self):
        make_field(5)
        partial_hecke_L_zero(QuadSurd(2, 1, 1, 2), CHI3)
        for _ in range(2):
            with pytest.raises(ValueError):
                QuadSurd(1, 1, 1, 12)
