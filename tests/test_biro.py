"""Pair search, residue congruences, and the L-value factorization oracle."""

from fractions import Fraction

import pytest

from heckezero.biro import (ConditionStarPair, ResidueReport, char_sum_a,
                            condition_star_search, factorization_oracle_check,
                            residue_mod_p, yokoi_intro_ab)
from heckezero.characters import DirichletCharacter
from heckezero.errors import NarrowClassNotOne
from heckezero.exact import CycloElement
from heckezero.linearity import BUILTIN_FAMILIES

YOKOI = BUILTIN_FAMILIES["yokoi"]
RDN = BUILTIN_FAMILIES["rd-n2p1"]
CHI3 = DirichletCharacter.from_identifier("q=3;gens=2:1")


class TestCharSum:
    def test_quadratic_mod3(self):
        assert char_sum_a(CHI3) == Fraction(-1)

    def test_quadratic_mod7(self):
        chi = DirichletCharacter.from_identifier("q=7;gens=3:3")
        assert char_sum_a(chi) == Fraction(-7)


class TestSearch:
    def test_frozen_5_5(self):
        pairs = condition_star_search(5, 5)
        assert len(pairs) == 2
        assert all(p.q == 5 and p.p == 5 for p in pairs)
        assert sorted(p.realization.zeta_image for p in pairs) == [2, 3]
        ids = {p.chi.identifier() for p in pairs}
        assert ids == {"q=5;gens=2:1", "q=5;gens=2:3"}

    def test_no_q3(self):
        pairs = condition_star_search(3, 13)
        assert pairs == []

    def test_frozen_7_7(self):
        # q = 7 contributes exactly three pairs, all at p = 7
        pairs = [p for p in condition_star_search(7, 13) if p.q == 7]
        frozen = {("q=7;gens=3:1", 7, 3),
                  ("q=7;gens=3:3", 7, 6),
                  ("q=7;gens=3:5", 7, 5)}
        assert {(p.chi.identifier(), p.p, p.realization.zeta_image)
                for p in pairs} == frozen

    def test_deterministic_order(self):
        a = condition_star_search(7, 13)
        b = condition_star_search(7, 13)
        assert a == b
        assert a == sorted(a, key=ConditionStarPair.sort_key)

    def test_kill_property(self):
        # every returned realization really sends the character sum to zero
        for p in condition_star_search(7, 13):
            assert p.realization.apply(char_sum_a(p.chi)) == 0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            condition_star_search(2, 5)


class TestResidue:
    def test_all_indeterminate_at_5_5(self):
        # q = p = 5 collapses both coefficient images to 0 for every residue
        pairs = condition_star_search(5, 5)
        for pair in pairs:
            for r in range(5):
                rep = residue_mod_p(YOKOI, pair, r)
                assert rep.status == "indeterminate"
                assert rep.residue is None
                assert rep.A_image == 0 and rep.B_image == 0

    def test_report_fields(self):
        pair = condition_star_search(5, 5)[0]
        rep = residue_mod_p(YOKOI, pair, 1)
        assert isinstance(rep, ResidueReport)
        assert rep.spec_name == "yokoi" and rep.q == 5 and rep.r == 1


class TestOracle:
    def test_yokoi_n1(self):
        lhs, rhs, ok = factorization_oracle_check(YOKOI, 1, CHI3)
        assert ok and lhs == Fraction(2, 3) and rhs == Fraction(2, 3)

    def test_rd_n1(self):
        lhs, rhs, ok = factorization_oracle_check(RDN, 1, CHI3)
        assert ok and lhs == Fraction(2, 3)

    def test_trivial_character(self):
        triv = DirichletCharacter.from_identifier("q=1;gens=")
        lhs, rhs, ok = factorization_oracle_check(YOKOI, 1, triv)
        assert ok and lhs == 0 and rhs == 0

    def test_rejects_narrow_class(self):
        # find the first family member whose narrow class number exceeds 1
        # and check the gate fires on it
        from heckezero.linearity import family_instance
        from heckezero.quadfield import class_numbers, make_field
        for n in range(1, 60, 2):
            try:
                d = family_instance(YOKOI, n).d
            except Exception:
                continue
            if class_numbers(make_field(d))[1] != 1:
                with pytest.raises(NarrowClassNotOne):
                    factorization_oracle_check(YOKOI, n, CHI3)
                return
        pytest.skip("no small yokoi member with h+ > 1")


class TestIntroNormalization:
    def test_rho_constant(self):
        # the direct double sums are proportional to the closed-form pair
        # with the single factor 1/(12q), uniformly in r
        for q, chi in ((3, CHI3),
                       (5, DirichletCharacter.from_identifier("q=5;gens=2:1"))):
            for r in range(q):
                A, B, rho = yokoi_intro_ab(q, chi, r)
                if A == CycloElement.zero(chi.order) and \
                        B == CycloElement.zero(chi.order):
                    continue
                assert rho == Fraction(1, 12 * q)
