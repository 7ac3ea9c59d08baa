"""Families, closed forms per cell, and the affine-in-n verification."""

from fractions import Fraction

import pytest

from heckezero.characters import DirichletCharacter
from heckezero.errors import (DeltaOutOfRange, InsufficientSamples,
                              NotSquarefree, ParseError)
from heckezero.exact import QuadSurd
from heckezero.linearity import (BUILTIN_FAMILIES, closed_form_cd,
                                 closed_form_chi, family_instance,
                                 family_minus_cf, family_spec_from_dict,
                                 gamma_tau, hypothesis_check_norm, nu_sequence,
                                 smallest_admissible_n, verify_linearity)
from heckezero.shintani import partial_zeta_zero

YOKOI = BUILTIN_FAMILIES["yokoi"]
RDN = BUILTIN_FAMILIES["rd-n2p1"]
CHI3 = DirichletCharacter.from_identifier("q=3;gens=2:1")


class TestFamilySpecs:
    def test_yokoi_shape(self):
        assert YOKOI.s == 1
        assert YOKOI.f(3) == 13 and YOKOI.f(1) == 5
        assert YOKOI.a(0, 3) == 3 and YOKOI.a(5, 3) == 3    # indices wrap
        assert YOKOI.alpha(0) == 1

    def test_rd_shape(self):
        assert RDN.s == 1
        assert RDN.f(1) == 2 and RDN.f(3) == 10
        assert RDN.a(0, 3) == 6
        assert RDN.alpha(0) == 2

    def test_instances(self):
        assert family_instance(YOKOI, 1) == QuadSurd(3, 1, 2, 5)
        assert family_instance(RDN, 1) == QuadSurd(2, 1, 1, 2)

    def test_rejects_non_squarefree_before_constraints(self):
        # n = 2 violates both squarefreeness (f = 8) and the parity rule;
        # the squarefree failure must win
        with pytest.raises(NotSquarefree):
            family_instance(YOKOI, 2)

    def test_rejects_even_n(self):
        with pytest.raises(NotSquarefree):
            family_instance(YOKOI, 4)       # f(4) = 20, 4 | 20
        with pytest.raises(DeltaOutOfRange):
            family_instance(RDN, 2)         # f(2) = 5 squarefree, parity fails

    def test_minus_cf_matches_declared_digits(self):
        for spec, n in ((YOKOI, 1), (YOKOI, 3), (YOKOI, 5),
                        (RDN, 1), (RDN, 3)):
            m = family_minus_cf(spec, n)
            delta = family_instance(spec, n)
            from heckezero.cfrac import minus_expand
            assert m.period == minus_expand(delta).period


class TestFamilyJSON:
    def test_round_trip_yokoi(self):
        obj = {
            "name": "yokoi-json",
            "f_coeffs": [4, 0, 1],
            "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 2},
            "acf": [{"alpha": 1, "beta": 0}],
            "n_constraints": {"parity": "odd", "forbidden_residues": []},
        }
        spec = family_spec_from_dict(obj)
        assert spec.s == 1 and spec.f(1) == 5
        assert family_instance(spec, 1).d == 5

    def test_malformed(self):
        with pytest.raises(ParseError):
            family_spec_from_dict({"name": "x"})
        with pytest.raises(ParseError):
            family_spec_from_dict({
                "name": "x", "f_coeffs": [], "delta": {},
                "acf": [], "n_constraints": {}})


class TestGammaTau:
    def test_yokoi_q3(self):
        # a_0(r) = r; gamma in [1, q], tau the quotient
        assert gamma_tau(YOKOI, 0, 1, 3) == (1, 0)
        assert gamma_tau(YOKOI, 0, 3, 3) == (3, 0)
        assert gamma_tau(YOKOI, 0, 0, 3) == (3, -1)

    def test_reconstruction(self):
        for spec in (YOKOI, RDN):
            for q in (3, 5):
                for r in range(q):
                    for i in range(2 * spec.s):
                        g, t = gamma_tau(spec, i, r, q)
                        assert 1 <= g <= q
                        assert spec.a(i, r) == g + t * q


class TestNuSequence:
    def test_seed(self):
        ns = nu_sequence(YOKOI, 3, 1, 1, 1)
        assert ns.nu_at(-1) == Fraction(2, 3)
        assert ns.nu_at(0) == Fraction(1, 3)

    def test_matches_digit_orbit(self):
        # at an admissible n the nu orbit is the x orbit of the actual word
        from heckezero.shintani import yamamoto_sequence
        q, r = 3, 1
        n = smallest_admissible_n(YOKOI, q, r, require_min_digit=True)
        mcf = family_minus_cf(YOKOI, n)
        for C in range(1, q + 1):
            for D in range(1, q + 1):
                ns = nu_sequence(YOKOI, q, r, C, D)
                seq = yamamoto_sequence(q, C, D, mcf,
                                        steps=len(ns.Gamma))
                for i in range(min(len(ns.Gamma), 3)):
                    assert ns.nu_at(i) == seq.x_at(i)


class TestClosedFormCD:
    def test_oracle_cell(self):
        A, B = closed_form_cd(YOKOI, 3, 1, 1, 1)
        assert (A, B) == (Fraction(-4, 3), Fraction(-4))

    @pytest.mark.parametrize("q", [3, 5])
    def test_matches_finite_differences(self, q):
        for r in range(q):
            for C in range(1, q + 1):
                for D in range(1, q + 1):
                    A, B = closed_form_cd(YOKOI, q, r, C, D)
                    for k in (0, 1, 3):
                        n = q * k + r
                        try:
                            mcf = family_minus_cf(YOKOI, n)
                        except Exception:
                            continue
                        if min(mcf.period) < q:
                            continue
                        z = partial_zeta_zero(q, C, D, mcf)
                        assert Fraction(1, 12) * (A + k * B) == z

    def test_rd_family_cell(self):
        for r in range(3):
            for C in range(1, 4):
                for D in range(1, 4):
                    A, B = closed_form_cd(RDN, 3, r, C, D)
                    for k in (2, 4):
                        n = 3 * k + r
                        try:
                            mcf = family_minus_cf(RDN, n)
                        except Exception:
                            continue
                        if min(mcf.period) < 3:
                            continue
                        z = partial_zeta_zero(3, C, D, mcf)
                        assert Fraction(1, 12) * (A + k * B) == z


class TestClosedFormChi:
    def test_q3_quadratic(self):
        cf = closed_form_chi(YOKOI, 3, CHI3, 1)
        # scaled pair q^2 * (A, B) summed with character weights
        assert cf.q == 3 and cf.r == 1
        # the closed form must reproduce the direct L-values
        for k in (0, 2, 4):
            n = 3 * k + 1
            from heckezero.shintani import partial_hecke_L_zero
            lhs = partial_hecke_L_zero(family_instance(YOKOI, n),
                                       CHI3) * (12 * 9)
            rhs = cf.A_chi + cf.B_chi * k
            assert lhs == rhs

    def test_no_admissible_n_path(self):
        # even residues are never admissible for the odd-n yokoi family
        from heckezero.errors import NoAdmissibleN
        with pytest.raises(NoAdmissibleN):
            smallest_admissible_n(YOKOI, 2, 0)


class TestVerifyLinearity:
    def test_yokoi_q3(self):
        rep = verify_linearity(YOKOI, 3, CHI3, 1, range(0, 8))
        assert rep.affine_exact and rep.closed_form_match
        assert rep.hypothesis_check
        assert rep.intercept == rep.A_chi and rep.slope == rep.B_chi

    def test_rd_q3(self):
        rep = verify_linearity(RDN, 3, CHI3, 1, range(0, 12))
        assert rep.affine_exact and rep.closed_form_match

    def test_order_independence(self):
        ks = [6, 0, 2, 4, 2]
        a = verify_linearity(YOKOI, 3, CHI3, 1, ks)
        b = verify_linearity(YOKOI, 3, CHI3, 1, sorted(set(ks)))
        assert a == b

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            verify_linearity(YOKOI, 3, CHI3, 1, [0, 2])

    def test_skips_recorded(self):
        rep = verify_linearity(YOKOI, 3, CHI3, 1, range(0, 8))
        assert set(rep.k_used) | set(rep.k_skipped) == set(range(8))
        # k = 1 gives n = 6, even: skipped
        assert 1 in rep.k_skipped


class TestAdmissibility:
    def test_smallest(self):
        assert smallest_admissible_n(YOKOI, 3, 1, False) == 1
        assert smallest_admissible_n(YOKOI, 3, 0, False) == 3
        n = smallest_admissible_n(YOKOI, 5, 1, require_min_digit=True)
        assert n % 5 == 1 and n % 2 == 1 and n >= 5

    def test_hypothesis_check(self):
        assert hypothesis_check_norm(YOKOI, 3, 1, range(0, 8))
