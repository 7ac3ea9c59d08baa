"""Field data, ideal lattices, class numbers, and unit orders."""

import math
import random

import pytest

from heckezero.errors import (BoundExceeded, IncompatiblePair, NotSquarefree,
                              ValidationError)
from heckezero.exact import QuadSurd
from heckezero.quadfield import (CLASS_NUMBER_BOUND, class_numbers,
                                 make_field, norm_form)
from heckezero.shintani import lattice_unit_order
from oracles import (IdealLattice, class_number_analytic,
                     class_numbers_full_scan, ideal_inverse, ideal_norm,
                     is_fractional_ideal, lattice_product, maximal_order,
                     is_squarefree, minus_cycles, norm_residue, surd_pow)

FUND_UNITS = {
    2: QuadSurd(1, 1, 1, 2),
    3: QuadSurd(2, 1, 1, 3),
    5: QuadSurd(1, 1, 2, 5),
    13: QuadSurd(3, 1, 2, 13),
    29: QuadSurd(5, 1, 2, 29),
    229: QuadSurd(15, 1, 2, 229),
}

CLASS_NUMBERS = {
    2: (1, 1),
    3: (1, 2),
    5: (1, 1),
    13: (1, 1),
    15: (2, 4),
    79: (3, 6),
    82: (4, 4),
    199: (1, 2),
    229: (3, 3),
    293: (1, 1),
}


class TestMakeField:
    def test_rejects_bad_d(self):
        for d in (1, 0, -3, 12):
            with pytest.raises((NotSquarefree, ValueError)):
                make_field(d)

    @pytest.mark.parametrize("d,eps", sorted(FUND_UNITS.items()))
    def test_fundamental_unit(self, d, eps):
        F = make_field(d)
        assert F.fund_unit == eps
        assert F.fund_unit_norm in (1, -1)
        assert eps.norm() == F.fund_unit_norm

    @pytest.mark.parametrize("d", sorted(FUND_UNITS))
    def test_totally_positive_unit(self, d):
        F = make_field(d)
        eps = F.tp_fund_unit
        assert eps.norm() == 1
        assert eps > 1 and 0 < eps.conj() < 1
        if F.fund_unit_norm == -1:
            assert eps == F.fund_unit * F.fund_unit
        else:
            assert eps == F.fund_unit

    def test_discriminant(self):
        assert make_field(5).discriminant == 5
        assert make_field(2).discriminant == 8
        assert make_field(3).discriminant == 12
        assert make_field(13).discriminant == 13


class TestClassNumbers:
    @pytest.mark.parametrize("d,expected", sorted(CLASS_NUMBERS.items()))
    def test_frozen_values(self, d, expected):
        assert class_numbers(make_field(d)) == expected

    def test_bound(self):
        # 10^6 + 1 = 101 * 9901 is squarefree; make_field refuses it before
        # the unit, so no FieldData reaches class_numbers unbounded
        with pytest.raises(BoundExceeded):
            make_field(CLASS_NUMBER_BOUND + 1)

    @pytest.mark.parametrize("d", sorted(CLASS_NUMBERS))
    def test_narrow_ratio(self, d):
        # h+ equals h or 2h, with h+ = h exactly when a norm -1 unit exists.
        F = make_field(d)
        h, h_plus = class_numbers(F)
        if F.fund_unit_norm == -1:
            assert h_plus == h
        else:
            assert h_plus == 2 * h

    def test_sweep(self):
        # every squarefree 1 < d < 2000; the aggregates were recorded from
        # the reduced-form enumeration that the cycle count replaced
        values = []
        for d in range(2, 2000):
            if not is_squarefree(d):
                continue
            F = make_field(d)
            h, h_plus = class_numbers(F)
            assert h_plus == (h if F.fund_unit_norm == -1 else 2 * h)
            values.append((h, h_plus))
        assert len(values) == 1214
        assert sum(h_plus == 1 for _, h_plus in values) == 132
        assert sum(h for h, _ in values) == 2878
        assert sum(h_plus for _, h_plus in values) == 5108
        assert max(values) == (14, 28)

    def test_window_matches_full_scan(self):
        # the reduced window against the trial division of 1..isqrt(N): a
        # window that starts one a too late, or a divisor whose cofactor
        # state is dropped, misses reduced states that the walk then meets
        for d in filter(is_squarefree, range(2, 2000)):
            F = make_field(d)
            assert class_numbers(F) == class_numbers_full_scan(F), d
        for d, expected in ((999983, (5, 10)), (999997, (2, 2)),
                            (994013, (25, 25))):
            F = make_field(d)
            assert class_numbers(F) == class_numbers_full_scan(F) == \
                expected

    @pytest.mark.parametrize("d", [
        79, 229, 40009, 160001, 160005,
        101 ** 2 + 4, 97 ** 2 + 1, 199 ** 2 + 1])
    def test_analytic_class_number_formula(self, d):
        # Dirichlet's formula in floats, independent of the reduced surds;
        # the last three are members of the yokoi (n^2 + 4) and rd-n2p1
        # (n^2 + 1) families that the field-sweep benchmark draws from
        F = make_field(d)
        assert abs(class_number_analytic(F) - class_numbers(F)[0]) < 1e-6

    def test_narrow_class_number_is_minus_cycle_count(self):
        # Zagier's reduced forms give one minus cycle per narrow class
        for d in filter(is_squarefree, range(2, 1000)):
            assert class_numbers(make_field(d))[1] == len(minus_cycles(d)), d


class TestIdealLattice:
    def test_maximal_order(self):
        F = make_field(5)
        O = maximal_order(F)
        assert ideal_norm(F, O) == 1
        assert is_fractional_ideal(F, O)

    def test_norm_multiplicative(self):
        random.seed(7)
        for d in (2, 3, 5, 13, 15, 29):
            F = make_field(d)
            O = maximal_order(F)
            for _ in range(10):
                a = QuadSurd(random.randint(-9, 9), random.randint(1, 9),
                             1, d)
                L = lattice_product(F, O, _principal(F, a))
                M = lattice_product(F, O, _principal(F, a + 1))
                prod = lattice_product(F, L, M)
                assert ideal_norm(F, prod) == ideal_norm(F, L) * ideal_norm(F, M)

    def test_inverse(self):
        random.seed(11)
        for d in (2, 3, 5, 13, 15, 29):
            F = make_field(d)
            O = maximal_order(F)
            for _ in range(10):
                a = QuadSurd(random.randint(-9, 9), random.randint(1, 9), 1, d)
                L = lattice_product(F, O, _principal(F, a))
                inv = ideal_inverse(F, L)
                assert lattice_product(F, L, inv) == O
                assert ideal_norm(F, L) * ideal_norm(F, inv) == 1

    def test_non_ideal_lattice(self):
        # [1, sqrt(2)]/2 is a lattice but not stable under the order of Q(sqrt 2)
        F = make_field(5)
        L = IdealLattice(2, 0, 1, 2)
        assert not is_fractional_ideal(F, L)


def _principal(F, a):
    """The principal fractional ideal a*O as a lattice."""
    return IdealLattice.from_surds(a, a * F.omega, F)


class TestNormResidue:
    def test_trivial_ideal(self):
        # b = O, delta = (3+sqrt5)/2: N((C+D*delta)) mod q.
        F = make_field(5)
        O = maximal_order(F)
        delta = QuadSurd(3, 1, 2, 5)
        q = 3
        for C in range(1, q + 1):
            for D in range(1, q + 1):
                x = C + D * delta
                want = int(x.norm()) % q
                assert norm_residue(F, O, delta, C, D, q) == want


class TestNormForm:
    @pytest.mark.parametrize("d,delta,b", [
        (5, QuadSurd(3, 1, 2, 5), IdealLattice(1, 0, 1, 1)),
        (53, QuadSurd(9, 1, 2, 53), IdealLattice(1, 0, 1, 1)),
        (10, QuadSurd(4, 1, 1, 10), IdealLattice(1, 0, 1, 1)),
        (79, QuadSurd(11, 1, 3, 79), IdealLattice(3, 1, 1, 1)),
    ])
    def test_residues_match_element_norms(self, d, delta, b):
        F = make_field(d)
        u, v, w = norm_form(delta)
        nb = ideal_norm(F, b)
        for q in (2, 3, 4, 5, 7, 12):
            for C in range(1, q + 1):
                for D in range(1, q + 1):
                    want = int(nb * (C + D * delta).norm()) % q
                    assert (u * C * C + v * C * D + w * D * D) % q == want
                    assert norm_residue(F, b, delta, C, D, q) == want

    def test_rejects_incompatible_pair(self):
        # [1, 3+sqrt5] = Z[sqrt5] and [1, 4+sqrt13] = Z[sqrt13] are orders of
        # index 2, not ideals of the maximal order
        for delta in (QuadSurd(3, 1, 1, 5), QuadSurd(4, 1, 1, 13)):
            F = make_field(delta.d)
            assert not is_fractional_ideal(F, IdealLattice.from_surds(
                QuadSurd.from_rational(1, delta.d), delta, F))
            with pytest.raises(IncompatiblePair):
                norm_form(delta)

    @pytest.mark.parametrize("d", [d for d in range(2, 60) if is_squarefree(d)])
    def test_matches_lattice_route(self, d):
        # every reduced delta = (a + b sqrt d)/c, b in {1, 2}: delta > 2 and
        # 0 < delta' < 1 bound c < 2b sqrt(d) and b sqrt(d) < a < c + b sqrt(d)
        F = make_field(d)
        one = QuadSurd.from_rational(1, d)
        deltas = set()
        for b in (1, 2):
            for c in range(1, math.isqrt(4 * b * b * d) + 1):
                for a in range(math.isqrt(b * b * d) + 1,
                               c + math.isqrt(b * b * d) + 1):
                    delta = QuadSurd(a, b, c, d)
                    if delta > 2 and 0 < delta.conj() < 1:
                        deltas.add(delta)
        ideals = 0
        for delta in deltas:
            L = IdealLattice.from_surds(one, delta, F)
            if not is_fractional_ideal(F, L):
                with pytest.raises(IncompatiblePair):
                    norm_form(delta)
                continue
            ideals += 1
            nb = ideal_norm(F, ideal_inverse(F, L))
            want = (nb, nb * delta.trace(), nb * delta.norm())
            assert norm_form(delta) == want
        assert ideals > 0

    @pytest.mark.parametrize("e,h,den,bad", [(0, 1, 1, "e"), (1, -1, 1, "h"),
                                             (1, 1, 0, "den")])
    def test_lattice_rejects_nonpositive(self, e, h, den, bad):
        with pytest.raises(ValidationError, match=f"ideal {bad} "):
            IdealLattice(e, 0, h, den)


class TestUnitOrder:
    # [1, omega] is the maximal order O itself, so the lattice order of the
    # unit is its order in O/qO
    def test_known_orders(self):
        # the totally positive unit of Q(sqrt5) is (3+sqrt5)/2, the square of
        # the golden ratio; its reduction mod 4 has order 3, mod 3 order 4.
        F = make_field(5)
        assert lattice_unit_order(F, F.omega, 4) == 3
        assert lattice_unit_order(F, F.omega, 3) == 4
        assert lattice_unit_order(F, F.omega, 1) == 1

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 15, 29])
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_order_annihilates(self, d, q):
        F = make_field(d)
        lam = lattice_unit_order(F, F.omega, q)
        eps = surd_pow(F.tp_fund_unit, lam)
        c = eps.coords(F.omega)
        assert c[0].denominator == 1 and c[1].denominator == 1
        assert (int(c[0]) - 1) % q == 0 and int(c[1]) % q == 0
