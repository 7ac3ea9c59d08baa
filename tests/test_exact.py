"""Scalar arithmetic: surds, factorization and serialization (exact), the
rationals on (0,1] and Bernoulli polynomials of the oracles (shintani), and
cyclotomic numbers (characters)."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckezero.acceptance import bernoulli_poly, frac_pos
from heckezero.characters import (CycloElement, DirichletCharacter,
                                  chi_coords, chi_sum, cyclo_to_dict,
                                  enumerate_characters, euler_phi)
from heckezero.errors import BoundExceeded, NoAdmissibleN
from heckezero.exact import (QuadSurd, factorize, quadsurd_to_dict,
                             rational_to_str, residue_1q, square_prime,
                             squarefree_part, surd_sign)
from heckezero.linearity import (BUILTIN_FAMILIES, N_SEARCH_LIMIT,
                                 smallest_admissible_n)
from oracles import is_squarefree, surd_ceil, surd_floor, surd_pow

SQUAREFREE = [2, 3, 5, 6, 7, 10, 13, 15, 29, 53, 229]


class TestFracPos:
    def test_integers_map_to_one(self):
        for n in (-3, -1, 0, 1, 2, 7):
            assert frac_pos(n) == 1

    def test_plain_fractional_part(self):
        assert frac_pos(Fraction(7, 3)) == Fraction(1, 3)
        assert frac_pos(Fraction(-1, 3)) == Fraction(2, 3)
        assert frac_pos(Fraction(13, 2)) == Fraction(1, 2)

    @given(st.fractions(max_denominator=1000))
    def test_range_and_congruence(self, x):
        f = frac_pos(x)
        assert 0 < f <= 1
        assert (x - f).denominator == 1


class TestResidue1q:
    def test_examples(self):
        assert residue_1q(0, 5) == 5
        assert residue_1q(5, 5) == 5
        assert residue_1q(-1, 5) == 4
        assert residue_1q(7, 5) == 2

    @given(st.integers(-10**6, 10**6), st.integers(1, 997))
    def test_range(self, m, q):
        r = residue_1q(m, q)
        assert 1 <= r <= q and (m - r) % q == 0


class TestBernoulli:
    def test_values(self):
        assert bernoulli_poly(1, Fraction(1, 2)) == 0
        assert bernoulli_poly(2, 0) == Fraction(1, 6)
        assert bernoulli_poly(2, Fraction(1, 3)) == Fraction(-1, 18)

    @given(st.fractions(max_denominator=100))
    def test_b2_symmetry(self, x):
        assert bernoulli_poly(2, x) == bernoulli_poly(2, 1 - x)


class TestFactorization:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}
        assert factorize(97) == {97: 1}

    def test_large_repeated_prime(self):
        # a cfrac round-trip discriminant; trial division alone took seconds
        assert factorize(22291846172619859445381409012500) == \
            {2: 2, 5: 5, 61: 2, 3001: 2, 230686501: 2}

    def test_large_composite_splits(self):
        # past the Miller-Rabin proof bound: a witness still proves the
        # product composite, so rho splits it instead of trial division
        m61, m31 = 2**61 - 1, 2**31 - 1
        assert factorize(m61 * m31) == {m31: 1, m61: 1}
        assert QuadSurd(1, 1, 1, m61 * m31).d == m61 * m31

    def test_large_probable_prime_refused(self):
        # the Mersenne prime 2^89 - 1 has no witness and no proof above the
        # bound: refused, not trial-divided for hours
        with pytest.raises(BoundExceeded):
            factorize(2**89 - 1)

    def test_rho_step_budget(self):
        # both factors are past trial division and rho would need about
        # 2^30 steps for 2^61 - 1: refused within the step budget
        t0 = time.monotonic()
        with pytest.raises(BoundExceeded, match="steps"):
            factorize((2**61 - 1) * (2**89 - 1))
        assert time.monotonic() - t0 < 1.0

    def test_random_below_1e10(self):
        def is_prime(p):
            return p > 1 and all(p % k for k in range(2, math.isqrt(p) + 1))

        rng = random.Random(406)
        # plain random n, then products of two primes past trial division's
        # bound, whose cofactor only rho can split
        cases = [rng.randrange(1, 10**10) for _ in range(300)]
        big = [p for p in range(10**4, 10**5) if is_prime(p)]
        cases += [rng.choice(big) * rng.choice(big) for _ in range(100)]
        for n in cases:
            fac = factorize(n)
            assert math.prod(p**e for p, e in fac.items()) == n
            assert all(is_prime(p) for p in fac)

    def test_square_prime_memo_bounded(self):
        # a sweep over more radicands than the memo holds leaves it full,
        # not grown, and still answers correctly
        bound = square_prime.cache_info().maxsize
        assert bound is not None
        top = bound + 1000
        least = [0] * (top + 1)         # least p with p^2 | n, by a sieve
        for p in range(math.isqrt(top), 1, -1):
            least[p * p::p * p] = [p] * len(least[p * p::p * p])
        for n in range(1, top + 1):
            assert square_prime(n) == least[n]
        assert square_prime.cache_info().currsize == bound
        assert square_prime(12) == 2 and square_prime(10 ** 6 + 1) == 0

    def test_square_prime_memo_holds_a_search_window(self):
        # 9(n^2 + 1) is never squarefree, which at q = 2 and 4 only the
        # walk shows: the q = 2 search checks the 5000 odd n, and the q = 4
        # searches after it, as one command over several q makes them, find
        # every radicand memoized
        square_prime.cache_clear()
        nine = BUILTIN_FAMILIES["rd-n2p1"]._replace(f_coeffs=(9, 0, 9))
        with pytest.raises(NoAdmissibleN):
            smallest_admissible_n(nine, 2, 1)
        misses = square_prime.cache_info().misses
        assert misses == N_SEARCH_LIMIT // 2
        for r in (1, 3):
            with pytest.raises(NoAdmissibleN):
                smallest_admissible_n(nine, 4, r)
        assert square_prime.cache_info().misses == misses

    def test_squarefree_part(self):
        assert squarefree_part(12) == (3, 2)
        assert squarefree_part(49) == (1, 7)
        assert is_squarefree(30)
        assert not is_squarefree(8)

    @given(st.integers(1, 10**6))
    def test_reconstruction(self, n):
        d, s = squarefree_part(n)
        assert d * s * s == n and is_squarefree(d)


class TestQuadSurd:
    def test_canonical_form(self):
        x = QuadSurd(2, 4, -6, 5)
        assert (x.a, x.b, x.c) == (-1, -2, 3)
        assert QuadSurd(2, 2, 2, 5) == QuadSurd(1, 1, 1, 5)

    def test_value_equality(self):
        assert hash(QuadSurd(2, 2, 2, 5)) == hash(QuadSurd(1, 1, 1, 5))
        # equal only to a surd of the class: d counts, numbers do not
        assert QuadSurd(1, 0, 1, 5) != QuadSurd(1, 0, 1, 2)
        assert QuadSurd(1, 0, 1, 5) != 1

    def test_from_rational(self):
        # from_rational reads numerator and denominator, which ints and
        # Fractions both carry
        want = QuadSurd(3, 0, 1, 5)
        for x in (3, Fraction(3), Fraction(6, 2)):
            y = QuadSurd.from_rational(x, 5)
            assert y == want and (y.a, y.b, y.c, y.d) == (3, 0, 1, 5)
        y = QuadSurd.from_rational(Fraction(-1, 3), 7)
        assert (y.a, y.b, y.c, y.d) == (-1, 0, 3, 7)
        assert QuadSurd.sqrt(7) + Fraction(-1, 3) == QuadSurd(-1, 3, 3, 7)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            QuadSurd(1, 1, 0, 5)

    def test_arithmetic_golden(self):
        phi = QuadSurd(1, 1, 2, 5)
        assert phi * phi == phi + 1          # golden ratio equation
        assert phi.inverse() == phi - 1
        assert phi.norm() == -1 and phi.trace() == 1

    def test_floor_ceil(self):
        s2 = QuadSurd.sqrt(2)
        assert surd_floor(s2) == 1 and surd_ceil(s2) == 2
        assert surd_floor(3 * s2) == 4
        assert surd_floor(-s2) == -2
        assert surd_floor(QuadSurd(4, 0, 2, 7)) == 2  # rational embedded value

    def test_coords(self):
        delta = QuadSurd(3, 1, 2, 5)
        x = 2 + 3 * delta
        assert x.coords(delta) == (Fraction(2), Fraction(3))

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20),
           st.sampled_from(SQUAREFREE))
    def test_sign_against_float(self, a, b, c, d):
        x = QuadSurd(a, b, c, d)
        approx = (a + b * d ** 0.5) / c
        if abs(approx) > 1e-9:
            assert surd_sign(x) == (1 if approx > 0 else -1)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9),
           st.sampled_from(SQUAREFREE))
    def test_floor_bounds(self, a, b, c, d):
        x = QuadSurd(a, b, c, d)
        n = surd_floor(x)
        assert x - n >= 0 and x - (n + 1) < 0

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 6),
           st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 6),
           st.sampled_from([2, 3, 5]))
    def test_ring_homomorphisms(self, a1, b1, c1, a2, b2, c2, d):
        x, y = QuadSurd(a1, b1, c1, d), QuadSurd(a2, b2, c2, d)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).norm() == x.norm() * y.norm()
        assert x + x.conj() == QuadSurd.from_rational(x.trace(), d)

    def test_pow(self):
        eps = QuadSurd(1, 1, 1, 2)
        assert surd_pow(eps, 2) == QuadSurd(3, 2, 1, 2)
        assert surd_pow(eps, -1) == QuadSurd(-1, 1, 1, 2)
        assert surd_pow(eps, 0) == QuadSurd.from_rational(1, 2)


class TestCycloElement:
    """The fold that builds every CycloElement: chi_coords reduces a
    table's weights once, and chi_sum scales the coordinates once."""

    CHI5 = DirichletCharacter.from_identifier("q=5;gens=2:1")   # 2 -> z4
    CHI7 = DirichletCharacter.from_identifier("q=7;gens=3:2")   # 3 -> z3

    def test_canonical_reduction(self):
        # zeta_4^2 = chi5(4) = -1, zeta_3^2 = chi7(2) = -1 - zeta_3
        assert chi_coords(self.CHI5, [0, 0, 0, 0, 1]) == (-1, 0)
        assert chi_coords(self.CHI7, [0, 0, 1, 0, 0, 0, 0]) == (-1, -1)

    def test_reduced_on_construction(self):
        # 1 + z3 + z3^2 = chi7(1) + chi7(3) + chi7(2) = 0; an order-5
        # character gives phi(5) = 4 integer coordinates
        assert chi_coords(self.CHI7, [0, 1, 1, 1, 0, 0, 0]) == (0, 0)
        chi11 = DirichletCharacter.from_identifier("q=11;gens=2:2")
        assert chi11.order == 5
        got = chi_coords(chi11, [0, 2] + [0] * 9)
        assert got == (2, 0, 0, 0) and {type(c) for c in got} == {int}

    @given(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 21])
           .flatmap(lambda q: st.tuples(
               st.sampled_from(enumerate_characters(q)),
               st.lists(st.integers(-10**6, 10**6), min_size=q, max_size=q))),
           st.fractions(max_denominator=50))
    @settings(max_examples=60)
    def test_buckets_equal_termwise_sum(self, chi_table, scale):
        # one fold of the table equals the sum of the canonical
        # coordinates of each residue's own table, weighted by its entry,
        # and chi_sum scales those coordinates once
        chi, table = chi_table
        q = chi.modulus
        want = [0] * euler_phi(chi.order)
        for a, wgt in enumerate(table):
            unit = chi_coords(chi, [int(a == b) for b in range(q)])
            want = [x + wgt * y for x, y in zip(want, unit)]
        assert chi_coords(chi, table) == tuple(want)
        got = chi_sum(chi, table, scale)
        assert got.order == chi.order
        assert got.coeffs == tuple(c * scale for c in want)
        assert chi_sum(self.CHI5, [0, 0, 1, 0, 0]) != 1


class TestSerialization:
    def test_rational_round_trip(self):
        for x in (Fraction(2, 3), Fraction(-7), Fraction(0)):
            assert Fraction(rational_to_str(x)) == x
        assert rational_to_str(Fraction(2, 3)) == "2/3"
        assert rational_to_str(Fraction(5)) == "5"

    def test_surd_round_trip(self):
        x = QuadSurd(3, -1, 2, 13)
        assert QuadSurd(**quadsurd_to_dict(x)) == x

    def test_cyclo_round_trip(self):
        x = CycloElement(5, (Fraction(1, 2), Fraction(-3), Fraction(0),
                             Fraction(7, 3)))
        obj = cyclo_to_dict(x)
        assert CycloElement(obj["order"],
                            tuple(map(Fraction, obj["coeffs"]))) == x
