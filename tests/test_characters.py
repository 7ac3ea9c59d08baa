"""Dirichlet characters, generalized Bernoulli numbers, mod-p realizations."""

import math
import random
from fractions import Fraction

import pytest

from heckezero.characters import (DirichletCharacter, _unit_group,
                                  b1_weights, char_exponents,
                                  char_invariants, chi_weights,
                                  enumerate_characters, gen_bernoulli_b1,
                                  modp_realizations)
from heckezero.biro import condition_star_search
from heckezero.errors import BoundExceeded, ParseError
from heckezero.exact import CycloElement, cyclo_from_buckets
from heckezero.kernels import KERNEL_STEP_BOUND
from oracles import (apply_realization, char_eval, is_primitive, kronecker,
                     zeta_power)

CHI3 = DirichletCharacter.from_identifier("q=3;gens=2:1")


def _mult_order(t: int, p: int) -> int:
    """The multiplicative order of t mod p, by repeated multiplication."""
    k, acc = 1, t % p
    while acc != 1:
        acc = acc * t % p
        k += 1
    return k


def _odd_primes(n: int) -> list[int]:
    """The odd primes up to n, by trial division."""
    return [p for p in range(3, n + 1, 2)
            if all(p % m for m in range(3, math.isqrt(p) + 1, 2))]


class TestEnumeration:
    @pytest.mark.parametrize("q,count", [(3, 2), (5, 4), (7, 6), (8, 4),
                                         (9, 6), (15, 8), (21, 12)])
    def test_group_size(self, q, count):
        chars = enumerate_characters(q)
        assert len(chars) == count
        assert sum(1 for c in chars if c.order == 1) == 1

    def test_identifier_round_trip(self):
        for q in (3, 5, 7, 8, 9, 15, 21):
            for chi in enumerate_characters(q):
                again = DirichletCharacter.from_identifier(chi.identifier())
                assert again == chi

    def test_exponents_checked_and_normalised(self):
        with pytest.raises(ValueError, match="wrong number of exponents"):
            DirichletCharacter(5, (1, 1))
        chi = DirichletCharacter(5, (5,))
        assert chi.exponents == (1,)
        assert chi == DirichletCharacter(5, (1,))
        assert hash(chi) == hash(DirichletCharacter(5, (1,)))
        assert chi != DirichletCharacter(5, (2,))

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 15])
    def test_multiplicativity(self, q):
        for chi in enumerate_characters(q):
            for a in range(1, q + 1):
                for b in range(1, q + 1):
                    assert char_eval(chi, a * b) == \
                        char_eval(chi, a) * char_eval(chi, b)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 15])
    def test_orthogonality(self, q):
        # sum over the group of chi(a) is 0 unless a = 1 mod q
        chars = enumerate_characters(q)
        for a in range(2, q):
            s = CycloElement(1, ())
            for chi in chars:
                s = s + char_eval(chi, a)
            expect = len(chars) if a % q == 1 else 0
            assert s == expect


class TestExponents:
    @pytest.mark.parametrize("q", range(1, 31))
    def test_from_definition(self, q):
        gens, orders, _ = _unit_group(q)
        for chi in enumerate_characters(q):
            o = chi.order
            exps = char_exponents(chi)
            assert len(exps) == q
            for a in range(q):
                assert (exps[a] == -1) == (math.gcd(a, q) != 1)
                if exps[a] >= 0:
                    assert 0 <= exps[a] < o
                    assert char_eval(chi, a) == zeta_power(o, exps[a])
            # chi(g_i) = zeta_{n_i}^{e_i}, i.e. exps[g_i] / o = e_i / n_i mod 1
            for g, n, e in zip(gens, orders, chi.exponents):
                assert (exps[g] * n - e * o) % (o * n) == 0
            for a in range(q):
                for b in range(a, q):
                    if exps[a] >= 0 and exps[b] >= 0:
                        assert exps[a * b % q] == (exps[a] + exps[b]) % o

    def test_rejects_nonpositive_modulus(self):
        for ident in ("q=0;gens=", "q=-3;gens="):
            with pytest.raises(ParseError):
                DirichletCharacter.from_identifier(ident)

    def test_modulus_bound(self):
        # an L-value mod q takes at least q^2 kernel steps, so the largest
        # modulus accepted is the largest q with q^2 within the budget
        q_max = math.isqrt(KERNEL_STEP_BOUND)
        assert q_max ** 2 <= KERNEL_STEP_BOUND < (q_max + 1) ** 2
        with pytest.raises(BoundExceeded):
            DirichletCharacter.from_identifier(f"q={q_max + 1};gens=")

    def test_cache_bounded_after_search(self):
        char_exponents.cache_clear()
        condition_star_search(101, 3)
        info = char_exponents.cache_info()
        assert info.currsize <= info.maxsize == 1024 < info.misses


class TestChiWeights:
    @pytest.mark.parametrize("q", range(1, 31))
    def test_fold_equals_termwise_sum(self, q):
        # sum_a chi(a)*t[a] term by term, for every chi mod q, on seeded
        # random tables with entries of both signs
        rng = random.Random(q)
        for chi in enumerate_characters(q):
            for _ in range(2):
                t = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(q)]
                termwise = CycloElement(chi.order, ())
                for a in range(q):
                    termwise += char_eval(chi, a) * t[a]
                assert cyclo_from_buckets(
                    chi.order, chi_weights(chi, t)) == termwise


class TestInvariants:
    def test_quadratic_mod3(self):
        assert char_invariants(CHI3) == ("odd", 3)
        assert is_primitive(CHI3)
        assert CHI3.order == 2

    def test_parity_counts(self):
        for q in (5, 7, 9):
            chars = enumerate_characters(q)
            odd = [c for c in chars if char_invariants(c)[0] == "odd"]
            assert len(odd) == len(chars) // 2

    def test_imprimitive(self):
        # the character mod 9 induced from the quadratic mod 3
        chars = enumerate_characters(9)
        conds = sorted(char_invariants(c)[1] for c in chars)
        assert conds == [1, 3, 9, 9, 9, 9]

    def test_conjugate(self):
        for chi in enumerate_characters(5):
            cc = chi.conjugate()
            for a in range(1, 6):
                prod = char_eval(chi, a) * char_eval(cc, a)
                if char_eval(chi, a) == 0:
                    assert prod == 0
                else:
                    assert prod == 1


class TestBernoulli:
    def test_frozen_values(self):
        assert gen_bernoulli_b1(CHI3) == Fraction(-1, 3)
        # quartic character mod 5 sending 2 -> zeta_4: B1 = (-3 - zeta_4)/5
        chi5 = DirichletCharacter.from_identifier("q=5;gens=2:1")
        want = CycloElement(4, (Fraction(-3, 5), Fraction(-1, 5)))
        assert gen_bernoulli_b1(chi5) == want

    def test_odd_product_character(self):
        # chi3 * kronecker(5, .) mod 15 has B1 = -2
        assert gen_bernoulli_b1(CHI3, 5) == Fraction(-2)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_even_characters_vanish(self, q):
        for chi in enumerate_characters(q):
            if char_invariants(chi)[0] == "even" and chi.order > 1:
                assert gen_bernoulli_b1(chi) == 0


class TestKronecker:
    def test_known_values(self):
        assert kronecker(5, 2) == -1
        assert kronecker(5, 4) == 1
        assert kronecker(8, 3) == -1
        assert kronecker(8, 7) == 1
        assert kronecker(5, 5) == 0

    def test_periodicity_and_multiplicativity(self):
        for D in (5, 8, 12, 13):
            for a in range(1, 40):
                assert kronecker(D, a) == kronecker(D, a + D)
                for b in range(1, 12):
                    assert kronecker(D, a * b) == \
                        kronecker(D, a) * kronecker(D, b)


class TestRealizations:
    def test_quadratic_mod3_to_p5(self):
        # order 2 mod 5: only t = 4
        reals = modp_realizations(CHI3, 5)
        assert [r.zeta_image for r in reals] == [4]
        assert all(r.p == 5 and r.order == 2 for r in reals)

    def test_quartic_mod5_to_p5(self):
        chi5 = DirichletCharacter.from_identifier("q=5;gens=2:1")
        reals = modp_realizations(chi5, 5)
        assert sorted(r.zeta_image for r in reals) == [2, 3]

    def test_apply_is_ring_map(self):
        chi5 = DirichletCharacter.from_identifier("q=5;gens=2:1")
        for real in modp_realizations(chi5, 13):
            p = real.p
            x = char_eval(chi5, 2) + char_eval(chi5, 3) * 7
            y = char_eval(chi5, 4) - 2
            assert apply_realization(real, x * y) == \
                apply_realization(real, x) * apply_realization(real, y) % p
            assert apply_realization(real, x + y) == \
                (apply_realization(real, x) + apply_realization(real, y)) % p

    @pytest.mark.parametrize("p", [2] + _odd_primes(211))
    def test_exact_order_oracle(self, p):
        # the character of exponent (p-1)/o mod p has order o
        by_order: dict[int, list[int]] = {}
        for t in range(1, p):
            by_order.setdefault(_mult_order(t, p), []).append(t)
        for o in range(1, p):
            if (p - 1) % o:
                continue
            chi = DirichletCharacter(p, ((p - 1) // o,) if p > 2 else ())
            assert chi.order == o
            reals = modp_realizations(chi, p)
            assert [r.zeta_image for r in reals] == by_order[o]
            assert all(r.p == p and r.order == o for r in reals)

    def test_no_realization_off_divisors(self):
        chi5 = DirichletCharacter.from_identifier("q=5;gens=2:1")
        assert modp_realizations(chi5, 7) == []

    def test_image_matches_apply(self):
        # the search's Horner image of the integer weights against the
        # reduced CycloElement q*B_{1,chi}, for every odd primitive chi
        checked = 0
        for q in range(3, 22):
            for chi in enumerate_characters(q):
                if char_invariants(chi) != ("odd", q):
                    continue
                weights = b1_weights(chi)
                total = gen_bernoulli_b1(chi) * q
                for p in _odd_primes(61):
                    for real in modp_realizations(chi, p):
                        assert real.image(weights) == \
                            apply_realization(real, total)
                        checked += 1
        assert checked > 300
