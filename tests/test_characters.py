"""Dirichlet characters, generalized Bernoulli numbers, mod-p realizations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckezero import characters
from heckezero.characters import (CycloElement, DirichletCharacter,
                                  _kronecker_raw, _unit_group, b1_table,
                                  chi_coords, chi_sum, chi_weights,
                                  enumerate_characters, gen_bernoulli_b1,
                                  modp_realizations, odd_primitive_characters,
                                  unit_product)
from heckezero.errors import BoundExceeded, ParseError
from heckezero.exact import factorize
from heckezero.kernels import KERNEL_STEP_BOUND
from oracles import (_is_fundamental, apply_realization, char_eval,
                     char_invariants, char_logs, char_sum, character_order,
                     chi_weights_per_residue, cyclic_product, is_primitive,
                     kronecker, odd_primitive_by_objects, reduced, zeta_power)

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
                    assert char_eval(chi, a * b) == cyclic_product(
                        char_eval(chi, a), char_eval(chi, b))

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 15])
    def test_orthogonality(self, q):
        # sum over the group of chi(a) is 0 unless a = 1 mod q; the sum is
        # taken in Q(zeta_lam), lam the exponent of (Z/q)*, which holds the
        # values of every chi mod q
        lam = math.lcm(*_unit_group(q).orders)
        chars = enumerate_characters(q)
        for a in range(2, q):
            s = [0] * lam
            for chi in chars:
                k = char_logs(chi)[a]
                if k >= 0:
                    s[k * lam // chi.order] += 1
            expect = len(chars) if a % q == 1 else 0
            assert reduced(lam, s) == reduced(lam, [expect])


class TestExponents:
    @pytest.mark.parametrize("q", range(1, 31))
    def test_from_definition(self, q):
        gens, orders, _, _ = _unit_group(q)
        for chi in enumerate_characters(q):
            o = chi.order
            exps = char_logs(chi)
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


class TestChiWeights:
    @pytest.mark.parametrize("q", range(1, 31))
    def test_fold_equals_termwise_sum(self, q):
        # sum_a chi(a)*t[a] term by term, for every chi mod q, on seeded
        # random tables with entries of both signs
        rng = random.Random(q)
        for chi in enumerate_characters(q):
            for _ in range(2):
                t = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(q)]
                termwise = char_sum(chi, enumerate(t))
                assert chi_coords(chi, t) == reduced(chi.order, termwise)


    def test_columns_equal_per_residue_fold(self):
        # every character mod q <= 64, on the table 2^a, whose weights
        # name the exponent of each unit, and on a seeded random table;
        # composite q with two and three generators included (24, 40 and
        # 56 have three)
        rng = random.Random(64)
        generators = set()
        for q in range(1, 65):
            generators.add(len(_unit_group(q).gens))
            powers = [2 ** a for a in range(q)]
            for chi in enumerate_characters(q):
                noise = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(q)]
                for t in (powers, noise):
                    assert chi_weights(chi, t) == \
                        chi_weights_per_residue(chi, t), chi.identifier()
        assert generators == {0, 1, 2, 3}


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

    def test_odd_primitive_matches_conductor_search(self):
        # the sieve's rule read off the exponents against the search over
        # the divisors of q, for all 8151 characters of odd modulus q < 200
        count = 0
        for q in range(1, 200, 2):
            chars = enumerate_characters(q)
            assert odd_primitive_characters(q) == \
                [chi for chi in chars if char_invariants(chi) == ("odd", q)]
            count += len(chars)
        assert count == 8151

    def test_stored_order_and_filter_match_old_routes(self):
        # the order stored at construction against the lcm loop on read, for
        # all 3004 characters of modulus q < 100, and the odd primitive
        # filter on exponent tuples against the filter over built characters
        count = 0
        for q in range(1, 100):
            chars = enumerate_characters(q)
            assert [chi.order for chi in chars] == \
                [character_order(chi) for chi in chars], q
            if q % 2:
                assert odd_primitive_characters(q) == \
                    odd_primitive_by_objects(q), q
            count += len(chars)
        assert count == 3004

    def test_odd_primitive_factors_once(self, monkeypatch):
        # one factorization per modulus, not one per character
        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        enumerate_characters(45)            # caches the unit group
        monkeypatch.setattr(characters, "factorize", counted)
        assert len(odd_primitive_characters(45)) == 6
        assert calls == [45]

    def test_imprimitive(self):
        # the character mod 9 induced from the quadratic mod 3
        chars = enumerate_characters(9)
        conds = sorted(char_invariants(c)[1] for c in chars)
        assert conds == [1, 3, 9, 9, 9, 9]

    def test_power(self):
        # (chi^k)(a) = chi(a)^k: the phases k*l/o of chi(a)^k and l'/o' of
        # chi^k(a) agree mod 1
        for q in (5, 9, 15, 16, 21):
            for chi in enumerate_characters(q):
                logs = char_logs(chi)
                for k in (-1, 0, 2, 3, 7):
                    power = chi ** k
                    for a, log in enumerate(char_logs(power)):
                        assert (log < 0) == (logs[a] < 0)
                        assert log < 0 or (
                            Fraction(k * logs[a], chi.order)
                            - Fraction(log, power.order)).denominator == 1

    def test_conjugate(self):
        for chi in enumerate_characters(5):
            cc = chi.conjugate()
            for a in range(1, 6):
                prod = cyclic_product(char_eval(chi, a), char_eval(cc, a))
                if not any(char_eval(chi, a)):
                    assert not any(prod)
                else:
                    assert prod == zeta_power(chi.order, 0)


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


class TestUnitProduct:
    @given(st.integers(1, 16).flatmap(lambda q: st.tuples(
        st.just(q),
        st.lists(st.integers(-50, 50), min_size=q, max_size=q),
        st.lists(st.integers(-50, 50), min_size=q, max_size=q))))
    @settings(max_examples=80, deadline=None)
    def test_fold_of_product_is_product_of_folds(self, q_s_t):
        # entries at non-units too, which chi annihilates: the reference
        # multiplies the two termwise folds by cyclic convolution
        q, s, t = q_s_t
        u = unit_product(s, t, q)
        for chi in enumerate_characters(q):
            want = cyclic_product(char_sum(chi, enumerate(s)),
                                  char_sum(chi, enumerate(t)))
            assert chi_coords(chi, u) == reduced(chi.order, want)

    def test_skips_non_units(self):
        # mod 12 only 1, 5, 7 and 11 are units: a table on the non-units
        # multiplies to nothing.  Their products would land on non-units,
        # which every fold ignores, so only this pins the phi(q)^2 loop
        s = [0 if math.gcd(a, 12) == 1 else 1 for a in range(12)]
        assert unit_product(s, list(range(12)), 12) == [0] * 12


class TestKronecker:
    def test_known_values(self):
        assert kronecker(5, 2) == -1
        assert kronecker(5, 4) == 1
        assert kronecker(8, 3) == -1
        assert kronecker(8, 7) == 1
        assert kronecker(5, 5) == 0

    def test_matches_package_symbol(self):
        # the oracle multiplies Euler's criterion over the primes of a; the
        # package runs the Jacobi reciprocity walk behind b1_weights
        Ds = [D for D in range(1, 200) if _is_fundamental(D)]
        assert len(Ds) == 61
        for D in Ds:
            for a in range(3 * D):
                assert kronecker(D, a) == _kronecker_raw(D, a), (D, a)

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
            x = char_sum(chi5, ((2, 1), (3, 7)))
            y = char_sum(chi5, ((4, 1), (1, -2)))
            assert apply_realization(real, cyclic_product(x, y)) == \
                apply_realization(real, x) * apply_realization(real, y) % p
            assert apply_realization(
                real, [a + b for a, b in zip(x, y)]) == \
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
                weights = chi_weights(chi, b1_table(q))
                total = chi_sum(chi, b1_table(q))
                assert total.coeffs == tuple(
                    q * c for c in gen_bernoulli_b1(chi).coeffs)
                for p in _odd_primes(61):
                    for real in modp_realizations(chi, p):
                        assert real.image(weights) == \
                            apply_realization(real, total)
                        checked += 1
        assert checked > 300
