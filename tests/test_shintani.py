"""The cone engine: digit orbits, per-cell zeta values, L-values at s=0."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckezero import exact, shintani
from heckezero.acceptance import (YamamotoSeq, lattice_unit_order,
                                  partial_zeta_zero,
                                  yamamoto_identity_residual,
                                  yamamoto_sequence)
from heckezero.cfrac import MinusCF, minus_expand, minus_word
from heckezero.characters import (DirichletCharacter, chi_sum,
                                  enumerate_characters, gen_bernoulli_b1)
from heckezero.errors import (BoundExceeded, DeltaOutOfRange,
                              IncompatiblePair, InternalInvariantError,
                              NotSquarefree)
from heckezero.exact import QuadSurd
from heckezero.kernels import zeta12_times
from heckezero.linearity import BUILTIN_FAMILIES, admissible, family_instance
from heckezero.quadfield import (check_radicand, class_numbers,
                                 field_discriminant, make_field, norm_form)
from heckezero.shintani import (check_delta_hypotheses, form_counts,
                                form_sums, form_tables, partial_hecke_L_zero,
                                residue_table, table_input)
from oracles import (IdealLattice, bernoulli_product_reference, char_sum,
                     delta_reduced_by_surds, form_counts_stepwise,
                     form_sums_full, ideal_inverse, is_squarefree, kronecker,
                     minus_cycles, norm_residue, orbit_shift_check,
                     partial_zeta_zero_reference, reduced)

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

    def test_equal_by_value(self):
        seq = yamamoto_sequence(3, 3, 1, MinusCF((), (3,)), steps=2)
        assert seq == yamamoto_sequence(3, 3, 1, MinusCF((), (3,)), steps=2)
        assert seq == YamamotoSeq(3, 3, 1, seq.x)
        assert seq != yamamoto_sequence(3, 3, 1, MinusCF((), (3,)), steps=3)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(4, 3),
                                   Fraction(1, 2)])
    def test_contract_checked(self, x):
        # every x_i lies in (0, 1] with 3 x_i an integer
        with pytest.raises(InternalInvariantError, match="out of contract"):
            YamamotoSeq(3, 1, 1, (Fraction(1, 3), x))


class TestPartialZeta:
    def test_oracles(self):
        assert partial_zeta_zero(3, 1, 1, MinusCF((), (3,))) == Fraction(-1, 9)
        assert partial_zeta_zero(3, 1, 1, MinusCF((), (4, 2))) == Fraction(2, 9)

    def test_q_one_vanishes(self):
        # the two maximal-order words; an arbitrary word need not vanish
        for word in ((3,), (4, 2)):
            assert partial_zeta_zero(1, 1, 1, MinusCF((), word)) == 0

    def test_dual_route_agreement(self):
        # integer kernel vs the direct Bernoulli-polynomial sum, on four
        # hand-picked words ((7, 2, 3) comes from a non-maximal order) and
        # the minus word of every reduced delta > 2 of squarefree d < 40
        words = [MinusCF((), word)
                 for word in ((3,), (4, 2), (5, 2, 2), (7, 2, 3))]
        for d in filter(is_squarefree, range(2, 40)):
            disc = field_discriminant(d)
            f = 1 if disc == d else 2
            for cycle in minus_cycles(d):
                for P, Q in cycle:
                    if (P + math.isqrt(disc)) // Q >= 2:
                        words.append(minus_expand(QuadSurd(P, f, Q, d)))
        assert len(words) == 100
        for mcf in words:
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

    @given(st.integers(-100, 100), st.integers(-20, 20), st.integers(1, 40),
           st.integers(2, 200).filter(lambda d: math.isqrt(d) ** 2 != d))
    @example(40, 5, 29, 13)     # delta = 2.00096, delta' = 0.758
    @example(32, 15, 29, 3)     # delta = 1.99934, delta' = 0.208
    @example(73, 12, 29, 37)    # delta' = 0.00024, delta = 5.03
    @example(67, 17, 29, 5)     # delta' = 0.99955, delta = 3.62
    @example(70, 13, 29, 29)    # delta' = -0.00025, delta = 4.83
    @example(79, 4, 40, 95)     # delta' = 1.00032, delta = 2.95, c < a < 2c
    @example(5, 0, 2, 5)        # b = 0: delta = delta' = 5/2
    @example(3, -1, 2, 5)       # b < 0: the conjugate of (3 + sqrt 5)/2
    @settings(max_examples=500, deadline=None)
    def test_integers_match_surd_comparison(self, a, b, c, d):
        # the integer inequalities decide exactly what the QuadSurd
        # comparisons decided, and refuse with the same message
        delta = QuadSurd(a, b, c, d)
        if delta_reduced_by_surds(delta):
            check_delta_hypotheses(delta)
        else:
            with pytest.raises(DeltaOutOfRange) as info:
                check_delta_hypotheses(delta)
            assert str(info.value) == (
                f"delta = {delta} must satisfy delta > 2 and 0 < delta' < 1")


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
        assert gen_bernoulli_b1(CHI3) == Fraction(-1, 3)
        acc = char_sum(CHI3, ((a, Fraction(a * kronecker(5, a), 15))
                              for a in range(1, 16)))
        assert gen_bernoulli_b1(CHI3, 5).coeffs == reduced(CHI3.order, acc)
        assert gen_bernoulli_b1(CHI3, 5) == Fraction(-2)

    def test_rejects_incompatible_pair(self):
        # [1, 3+sqrt5] = Z[sqrt5] and [1, 4+sqrt13] = Z[sqrt13] are reduced
        # but are orders of index 2, not ideals of the maximal order, so no
        # b = [1, delta]^{-1} exists
        for delta in (QuadSurd(3, 1, 1, 5), QuadSurd(4, 1, 1, 13)):
            with pytest.raises(IncompatiblePair):
                partial_hecke_L_zero(delta, CHI3)

    def test_norm_not_prime_to_q(self):
        # [1, (11+sqrt79)/3] is the inverse of the norm-3 prime [3, 1+sqrt79]
        # and [1, (10+sqrt79)/7] that of a norm-7 ideal.  Both lie on one
        # minus cycle, so in one narrow class, and the table reads only
        # N((C + D delta)b) mod 3, which norm_form gives for any b
        for delta in (QuadSurd(11, 1, 3, 79), QuadSurd(10, 1, 7, 79)):
            assert residue_table(delta, 3) == (0, -54, -54)
        assert any({(22, 6), (20, 14)} <= set(cycle)
                   for cycle in minus_cycles(79))
        assert partial_hecke_L_zero(QuadSurd(11, 1, 3, 79), CHI3) == 0


def _bernoulli_conv(q, D):
    """Conv[c] = sum a*b*(D/b) over 1 <= a <= q, 1 <= b <= qD, ab = c mod q,
    summing b*(D/b) per residue of b first."""
    by_b = [0] * q
    for b in range(1, q * D + 1):
        by_b[b % q] += b * kronecker(D, b)
    conv = [0] * q
    for a in range(1, q + 1):
        for t in range(q):
            conv[a * t % q] += a * by_b[t]
    return conv


class TestResidueTable:
    def test_bernoulli_factorization(self):
        # for h+ = 1, L(0, chi) = B_{1,chi} B_{1,chi chi_D} and the right
        # side times 12 q^2 is the chi-fold of 12 Conv / D; the characters
        # mod q span the functions on the units, so D T[a] = 12 Conv[a] at
        # every unit a, for every builtin member n < 60 with h+ = 1 and
        # every q <= 12 prime to D.  T vanishes at the non-units.
        checked = 0
        for spec in BUILTIN_FAMILIES.values():
            for _, delta in admissible(spec, 1, 0, range(1, 60)):
                if class_numbers(make_field(delta.d))[1] != 1:
                    continue
                D = field_discriminant(delta.d)
                for q in range(2, 13):
                    if math.gcd(q, D) != 1:
                        continue
                    table = residue_table(delta, q)
                    conv = _bernoulli_conv(q, D)
                    for a in range(q):
                        unit = math.gcd(a, q) == 1
                        assert D * table[a] == (12 * conv[a] if unit else 0)
                    checked += 1
        assert checked == 69


class TestMinusCycles:
    """Zagier's reduced forms, grouped into cycles of the minus step, list
    the narrow ideal classes (oracles.minus_cycles): every reduced delta > 2
    of one cycle gives the same table, whether or not N(b) is prime to q."""

    def test_tables_constant_on_each_cycle(self):
        # squarefree d < 150 and q = 2..7.  Where h+ = 1 and gcd(q, D) = 1,
        # each delta with gcd(N(b), q) > 1 alone gives the Bernoulli product
        # for every chi mod q.  Both checks are needed: an error in the
        # kernel that does not depend on the rotation of the word leaves
        # every cycle constant.  One form_tables call per (d, q) over the
        # deltas of every cycle gives the same tables; in 501 of the 546
        # calls the deltas have several norm forms mod q, so sums keyed by
        # the wrong form (a member's norm form in place of the walked one)
        # would show
        fields = cycles_checked = mixed = not_coprime = products = 0
        mixed_forms = 0
        for d in filter(is_squarefree, range(2, 150)):
            F = make_field(d)
            D, f = F.discriminant, 1 if F.discriminant == d else 2
            cycles = minus_cycles(d)
            h_plus = class_numbers(F)[1]
            assert len(cycles) == h_plus, d
            fields += 1
            for q in range(2, 8):
                want = [(chi, bernoulli_product_reference(chi, D))
                        for chi in enumerate_characters(q)
                        if h_plus == 1 and math.gcd(q, D) == 1]
                deltas, field_tables = [], []
                for cycle in cycles:
                    tables, coprime = set(), set()
                    for P, Q in cycle:
                        if (P + math.isqrt(D)) // Q < 2:
                            continue        # delta < 2
                        # delta = (P + sqrt(D))/Q with N(b) = Q/2
                        deltas.append(QuadSurd(P, f, Q, d))
                        table = residue_table(deltas[-1], q)
                        field_tables.append(table)
                        unit = math.gcd(Q // 2, q) == 1
                        tables.add(table)
                        coprime.add(unit)
                        if unit:
                            continue
                        not_coprime += 1
                        for chi, value in want:
                            assert chi_sum(chi, table, Fraction(
                                1, 12 * q * q)).coeffs == value, (d, q)
                            products += 1
                    assert len(tables) == 1, (d, q, cycle)
                    cycles_checked += 1
                    mixed += len(coprime) == 2
                assert form_tables([table_input(delta, q) for delta in deltas],
                                   q) == field_tables, (d, q)
                mixed_forms += len({tuple(c % q for c in norm_form(delta))
                                    for delta in deltas}) > 1
        assert (fields, cycles_checked, mixed, not_coprime, products,
                mixed_forms) == (91, 1374, 474, 1250, 276, 501)

    def test_walk_visits_reduced_forms(self):
        # the form walk is Zagier's reduction: from each reduced delta > 2
        # of squarefree d < 300, the j-th form the walk meets is
        # (u, -v, w) mod q of norm_form(delta_{j+1}), where delta_{j+1} =
        # 1/(ceil(delta_j) - delta_j) is computed exactly.  Each step is
        # one call of the digit-by-digit walker from the form the walk
        # reached, and form_counts on the plus period of delta - 1 gives
        # the counts of the forms met over the whole minus word
        positions = 0
        for d in filter(is_squarefree, range(2, 300)):
            D = field_discriminant(d)
            f = 1 if D == d else 2
            for cycle in minus_cycles(d):
                for P, Q in cycle:
                    if (P + math.isqrt(D)) // Q < 2:
                        continue        # delta < 2
                    delta = QuadSurd(P, f, Q, d)
                    word = minus_expand(delta).period
                    forms, digits = [], []
                    d_j = delta
                    for _ in word:
                        digits.append(
                            (d_j.a + math.isqrt(d_j.b ** 2 * d)) // d_j.c + 1)
                        d_j = (digits[-1] - d_j).inverse()
                        forms.append(norm_form(d_j))
                    assert (d_j, tuple(digits)) == (delta, word), delta
                    plus = table_input(delta, 1)[1]
                    for q in (*range(2, 10), 12):
                        walked = [(u % q, -v % q, w % q)
                                  for u, v, w in forms]
                        A, B, C = walked[-1]     # delta_m = delta
                        for b, want in zip(word, walked):
                            [(form, entry)] = form_counts_stepwise(
                                (A, -B, C), (b,), q).items()
                            assert (form, entry) == (want, [1, b]), delta
                            A, B, C = form
                        counts = {}
                        for form, b in zip(walked, word[1:] + word[:1]):
                            entry = counts.setdefault(form, [0, 0])
                            entry[0] += 1
                            entry[1] += b
                        assert form_counts(norm_form(delta), plus, q) == \
                            counts, (delta, q)
                        positions += len(word)
        assert positions == 368271

    def test_plus_period_gives_minus_word(self):
        # table_input hands on the plus period of delta - 1, whose minus
        # word is the minus period of delta itself, for every reduced
        # delta > 2 of squarefree d < 300; residue_table, which runs the
        # kernel over that word, gives the table of the expanded word at a
        # prime and at a composite modulus
        deltas = 0
        for d in filter(is_squarefree, range(2, 300)):
            D = field_discriminant(d)
            f = 1 if D == d else 2
            for cycle in minus_cycles(d):
                for P, Q in cycle:
                    if (P + math.isqrt(D)) // Q < 2:
                        continue        # delta < 2
                    delta = QuadSurd(P, f, Q, d)
                    word = minus_expand(delta).period
                    form, plus = table_input(delta, 1)
                    assert minus_word(plus).period == word, delta
                    for q in (3, 4):
                        assert residue_table(delta, q) == \
                            _kernel_table(q, form, word), (delta, q)
                    deltas += 1
        assert deltas == 1870


def _kernel_table(q, form, word):
    """The residue table of form and word summed cell by cell with the
    kernel, as residue_table sums it."""
    u, v, w = form
    table = [0] * q
    for C in range(1, q + 1):
        for D in range(1, q + 1):
            a = (u * C * C + v * C * D + w * D * D) % q
            if math.gcd(a, q) == 1:
                table[a] += zeta12_times(q, C, D, word)
    return tuple(table)


_PLUS = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(tuple)
_FORMS = st.tuples(*[st.integers(-30, 30)] * 3)


class TestStepTables:
    """The form-walk tables against the per-cell kernel: on any plus period
    and any quadratic form, and on the reduced deltas of every narrow class
    (TestMinusCycles).  The walk over the plus period and the paired sums
    against the walk over the minus word one digit at a time and the sums
    over every cell.  The words are minus words of plus periods: a minus
    word of a reduced delta opens with a digit over 2 and 2 is its only
    repeated digit."""

    @settings(max_examples=200, deadline=None)
    @given(q=st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12]),
           members=st.lists(st.tuples(_FORMS, _PLUS), min_size=1,
                            max_size=3))
    # two forms that differ mod 5 and a third equal to the first mod 5
    @example(q=5, members=[((1, 1, -1), (1,)), ((1, 0, 2), (2, 3)),
                           ((6, -4, 4), (3, 1))])
    def test_fold_matches_kernel(self, q, members):
        words = [minus_word(plus).period for _, plus in members]
        for (form, plus), word in zip(members, words):
            counts = form_counts(form, plus, q).values()
            assert sum(n for n, _ in counts) == len(word)
            assert sum(bsum for _, bsum in counts) == sum(word)
        assert form_tables(members, q) == \
            [_kernel_table(q, form, word)
             for (form, _), word in zip(members, words)]

    @settings(max_examples=300, deadline=None)
    @given(q=st.sampled_from([1, 2, 3, 4, 6, 9, 12]), plus=_PLUS,
           form=_FORMS)
    # a run of 19 twos at a form the 2-step fixes: period 1
    @example(q=9, plus=(1, 20), form=(1, 4, 4))
    # Yokoi words (n + 2, 2, ..., 2) from their norm form (1, n + 2, n):
    # the run's forms have period 9 at q = 9 and period 6 at q = 12 for
    # even n, so the runs of 19 and 25 digits go round their orbits more
    # than twice
    @example(q=9, plus=(20,), form=(1, 22, 20))
    @example(q=12, plus=(26,), form=(1, 28, 26))
    # no run longer than one digit: (3, 2, 30, 5, 2)
    @example(q=12, plus=(1, 2, 28, 1, 3, 2), form=(3, -7, 5))
    def test_runs_counted_as_walked(self, q, plus, form):
        # the walk over the plus period meets the same forms, in the same
        # order, with the same counts and digit sums as the walk over the
        # minus word one digit at a time
        assert list(form_counts(form, plus, q).items()) == \
            list(form_counts_stepwise(form, minus_word(plus).period,
                                      q).items())

    def test_paired_sums_match_every_cell(self):
        # every form mod q for q = 1..12: the even q have the self-paired
        # column x = q/2, and the composite q have non-unit residues
        for q in range(1, 13):
            forms = [(A, B, C) for A in range(q) for B in range(q)
                     for C in range(q)]
            assert list(form_sums(forms, q)) == \
                [form_sums_full(f, q) for f in forms], q

    @pytest.mark.parametrize("delta,q,error", [
        (QuadSurd(1, 1, 2, 5), 3, DeltaOutOfRange),
        (QuadSurd(3, 1, 1, 5), 3, IncompatiblePair),
        (QuadSurd(3, 1, 2, 5), 10 ** 4 + 1, BoundExceeded),
    ])
    def test_refuses_as_residue_table(self, delta, q, error, monkeypatch):
        # form_tables takes pairs that table_input has validated, so a
        # refusal comes before any form of the sweep is walked or summed
        with pytest.raises(error) as want:
            residue_table(delta, q)
        calls = []
        for name in ("form_counts", "form_sums"):
            monkeypatch.setattr(shintani, name,
                                lambda *args: calls.append(args))
        with pytest.raises(error) as got:
            form_tables([table_input(d, q)
                         for d in (QuadSurd(3, 1, 2, 5), delta)], q)
        assert str(got.value) == str(want.value)
        assert calls == []


class TestIdentity:
    @pytest.mark.parametrize("d", list(filter(is_squarefree, range(2, 60))))
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
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
    residue and the Bernoulli-polynomial Z(C, D) of each cell, summed
    termwise by char_sum and reduced once.  q <= 12 takes in composite
    moduli with annihilated cells and characters of order 4, 6 and 10."""

    @pytest.mark.parametrize("name,n", ENGINE_CASES)
    def test_every_character_mod_q_up_to_12(self, name, n):
        F, delta, b = _engine_case(name, n)
        mcf = minus_expand(delta)
        for q in range(1, 13):
            chars = enumerate_characters(q)
            cells = [(norm_residue(F, b, delta, C, D, q),
                      partial_zeta_zero_reference(q, C, D, mcf))
                     for C in range(1, q + 1) for D in range(1, q + 1)]
            for chi in chars:
                want = reduced(chi.order, char_sum(chi, cells))
                got = partial_hecke_L_zero(delta, chi)
                assert got.order == chi.order
                assert got.coeffs == want, (q, chi.identifier())


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
    """Call counts, not timings: each radicand is factored once."""

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
            with pytest.raises(NotSquarefree):
                check_radicand(12)
