"""The cone engine: digit orbits, per-cell zeta values, L-values at s=0."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckezero import exact, shintani
from heckezero.cfrac import MinusCF, minus_expand
from heckezero.characters import (DirichletCharacter, chi_weights,
                                  enumerate_characters, gen_bernoulli_b1)
from heckezero.errors import (BoundExceeded, DeltaOutOfRange,
                              IncompatiblePair, InternalInvariantError,
                              NotSquarefree)
from heckezero.exact import CycloElement, QuadSurd, cyclo_from_buckets
from heckezero.kernels import zeta12_times
from heckezero.linearity import BUILTIN_FAMILIES, admissible, family_instance
from heckezero.quadfield import (check_radicand, class_numbers,
                                 field_discriminant, make_field, norm_form)
from heckezero.shintani import (YamamotoSeq, check_delta_hypotheses,
                                fold_step_counts, lattice_unit_order,
                                partial_hecke_L_zero, partial_zeta_zero,
                                residue_table, step_counts, step_tables,
                                yamamoto_identity_residual, yamamoto_sequence)
from oracles import (IdealLattice, char_eval, ideal_inverse, is_squarefree,
                     kronecker, minus_cycles, norm_residue, orbit_shift_check,
                     partial_zeta_zero_reference)

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
        assert gen_bernoulli_b1(CHI3) == Fraction(-1, 3)
        acc = CycloElement(CHI3.order, ())
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
        # every cycle constant.  One step_tables call per (d, q) over the
        # deltas of every cycle gives the same tables; in 501 of the 546
        # calls the deltas have several norm forms mod q, so a sum shared
        # across forms would show
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
                want = [(chi, gen_bernoulli_b1(chi) * gen_bernoulli_b1(chi, D))
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
                            assert cyclo_from_buckets(
                                chi.order, chi_weights(chi, table),
                                Fraction(1, 12 * q * q)) == value, (d, q)
                            products += 1
                    assert len(tables) == 1, (d, q, cycle)
                    cycles_checked += 1
                    mixed += len(coprime) == 2
                assert step_tables(deltas, q) == field_tables, (d, q)
                mixed_forms += len({tuple(c % q for c in norm_form(delta))
                                    for delta in deltas}) > 1
        assert (fields, cycles_checked, mixed, not_coprime, products,
                mixed_forms) == (91, 1374, 474, 1250, 276, 501)


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


_WORDS = st.lists(st.integers(2, 30), min_size=1, max_size=60).map(tuple)
_FORMS = st.tuples(*[st.integers(-30, 30)] * 3)


class TestStepTables:
    """The step-matrix tables against the per-cell kernel: on any word and
    any quadratic form, and on the reduced deltas of every narrow class
    (TestMinusCycles)."""

    @settings(max_examples=200, deadline=None)
    @given(q=st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12]),
           members=st.lists(st.tuples(_FORMS, _WORDS), min_size=1,
                            max_size=3))
    # two forms that differ mod 5 and a third equal to the first mod 5
    @example(q=5, members=[((1, 1, -1), (3,)), ((1, 0, 2), (4, 2, 2)),
                           ((6, -4, 4), (2, 5))])
    def test_fold_matches_kernel(self, q, members):
        counts = [(form, step_counts(word, q)) for form, word in members]
        for (_, word), (_, c) in zip(members, counts):
            assert sum(n for n, _ in c.values()) == len(word)
        assert fold_step_counts(counts, q) == \
            [_kernel_table(q, form, word) for form, word in members]

    def test_one_matrix_per_pass(self, monkeypatch):
        # the cell sums held at once do not change the tables
        deltas = [delta for _, delta in admissible(
            BUILTIN_FAMILIES["yokoi"], 7, 3, range(6))]
        want = [residue_table(delta, 7) for delta in deltas]
        monkeypatch.setattr(shintani, "SUMS_HELD", 1)
        assert step_tables(deltas, 7) == want

    @pytest.mark.parametrize("delta,q,error", [
        (QuadSurd(1, 1, 2, 5), 3, DeltaOutOfRange),
        (QuadSurd(3, 1, 1, 5), 3, IncompatiblePair),
        (QuadSurd(3, 1, 2, 5), 10 ** 4 + 1, BoundExceeded),
    ])
    def test_refuses_as_residue_table(self, delta, q, error):
        with pytest.raises(error) as want:
            residue_table(delta, q)
        with pytest.raises(error) as got:
            step_tables([QuadSurd(3, 1, 2, 5), delta], q)
        assert str(got.value) == str(want.value)


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
        for q in range(1, 13):
            chars = enumerate_characters(q)
            cells = [(norm_residue(F, b, delta, C, D, q),
                      partial_zeta_zero_reference(q, C, D, mcf))
                     for C in range(1, q + 1) for D in range(1, q + 1)]
            for chi in chars:
                want = CycloElement(chi.order, ())
                for res, z in cells:
                    val = char_eval(chi, res)
                    if val != 0:
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
