"""Plus/minus continued fractions: expansion, conversion, evaluation."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heckezero import cfrac
from heckezero.acceptance import delta_sequence
from heckezero.cfrac import (MinusCF, PlusCF, evaluate_periodic,
                             fixes_plus_word, minus_expand, minus_length,
                             minus_word, plus_expand, plus_to_minus,
                             surd_walk)
from heckezero.errors import (DegenerateWord, InternalInvariantError,
                              RationalInput)
from heckezero.exact import QuadSurd
from heckezero.quadfield import make_field
from oracles import is_squarefree, surd_ceil, surd_floor, surd_walk_by_table


def reference_walk(x, minus):
    """The walk over complete quotients in QuadSurd arithmetic: digits by
    surd_floor/surd_ceil, the period closed at the first repeated quotient."""
    seen, digits = {}, []
    while x not in seen:
        seen[x] = len(digits)
        k = surd_ceil(x) if minus else surd_floor(x)
        digits.append(k)
        x = (k - x).inverse() if minus else (x - k).inverse()
    j = seen[x]
    return tuple(digits[:j]), tuple(digits[j:]), x


class TestSurdWalk:
    # the reference runs QuadSurd arithmetic over periods of up to a few
    # hundred digits, which can take longer than Hypothesis's deadline
    @given(st.integers(-40, 40), st.integers(-9, 9).filter(bool),
           st.integers(-12, 12).filter(bool),
           st.sampled_from([2, 3, 5, 6, 7, 13, 15, 29, 53, 229]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_quadsurd_reference(self, a, b, c, d, minus):
        x = QuadSurd(a, b, c, d)
        assert surd_walk(x, minus) == reference_walk(x, minus)

    # integer states make the table walk cheap enough for periods of
    # thousands of digits; these bounds keep every period under a few 10^5
    @given(st.integers(-1000, 1000), st.integers(-20, 20).filter(bool),
           st.integers(-50, 50).filter(bool),
           st.sampled_from([2, 3, 5, 6, 7, 13, 15, 29, 53, 229, 1009]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_period_starts_at_first_reduced_state(self, a, b, c, d, minus):
        x = QuadSurd(a, b, c, d)
        assert surd_walk(x, minus) == surd_walk_by_table(x, minus)

    def test_fundamental_unit_matches_reference(self):
        # eps = m10*y + m11 from the plus period of omega folded at its
        # start y, normalized to the unit > 1
        for d in range(2, 500):
            if not is_squarefree(d):
                continue
            F = make_field(d)
            _, period, y = reference_walk(F.omega, minus=False)
            m00, m01, m10, m11 = 1, 0, 0, 1
            for a in period:
                m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
            eps = y * m10 + m11
            if eps < 0:
                eps = -eps
            if eps < 1:
                eps = eps.inverse() * (-1) ** len(period)
            assert F.fund_unit == eps, d
            assert F.fund_unit_norm == (-1) ** len(period), d

    def test_minus_expand_builds_constant_surds(self, monkeypatch):
        # Yokoi delta(n) = (n + 2 + sqrt(n^2 + 4))/2 has a minus word of n
        # digits; the integer walk builds only the tail, whatever n is
        built = []
        init = QuadSurd.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        counts = []
        for n in (7, 701):
            delta = QuadSurd(n + 2, 1, 2, n * n + 4)
            built.clear()
            monkeypatch.setattr(QuadSurd, "__init__", counted)
            mcf = minus_expand(delta)
            monkeypatch.undo()
            assert mcf.m == n and not mcf.preperiod
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2

    def test_rejects_rational(self):
        for minus in (False, True):
            with pytest.raises(RationalInput):
                surd_walk(QuadSurd(3, 0, 2, 5), minus)


class TestPlusExpand:
    def test_golden_ratio(self):
        phi = QuadSurd(1, 1, 2, 5)
        p = plus_expand(phi)
        assert p.preperiod == () and p.period == (1,)

    def test_sqrt2(self):
        p = plus_expand(QuadSurd.sqrt(2))
        assert p.preperiod == (1,) and p.period == (2,)

    def test_rejects_rational(self):
        with pytest.raises(RationalInput):
            plus_expand(QuadSurd(3, 0, 2, 5))

    @given(st.integers(-9, 9), st.integers(1, 9), st.integers(1, 6),
           st.sampled_from([2, 3, 5, 13, 15, 29]))
    @settings(max_examples=40)
    def test_round_trip_purely_periodic(self, a, b, c, d):
        x = QuadSurd(a, b, c, d)
        p = plus_expand(x)
        if not p.preperiod:
            assert evaluate_periodic(p) == x


def primitive(word: tuple[int, ...]) -> bool:
    """Whether word equals none of its nontrivial rotations."""
    return all(word[i:] + word[:i] != word for i in range(1, len(word)))


class TestFixesPlusWord:
    """The fixed-point identity that family_instance checks, against the
    expansion: x is reduced, the value of a primitive period, and the word
    is that period rotated, with digits bumped and perhaps one appended."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
           st.integers(0, 5), st.lists(st.integers(-2, 2), max_size=6),
           st.lists(st.integers(1, 9), max_size=1))
    @example([1, 2], 0, [], [])             # the true period
    @example([1, 2], 1, [], [])             # its rotation
    @example([3, 1, 2], 2, [], [])
    @example([1, 2], 0, [0, 1], [])         # a perturbed digit
    @example([2, 5], 0, [], [2])            # a digit appended
    @example([1], 0, [1], [4])              # (2, 4): the rational part holds
    def test_matches_expansion(self, period, shift, bumps, extra):
        period = tuple(period)
        assume(primitive(period))
        x = evaluate_periodic(PlusCF((), period))
        pcf = plus_expand(x)
        assert pcf.preperiod == ()              # x is reduced
        s = shift % len(period)
        word = period[s:] + period[:s]
        word = tuple(max(1, a + b) for a, b in
                     zip(word, bumps + [0] * len(word))) + tuple(extra)
        assume(primitive(word))
        assert fixes_plus_word(word, x.a, x.b, x.c, x.d) == \
            (pcf.period == word)


class TestMinusExpand:
    def test_known_words(self):
        assert minus_expand(QuadSurd(3, 1, 2, 5)).period == (3,)
        assert minus_expand(QuadSurd(3, 1, 2, 5)).preperiod == ()
        m = minus_expand(QuadSurd(2, 1, 1, 2))
        assert m.preperiod == () and m.period == (4, 2)

    def test_digits_at_least_two(self):
        for d in (2, 3, 5, 13, 15, 29):
            F = make_field(d)
            m = minus_expand(F.tp_fund_unit)
            assert all(b >= 2 for b in m.period)
            assert any(b >= 3 for b in m.period)


class TestPlusToMinus:
    def test_conversion_word(self):
        m = plus_to_minus(PlusCF((), (2, 3)))
        assert m.period == (4, 2, 2)

    def test_words_equal_by_value(self):
        assert PlusCF((), [2, 3]) == PlusCF((), (2, 3))
        assert PlusCF((1,), (2, 3)) != PlusCF((), (2, 3))
        assert MinusCF((), [3]) == MinusCF((), (3,))
        # the special positions count
        assert minus_word((2, 3)) != MinusCF((), (4, 2, 2))

    def test_special_positions(self):
        m = plus_to_minus(PlusCF((), (2, 3)))
        assert m.special_positions == (0,)
        assert m.period[0] > 2 and all(b == 2 for b in m.period[1:])

    def test_degenerate_all_twos(self):
        with pytest.raises(DegenerateWord):
            evaluate_periodic(MinusCF((), (2,)))

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_agrees_with_direct_expansion(self, word):
        if len(word) % 2 == 1:
            word = word + word
        x = evaluate_periodic(PlusCF((), tuple(word)))
        p = plus_expand(x)
        if p.preperiod:
            return
        try:
            m1 = plus_to_minus(p)
        except DegenerateWord:
            return
        m2 = minus_expand(x + 1)
        assert m1.period == m2.period
        assert minus_word(p.period) == m1


    @pytest.mark.parametrize("plus", [(2, 3), (1, 1, 4),
                                      tuple(i % 9 + 1 for i in range(121))],
                             ids=["s2", "s3", "s121"])
    def test_certificate_catches_one_wrong_digit(self, plus, monkeypatch):
        right = cfrac.minus_word

        def wrong(a):
            w = right(a)
            i = len(w.period) // 2
            return MinusCF((), w.period[:i] + (w.period[i] + 1,)
                           + w.period[i + 1:], w.special_positions)

        assert plus_to_minus(PlusCF((), plus)) == right(plus)
        monkeypatch.setattr(cfrac, "minus_word", wrong)
        with pytest.raises(InternalInvariantError):
            plus_to_minus(PlusCF((), plus))


class TestPeriodBlocks:
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=9))
    @example([1])
    @example([12, 1, 1])
    @settings(max_examples=100)
    def test_special_digits_at_the_cumulative_runs(self, a):
        a = tuple(a)
        word = minus_word(a)
        assert minus_length(a) == len(word.period)
        # an odd period is read twice; the special digits are a_0 + 2,
        # a_2 + 2, ... of that reading and the runs a_1, a_3, ... end
        # each block
        read = a + a if len(a) % 2 else a
        starts = [sum(read[1:2 * l:2]) for l in range(len(read) // 2)]
        assert [p for p, b in enumerate(word.period) if b > 2] == starts
        assert [word.period[p] for p in starts] == [x + 2 for x in read[::2]]
        assert word.special_positions == tuple(starts)
        assert plus_to_minus(PlusCF((), a)) == word


class TestDeltaSequence:
    @pytest.mark.parametrize("d", [2, 3, 5, 13, 15, 29])
    def test_recursion_and_range(self, d):
        # each rotation e_i satisfies e_i = b_i - 1/e_{i+1}, stays reduced
        F = make_field(d)
        mcf = minus_expand(F.tp_fund_unit)
        m = mcf.m
        rots = [evaluate_periodic(mcf.rotated(i)) for i in range(m + 1)]
        for i in range(m):
            assert rots[i] == mcf.period[i] - rots[i + 1].inverse()
            assert rots[i] > 1 and 0 < rots[i].conj() < 1
        assert rots[m] == rots[0]

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 15, 29])
    def test_unit_product(self, d):
        F = make_field(d)
        mcf = minus_expand(F.tp_fund_unit)
        ds = delta_sequence(F, mcf)
        assert len(ds.deltas) == mcf.m
        prod = QuadSurd.from_rational(1, d)
        for di in ds.deltas:
            prod = prod * di
        assert prod == F.tp_fund_unit
        assert ds.A[0] == QuadSurd.from_rational(1, d)
        assert ds.A[0] / ds.A[-1] == F.tp_fund_unit


class TestEvaluatePeriodic:
    def test_plus_fixed_point(self):
        x = evaluate_periodic(PlusCF((), (2, 3)))
        # x = 2 + 1/(3 + 1/x) -> 3x^2 - 6x - 2 = 0 -> x = 1 + sqrt(15)/3
        assert x == QuadSurd(3, 1, 3, 15)

    def test_minus_fixed_point(self):
        assert evaluate_periodic(MinusCF((), (3,))) == QuadSurd(3, 1, 2, 5)

    def test_preperiod_unfolds(self):
        # 1 + 1/x for the ((2,3)) fixed point x
        x = evaluate_periodic(PlusCF((), (2, 3)))
        y = evaluate_periodic(PlusCF((1,), (2, 3)))
        assert y == 1 + x.inverse()

    @given(st.lists(st.integers(2, 7), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_minus_round_trip(self, word):
        if all(b == 2 for b in word):
            return
        x = evaluate_periodic(MinusCF((), tuple(word)))
        m = minus_expand(x)
        assert m.preperiod == ()
        assert evaluate_periodic(m) == x
        # the expansion recovers the primitive cyclic word
        k = len(m.period)
        assert len(word) % k == 0
        assert tuple(word) == m.period * (len(word) // k)
