"""Families, closed forms per cell, and the affine-in-n verification."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckezero import cfrac, linearity
from heckezero.cfrac import PlusCF, plus_to_minus
from heckezero.characters import DirichletCharacter, enumerate_characters
from heckezero.errors import (BoundExceeded, DeltaOutOfRange,
                              InsufficientSamples, NoAdmissibleN,
                              NotSquarefree, ParseError)
from heckezero.exact import QuadSurd, square_prime
from heckezero.kernels import zeta12_times
from heckezero.linearity import (BUILTIN_FAMILIES, N_SEARCH_LIMIT,
                                 FamilySpec, NConstraints, admissible,
                                 closed_form_cd, closed_form_chi,
                                 empty_class_reason, family_instance,
                                 family_minus_cf, family_spec_from_dict,
                                 hypothesis_check_norm, nu_sequence,
                                 residue_word, smallest_admissible_n,
                                 verify_linearity)
from heckezero.shintani import partial_zeta_zero, residue_table
from oracles import is_squarefree

YOKOI = BUILTIN_FAMILIES["yokoi"]
RDN = BUILTIN_FAMILIES["rd-n2p1"]
CHI3 = DirichletCharacter.from_identifier("q=3;gens=2:1")
# s = 2: delta(n) = (n + 2 + sqrt(n^2 + 2))/2, delta - 1 = [[n, 2n]]
PAIRED = family_spec_from_dict({
    "name": "paired", "f_coeffs": [2, 0, 1],
    "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 2},
    "acf": [{"alpha": 1, "beta": 0}, {"alpha": 2, "beta": 0}]})
# s = 3 and s = 4 digit functions; family_minus_cf and the closed forms read
# only acf, so the radicand and delta are Yokoi's placeholders
TRIPLE, QUAD = (
    FamilySpec(name, YOKOI.f_coeffs, YOKOI.u_coeffs, YOKOI.v_coeffs, YOKOI.w,
               acf, YOKOI.n_constraints)
    for name, acf in (("triple", ((1, 0), (2, 1), (1, 2))),
                      ("quad", ((1, 1), (1, 0), (2, 0), (1, 3)))))



def _family(name, f_coeffs, u_coeffs, v_coeffs, w, acf):
    return {
        "name": name, "f_coeffs": f_coeffs,
        "delta": {"u_coeffs": u_coeffs, "v_coeffs": v_coeffs, "w": w},
        "acf": [{"alpha": a, "beta": b} for a, b in acf]}


# families from the paper's list, as family files: f(n), delta(n) and the
# plus period of delta(n) - 1 in the comments
PAPER_FAMILY_FILES = {
    "chowla": _family(  # 4n^2 + 1, (2n + 1 + sqrt f)/2, [[2n - 1, 1, 1]]
        "chowla", [1, 0, 4], [1, 2], [1], 2, [(2, -1), (0, 1), (0, 1)]),
    "n2p2": _family(    # n^2 + 2, n + 1 + sqrt f, [[2n, n]]
        "n2p2", [2, 0, 1], [1, 1], [1], 1, [(2, 0), (1, 0)]),
    "n2m1": _family(    # n^2 - 1, n + sqrt f, [[2n - 2, 1]]
        "n2m1", [-1, 0, 1], [0, 1], [1], 1, [(2, -2), (0, 1)]),
    "n2m2": _family(    # n^2 - 2, n + sqrt f, [[2n - 2, 1, n - 2, 1]]
        "n2m2", [-2, 0, 1], [0, 1], [1], 1,
        [(2, -2), (0, 1), (1, -2), (0, 1)]),
}
CHOWLA, N2P2, N2M1, N2M2 = map(family_spec_from_dict,
                               PAPER_FAMILY_FILES.values())


def first_with_digits_at_least_q(spec, q, r):
    """The least admissible n = qk + r, k < 20, whose digits are all >= q."""
    return next(q * k + r for k, _ in admissible(spec, q, r, range(20))
                if min(spec.digits(q * k + r)) >= q)


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

    def test_equal_by_value(self):
        obj = {
            "name": "yokoi",
            "f_coeffs": [4, 0, 1],
            "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 2},
            "acf": [{"alpha": 1, "beta": 0}],
            "n_constraints": {"parity": "odd", "forbidden_residues": []},
        }
        assert family_spec_from_dict(obj) == YOKOI
        assert hash(family_spec_from_dict(obj)) == hash(YOKOI)
        assert YOKOI != RDN

    @pytest.mark.parametrize("w,acf,text", [
        (0, [{"alpha": 1, "beta": 0}], "w must be a positive integer"),
        (2, [], "need at least one digit function")], ids=["w0", "no-acf"])
    def test_checked_on_construction(self, w, acf, text):
        with pytest.raises(ParseError, match=text):
            family_spec_from_dict({
                "name": "x", "f_coeffs": [4, 0, 1],
                "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": w},
                "acf": acf})

    def test_malformed(self):
        with pytest.raises(ParseError):
            family_spec_from_dict({"name": "x"})
        with pytest.raises(ParseError):
            family_spec_from_dict({
                "name": "x", "f_coeffs": [], "delta": {},
                "acf": [], "n_constraints": {}})


class TestResidueWord:
    def test_yokoi_q3(self):
        # a_0(r) = r; gamma in [1, q], tau the quotient
        for r, g, t in ((1, 1, 0), (3, 3, 0), (0, 3, -1)):
            rw = residue_word(YOKOI, 3, r)
            assert (rw.gamma, rw.tau) == ((g,), (t,))

    def test_reconstruction(self):
        for spec in (YOKOI, RDN, PAIRED, TRIPLE, QUAD):
            for q in (3, 5):
                for r in range(q):
                    rw = residue_word(spec, q, r)
                    for i in range(spec.s):
                        assert 1 <= rw.gamma[i] <= q
                        assert spec.a(i, r) == rw.gamma[i] + rw.tau[i] * q
                    # the word is the certified conversion of gamma, and
                    # Gamma its special positions closed by its length
                    word = plus_to_minus(PlusCF((), rw.gamma))
                    assert rw.word == word
                    assert rw.Gamma == word.special_positions + (word.m,)


class TestNuSequence:
    def test_seed(self):
        X = nu_sequence(residue_word(YOKOI, 3, 1), 1, 1)
        assert X[:2] == [2, 1]      # 3 * nu_{-1} = 3 * (2/3), 3 * nu_0 = 1

    def test_matches_digit_orbit(self):
        # at an admissible n the nu orbit is the x orbit of the actual word
        from heckezero.shintani import yamamoto_sequence
        q, r = 3, 1
        rw = residue_word(YOKOI, q, r)
        mcf = family_minus_cf(YOKOI, first_with_digits_at_least_q(YOKOI, q, r))
        for C in range(1, q + 1):
            for D in range(1, q + 1):
                X = nu_sequence(rw, C, D)
                seq = yamamoto_sequence(q, C, D, mcf, steps=len(rw.Gamma))
                for i in range(min(len(rw.Gamma), 3)):
                    assert X[i + 1] == q * seq.x_at(i)


class TestClosedFormCD:
    def test_oracle_cell(self):
        A, B = closed_form_cd(YOKOI, residue_word(YOKOI, 3, 1), 1, 1)
        assert (A, B) == (-12, -36)     # 9 * (-4/3, -4)

    @pytest.mark.parametrize("spec", [YOKOI, PAIRED, TRIPLE, QUAD],
                             ids=lambda spec: f"s{spec.s}")
    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_every_word_with_digits_at_least_q(self, spec, q):
        # the closed forms are a property of the word: they hold at every
        # n = qk + r whose digits are >= q, admissible or not
        checked = 0
        for r in range(q):
            rw = residue_word(spec, q, r)
            words = {k: family_minus_cf(spec, q * k + r).period
                     for k in range(5)
                     if min(spec.digits(q * k + r)) >= q}
            assert len(words) >= 3
            for C in range(1, q + 1):
                for D in range(1, q + 1):
                    A, B = closed_form_cd(spec, rw, C, D)
                    for k, word in words.items():
                        assert A + k * B == zeta12_times(q, C, D, word)
                        checked += 1
        assert checked >= 3 * q ** 3

    @pytest.mark.parametrize("q", [3, 5])
    def test_matches_finite_differences(self, q):
        for r in range(q):
            for C in range(1, q + 1):
                for D in range(1, q + 1):
                    A, B = closed_form_cd(YOKOI, residue_word(YOKOI, q, r),
                                          C, D)
                    for k in (0, 1, 3):
                        n = q * k + r
                        if min(YOKOI.digits(n)) < q:
                            continue
                        z = partial_zeta_zero(q, C, D,
                                              family_minus_cf(YOKOI, n))
                        assert A + k * B == 12 * q * q * z

    def test_rd_family_cell(self):
        for r in range(3):
            for C in range(1, 4):
                for D in range(1, 4):
                    A, B = closed_form_cd(RDN, residue_word(RDN, 3, r), C, D)
                    for k in (2, 4):
                        n = 3 * k + r
                        z = partial_zeta_zero(3, C, D, family_minus_cf(RDN, n))
                        assert A + k * B == 12 * 9 * z


class TestClosedFormChi:
    def test_q3_quadratic(self):
        cf = closed_form_chi(YOKOI, CHI3, 1)
        # scaled pair q^2 * (A, B) summed with character weights
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
        rep = verify_linearity(YOKOI, CHI3, 1, range(0, 8))
        assert rep.affine_exact and rep.closed_form_match
        assert rep.hypothesis_check
        assert rep.intercept == rep.A_chi and rep.slope == rep.B_chi

    def test_rd_q3(self):
        rep = verify_linearity(RDN, CHI3, 1, range(0, 12))
        assert rep.affine_exact and rep.closed_form_match

    def test_order_independence(self):
        ks = [6, 0, 2, 4, 2]
        a = verify_linearity(YOKOI, CHI3, 1, ks)
        b = verify_linearity(YOKOI, CHI3, 1, sorted(set(ks)))
        assert a == b

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            verify_linearity(YOKOI, CHI3, 1, [0, 2])

    def test_insufficient_before_any_table(self, monkeypatch):
        # two members, n = 9901 and 9923 with digits >= 11, are too few:
        # refused before the residue tables are built
        chi = DirichletCharacter.from_identifier("q=11;gens=2:1")
        assert len(list(admissible(YOKOI, 11, 1, [900, 902]))) == 2
        tables = []
        monkeypatch.setattr(linearity, "step_tables",
                            lambda *args: tables.append(args))
        with pytest.raises(InsufficientSamples):
            verify_linearity(YOKOI, chi, 1, [900, 902])
        assert tables == []

    def test_long_word_refused_before_any_table(self, monkeypatch):
        # a member whose minus word would exceed WALK_DIGIT_BOUND is refused
        # as minus_word refuses it, from the plus digits alone: Yokoi's word
        # at n has n digits, and n = 55 is the first member above 50
        monkeypatch.setattr(cfrac, "WALK_DIGIT_BOUND", 50)
        tables = []
        monkeypatch.setattr(linearity, "step_tables",
                            lambda *args: tables.append(args))
        with pytest.raises(BoundExceeded,
                           match="^the minus word has 55 digits, over 50$"):
            verify_linearity(YOKOI, CHI3, 1, range(30))
        assert tables == []

    def test_skips_recorded(self):
        rep = verify_linearity(YOKOI, CHI3, 1, range(0, 8))
        assert set(rep.k_used) | set(rep.k_skipped) == set(range(8))
        # k = 1 gives n = 6, even: skipped
        assert 1 in rep.k_skipped

    def test_sample_budget(self, monkeypatch):
        # Yokoi's minus word at n has m = n digits, so the members used cost
        # 9 * sum(n) kernel steps at q = 3: that total runs, one step less
        # is refused before the residue tables are built
        rep = verify_linearity(YOKOI, CHI3, 1, range(8))
        steps = sum(9 * (3 * k + 1) for k in rep.k_used)
        monkeypatch.setattr(linearity, "KERNEL_STEP_BOUND", steps)
        assert verify_linearity(YOKOI, CHI3, 1, range(8)) == rep
        tables = []
        monkeypatch.setattr(linearity, "step_tables",
                            lambda *args: tables.append(args))
        monkeypatch.setattr(linearity, "KERNEL_STEP_BOUND", steps - 1)
        with pytest.raises(BoundExceeded):
            verify_linearity(YOKOI, CHI3, 1, range(8))
        assert tables == []


class TestResidueTables:
    """The paper's theorem on chi-free tables: at n = qk + r the L-value's
    residue table equals A + k B at every unit, (A, B) the closed-form
    table of (q, r).  The characters mod q span the functions on the
    units, so one check covers every chi mod q.  Members whose digits are
    below q are included; only the (q, r) without members are skipped."""

    @pytest.mark.parametrize("spec,qs,k_max,points", [
        (YOKOI, range(2, 12), 10, 290),
        (RDN, range(2, 12), 10, 290),
        (CHOWLA, (2, 3, 4, 5, 7), 8, 140),
        (N2P2, (2, 3, 4, 5, 7), 8, 119),
        (N2M1, (2, 3, 4, 5, 7), 8, 56),
        (N2M2, (2, 3, 4, 5, 7), 8, 145),
    ], ids=["yokoi", "rd-n2p1", "chowla", "n2p2", "n2m1", "n2m2"])
    def test_table_affine_in_k(self, spec, qs, k_max, points):
        checked = 0
        for q in qs:
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            for r in range(q):
                try:
                    cf = linearity.closed_form_table(spec, q, r)
                except NoAdmissibleN:
                    continue
                for k, delta in admissible(spec, q, r, range(k_max)):
                    table = residue_table(delta, q)
                    assert [table[a] for a in units] == \
                        [cf.A[a] + k * cf.B[a] for a in units], (q, r, k)
                    checked += 1
        assert checked == points


class TestEvenPeriod:
    """Both builtin families have s = 1; this one has s = 2, so L = s/2 and
    the block boundaries read a_{2l} while the blocks read a_{2l+1}."""

    def test_shape(self):
        assert PAIRED.s == 2
        assert family_instance(PAIRED, 1) == QuadSurd(3, 1, 2, 3)
        assert family_minus_cf(PAIRED, 3).period == (5, 2, 2, 2, 2, 2)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_cells_match_kernel(self, q):
        for r in range(q):
            words = {}
            for k in range(1, 12):      # a_0(qk + r) = qk + r >= q
                try:
                    family_instance(PAIRED, q * k + r)
                except NotSquarefree:
                    continue
                words[k] = list(family_minus_cf(PAIRED, q * k + r).period)
            assert len(words) >= 2
            for C in range(1, q + 1):
                for D in range(1, q + 1):
                    A, B = closed_form_cd(PAIRED,
                                          residue_word(PAIRED, q, r), C, D)
                    for k, word in words.items():
                        assert A + k * B == zeta12_times(q, C, D, word)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_linearity_every_character(self, q):
        for chi in enumerate_characters(q):
            if chi.order == 1:
                continue
            for r in range(q):
                rep = verify_linearity(PAIRED, chi, r, range(12))
                assert rep.affine_exact and rep.closed_form_match
                assert rep.hypothesis_check


class TestAdmissibility:
    def test_smallest(self):
        assert smallest_admissible_n(YOKOI, 3, 1)[0] == 1
        assert smallest_admissible_n(YOKOI, 3, 0) == (
            3, family_instance(YOKOI, 3))
        n = first_with_digits_at_least_q(YOKOI, 5, 1)
        assert n % 5 == 1 and n % 2 == 1 and n >= 5

    def test_walk_skips_n_below_one_first(self, monkeypatch):
        # n = -2 is skipped before any check, n = 4 fails the radicand
        seen = []
        orig = linearity.family_instance

        def counted(spec, n):
            seen.append(n)
            return orig(spec, n)

        monkeypatch.setattr(linearity, "family_instance", counted)
        members = list(admissible(YOKOI, 3, -2, range(4)))
        assert [k for k, _ in members] == [1, 3]       # n = 1 and n = 7
        assert members[0][1] == family_instance(YOKOI, 1)
        assert seen[:3] == [1, 4, 7]

    def test_smallest_member_built_once(self, monkeypatch):
        # the walk to the smallest admissible n = 7 mod 11 (k0 = 2, three
        # builds) hands its member on to the 2q + 2 = 24-member window
        seen = []
        orig = linearity.family_instance

        def counted(spec, n):
            seen.append(n)
            return orig(spec, n)

        monkeypatch.setattr(linearity, "family_instance", counted)
        linearity.closed_form_table(RDN, 11, 7)
        assert len(seen) == 26 and len(set(seen)) == 26
        seen.clear()
        chi = DirichletCharacter.from_identifier("q=11;gens=2:1")
        verify_linearity(RDN, chi, 7, range(10))
        assert len(seen) == 36

    @pytest.mark.parametrize("q, r", [(2, 0), (2, 2), (4, 0), (4, 2), (4, 6)])
    @pytest.mark.parametrize("spec", [YOKOI, RDN], ids=["yokoi", "rd-n2p1"])
    def test_even_class_refused_unfactored(self, spec, q, r):
        # both families admit odd n only, which no n = qk + r with q and r
        # even is, and the n constraints show it before a radicand is
        # factored
        square_prime.cache_clear()
        with pytest.raises(NoAdmissibleN, match="n constraints reject"):
            smallest_admissible_n(spec, q, r)
        assert square_prime.cache_info().misses == 0

    def test_square_radicand_class_refused_unfactored(self):
        # n^2 - 1 = (n - 1)(n + 1) is divisible by 8 at odd n, so n2m1 has
        # no member n = qk + r with q even and r odd
        square_prime.cache_clear()
        for q in (2, 4, 6, 8):
            for r in range(1, q, 2):
                with pytest.raises(NoAdmissibleN, match=r"2\^2 divides f"):
                    smallest_admissible_n(N2M1, q, r)
        assert square_prime.cache_info().misses == 0

    def test_checks_cost_at_most_the_walk(self):
        # n^2 + 49 is 49(k^2 + 1) at n = 7k, which 49 values of k show
        spec = YOKOI._replace(f_coeffs=(49, 0, 1))
        assert empty_class_reason(spec, 7, 0, 49) == \
            "7^2 divides f(n) for every such n"
        assert empty_class_reason(spec, 7, 0, 48) is None
        # n = 3k is forbidden; the n constraints have period 6, two values
        # of k
        spec = RDN._replace(n_constraints=NConstraints(
            forbidden_residues=((3, 0),)))
        assert empty_class_reason(spec, 3, 0, 2) == \
            "the family's n constraints reject every such n"
        assert empty_class_reason(spec, 3, 0, 1) is None
        assert empty_class_reason(spec, 3, 1, N_SEARCH_LIMIT) is None

    @pytest.mark.parametrize("spec", [YOKOI, RDN, CHOWLA, N2P2, N2M1, N2M2],
                             ids=lambda spec: spec.name)
    def test_member_classes_unchanged(self, spec):
        # the checks only ever refuse: a class with a member n <= 200 gets
        # the member the plain walk finds first
        for q in range(1, 13):
            for r in range(q):
                first = next(admissible(spec, q, r, range((200 - r) // q + 1)),
                             None)
                if first is None:
                    continue
                k, delta = first
                assert smallest_admissible_n(spec, q, r) == (q * k + r, delta)

    @settings(max_examples=300, deadline=None)
    @given(f_coeffs=st.lists(st.integers(-12, 12), min_size=1, max_size=3),
           parity=st.sampled_from([None, "odd", "even"]),
           forbidden=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 5)),
                              max_size=2),
           q=st.integers(1, 8), r=st.integers(-3, 10))
    # 4 divides n^2 - n at n = 0 and 1 but not at n = 2: at odd q the
    # residues mod 4 take four values of k, not two
    @example(f_coeffs=[0, -1, 1], parity=None, forbidden=[], q=1, r=0)
    @example(f_coeffs=[0, -1, 1], parity=None, forbidden=[], q=5, r=0)
    def test_refusal_sound(self, f_coeffs, parity, forbidden, q, r):
        # whatever the checks refuse, a walk over n <= 200 finds no n of the
        # class that passes the radicand and n-constraint checks, the two
        # family_instance makes before it builds delta(n)
        spec = RDN._replace(f_coeffs=tuple(f_coeffs), n_constraints=
                            NConstraints(parity, tuple(forbidden)))
        if empty_class_reason(spec, q, r, N_SEARCH_LIMIT) is not None:
            assert [n for n in range(r, 201, q)
                    if n >= 1 and spec.n_constraints.admits(n)
                    and spec.f(n) > 1 and is_squarefree(spec.f(n))] == []

    def test_hypothesis_check(self):
        assert hypothesis_check_norm(YOKOI, 3, 1, range(0, 8))
