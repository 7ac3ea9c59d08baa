"""Families, closed forms per cell, and the affine-in-n verification."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckezero import cfrac, linearity
from heckezero.cfrac import PlusCF, minus_word, plus_to_minus
from heckezero.characters import (DirichletCharacter, chi_sum,
                                  enumerate_characters)
from heckezero.errors import (BoundExceeded, DeltaOutOfRange,
                              HeckeZeroError, InsufficientSamples,
                              NoAdmissibleN, NotSquarefree, ParseError)
from heckezero.exact import QuadSurd, square_prime
from heckezero.kernels import zeta12_times
from heckezero.quadfield import (field_discriminant, norm_form,
                                 primitive_form)
from heckezero.linearity import (BUILTIN_FAMILIES, N_SEARCH_LIMIT,
                                 FamilySpec, NConstraints, ResidueWord,
                                 admissible, class_norm_form,
                                 closed_form_cells, closed_form_table,
                                 empty_class_reason, family_instance,
                                 family_minus_cf, family_spec_from_dict,
                                 nu_sequence, residue_word,
                                 smallest_admissible_n, verify_linearity)
from heckezero.shintani import partial_zeta_zero, residue_table, table_input
import oracles
from oracles import (closed_form_cell_reference,
                     closed_form_table_reference, is_squarefree)

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
# two refusals of the closed forms: n^2 + 1 at even n with delta(n) =
# (n + 1 + sqrt f)/2 and [[n - 1, 1, 1]], whose norm form (1, n + 1, n/2)
# moves mod q = 4 with k (HypothesisFailed at r = 0 and 2); and at odd n
# with delta(n) = (n + 2 + sqrt f)/2 and [[n, 4n]], where [1, delta] is no
# ideal of the maximal order (IncompatiblePair)
EVEN_FAMILY_FILE = dict(
    _family("n2p1-even", [1, 0, 1], [1, 1], [1], 2,
            [(1, -1), (0, 1), (0, 1)]),
    n_constraints={"parity": "even"})
EVEN = family_spec_from_dict(EVEN_FAMILY_FILE)
ODD_UNIDEAL = family_spec_from_dict(dict(
    _family("n2p1-odd", [1, 0, 1], [2, 1], [1], 2, [(1, 0), (4, 0)]),
    n_constraints={"parity": "odd"}))
# rd-n2p1 at every n: its even members, such as delta(4) = 5 + sqrt 17, are
# no ideal bases, which a class of odd and even n meets (IncompatiblePair)
RDN_ANY_N = RDN._replace(name="rd-n2p1-any-n", n_constraints=NConstraints())
# rd-n2p1 with its digit 2n frozen at n = 1: delta(1) - 1 = 1 + sqrt 2 is
# [[2]], every later member is SpecInconsistent
RDN_DIGIT_2 = RDN._replace(name="rd-n2p1-digit-2", acf=((0, 2),))
# n^2 - 4 at every n, delta(n) = (n + sqrt f)/2 and [[n - 2, 1]]: 4 | f(n) at
# even n, so its members are odd n, as if a parity constraint said so
N2M4_ANY_N = FamilySpec("n2m4-any-n", (-4, 0, 1), (0, 1), (1,), 2,
                        ((1, -2), (0, 1)))


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
                    # the residue word is the certified conversion of gamma
                    word = minus_word(rw.gamma)
                    assert plus_to_minus(PlusCF((), rw.gamma)) == word
                    # one block per special digit: s of them for odd s,
                    # which reads the period twice, and s/2 for even s
                    assert len(word.special_positions) == (
                        spec.s if spec.s % 2 else spec.s // 2)
        assert ResidueWord._fields == ("q", "gamma", "tau")


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
        steps = len(minus_word(rw.gamma).special_positions) + 1
        for C in range(1, q + 1):
            for D in range(1, q + 1):
                X = nu_sequence(rw, C, D)
                seq = yamamoto_sequence(q, C, D, mcf, steps=steps)
                for i in range(min(steps, 3)):
                    assert X[i + 1] == q * seq.x_at(i)


class TestClosedFormCD:
    def test_oracle_cell(self):
        A, B = closed_form_cells(YOKOI, residue_word(YOKOI, 3, 1))[0][0]
        assert (A, B) == (-12, -36)     # 9 * (-4/3, -4)

    @pytest.mark.parametrize("spec", [YOKOI, PAIRED, TRIPLE, QUAD],
                             ids=lambda spec: f"s{spec.s}")
    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_every_word_with_digits_at_least_q(self, spec, q):
        # the closed forms are a property of the word: they hold at every
        # n = qk + r whose digits are >= q, admissible or not
        checked = 0
        for r in range(q):
            grid = closed_form_cells(spec, residue_word(spec, q, r))
            words = {k: family_minus_cf(spec, q * k + r).period
                     for k in range(5)
                     if min(spec.digits(q * k + r)) >= q}
            assert len(words) >= 3
            for C, row in enumerate(grid, 1):
                for D, (A, B) in enumerate(row, 1):
                    for k, word in words.items():
                        assert A + k * B == zeta12_times(q, C, D, word)
                        checked += 1
        assert checked >= 3 * q ** 3

    @pytest.mark.parametrize("q", [3, 5])
    def test_matches_finite_differences(self, q):
        for r in range(q):
            grid = closed_form_cells(YOKOI, residue_word(YOKOI, q, r))
            for C, row in enumerate(grid, 1):
                for D, (A, B) in enumerate(row, 1):
                    for k in (0, 1, 3):
                        n = q * k + r
                        if min(YOKOI.digits(n)) < q:
                            continue
                        z = partial_zeta_zero(q, C, D,
                                              family_minus_cf(YOKOI, n))
                        assert A + k * B == 12 * q * q * z

    def test_rd_family_cell(self):
        for r in range(3):
            grid = closed_form_cells(RDN, residue_word(RDN, 3, r))
            for C, row in enumerate(grid, 1):
                for D, (A, B) in enumerate(row, 1):
                    for k in (2, 4):
                        n = 3 * k + r
                        z = partial_zeta_zero(3, C, D, family_minus_cf(RDN, n))
                        assert A + k * B == 12 * 9 * z


class TestClosedFormOracle:
    """closed_form_table and closed_form_cells evaluate the formula from
    coefficient pairs per (q, r); the references in tests/oracles.py run
    the whole nu-sequence of every cell.  r runs over [-q, 2q), since the
    CLI takes any r and such r verify."""

    FAMILIES = [YOKOI, RDN, PAIRED, TRIPLE, QUAD, CHOWLA, N2P2, N2M1, N2M2,
                EVEN, ODD_UNIDEAL, RDN_ANY_N, RDN_DIGIT_2]

    @staticmethod
    def outcome(build, spec, q, r):
        try:
            return build(spec, q, r)
        except HeckeZeroError as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.name)
    def test_table_equals_per_cell_reference(self, spec):
        # every cell and every residue sum, and the same refusal wherever
        # one is raised; wherever the step bound does not refuse,
        # class_norm_form refuses as the table does or gives the form the
        # table sums by
        built, refused = 0, set()
        for q in range(1, 10):
            for r in range(-q, 2 * q):
                got = self.outcome(linearity.closed_form_table, spec, q, r)
                assert got == self.outcome(closed_form_table_reference,
                                           spec, q, r), (q, r)
                form = self.outcome(class_norm_form, spec, q, r)
                if isinstance(got, linearity.ClosedFormTable):
                    built += 1
                    u, v, w = form
                    A, B = [0] * q, [0] * q
                    for C, row in enumerate(got.cells, 1):
                        for D, (a, b) in enumerate(row, 1):
                            x = (u * C * C + v * C * D + w * D * D) % q
                            A[x] += a
                            B[x] += b
                    assert (tuple(A), tuple(B)) == (got.A, got.B), (q, r)
                else:
                    refused.add((q, r, got[0]))
                    if "closed-form steps exceed" not in got[1]:
                        assert form == got, (q, r)
        assert built + len(refused) == 135
        # TRIPLE and QUAD carry Yokoi's delta under other digits, so every
        # member they reach is SpecInconsistent, as is every member of
        # RDN_DIGIT_2 but n = 1; no member of ODD_UNIDEAL is an ideal basis
        assert (built == 0) == (spec in (TRIPLE, QUAD, ODD_UNIDEAL,
                                         RDN_DIGIT_2))
        if spec is EVEN:
            assert {(4, 0, "HypothesisFailed"),
                    (4, 2, "HypothesisFailed")} <= refused
        if spec in (ODD_UNIDEAL, RDN_ANY_N):
            assert (3, 1, "IncompatiblePair") in refused
        if spec is RDN_DIGIT_2:
            assert (2, 1, "SpecInconsistent") in refused

    def test_cell_bound(self, monkeypatch):
        # q^2 = 9 cells at CELL_BOUND are tabled; one below it both tables
        # refuse, before any member is built
        table = closed_form_table(YOKOI, 3, 1)
        for module in (linearity, oracles):
            monkeypatch.setattr(module, "CELL_BOUND", 9)
        assert closed_form_table(YOKOI, 3, 1) == table
        assert closed_form_table_reference(YOKOI, 3, 1) == table
        built = []
        monkeypatch.setattr(linearity, "family_instance",
                            lambda *args: built.append(args))
        for module in (linearity, oracles):
            monkeypatch.setattr(module, "CELL_BOUND", 8)
        want = ("BoundExceeded", "q^2 = 9 closed-form cells exceed 8")
        assert self.outcome(closed_form_table, YOKOI, 3, 1) == want
        assert self.outcome(closed_form_table_reference, YOKOI, 3, 1) == want
        assert built == []

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.name)
    def test_cells_equal_per_cell_reference(self, spec):
        # the whole grid, on every residue word, members or not
        for q in range(1, 10):
            for r in range(-q, 2 * q):
                rw = residue_word(spec, q, r)
                assert closed_form_cells(spec, rw) == [
                    [closed_form_cell_reference(spec, rw, C, D)
                     for D in range(1, q + 1)] for C in range(1, q + 1)]


class TestClosedFormChi:
    def test_q3_quadratic(self):
        table = closed_form_table(YOKOI, 3, 1)
        # the chi-fold of the scaled pair q^2 * (A, B) over 12 q^2 must
        # reproduce the direct L-values
        for k in (0, 2, 4):
            n = 3 * k + 1
            from heckezero.shintani import partial_hecke_L_zero
            lhs = partial_hecke_L_zero(family_instance(YOKOI, n), CHI3)
            rhs = chi_sum(CHI3, [a + k * b for a, b in zip(table.A, table.B)],
                          Fraction(1, 12 * 9))
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

    @pytest.mark.parametrize("member,verdicts", [
        (2, (False, True)), (0, (False, False))])
    def test_verdicts_can_fail(self, member, verdicts, monkeypatch):
        # 1 added at the unit 1 of one member's table: the third member
        # leaves the line the first two fit, which still matches the closed
        # forms; a moved first member moves the fitted line itself
        tables = linearity.form_tables

        def perturbed(inputs, q):
            out = [list(t) for t in tables(inputs, q)]
            out[member][1] += 1
            return out

        monkeypatch.setattr(linearity, "form_tables", perturbed)
        rep = verify_linearity(YOKOI, CHI3, 1, range(0, 8))
        assert rep.k_used == (2, 4, 6) and rep.hypothesis_check
        assert (rep.affine_exact, rep.closed_form_match) == verdicts

    def test_order_independence(self):
        ks = [6, 0, 2, 4, 2]
        a = verify_linearity(YOKOI, CHI3, 1, ks)
        b = verify_linearity(YOKOI, CHI3, 1, sorted(set(ks)))
        assert a == b

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            verify_linearity(YOKOI, CHI3, 1, [0, 2])

    @pytest.mark.parametrize("spec,used", [
        (YOKOI, 232), (RDN, 233), (PAIRED, 384), (N2P2, 384), (CHOWLA, 0),
        (N2M1, 0), (N2M2, 0)], ids=lambda x: getattr(x, "name", None))
    def test_words_from_declared_digits(self, spec, used, monkeypatch):
        # the (norm form, plus period) pairs read off the declared digits
        # of the members used are those of table_input, which expands
        # delta - 1 itself, at q in {3, 5, 7, 11}, every r and k <= 20; a
        # class with fewer than three members is refused before any
        # table.  chowla, n2m1 and n2m2 have a digit 1 at every n, so no
        # member is used
        seen = []
        monkeypatch.setattr(linearity, "form_tables",
                            lambda inputs, q: seen.append(inputs) or
                            [(0,) * q for _ in inputs])
        members = 0
        for q in (3, 5, 7, 11):
            chi = enumerate_characters(q)[-1]
            for r in range(q):
                want = [table_input(delta, q) for k, delta in
                        admissible(spec, q, r, range(21))
                        if min(spec.digits(q * k + r)) >= q]
                seen.clear()
                try:
                    verify_linearity(spec, chi, r, range(21))
                except InsufficientSamples:
                    assert len(want) < 3
                assert seen == ([want] if len(want) >= 3 else []), (q, r)
                members += len(want)
        assert members == used

    def test_insufficient_before_any_table(self, monkeypatch):
        # two members, n = 9901 and 9923 with digits >= 11, are too few:
        # refused before the residue tables are built
        chi = DirichletCharacter.from_identifier("q=11;gens=2:1")
        assert len(list(admissible(YOKOI, 11, 1, [900, 902]))) == 2
        tables = []
        monkeypatch.setattr(linearity, "form_tables",
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
        monkeypatch.setattr(linearity, "form_tables",
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
        monkeypatch.setattr(linearity, "form_tables",
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
            grid = closed_form_cells(PAIRED, residue_word(PAIRED, q, r))
            for C, row in enumerate(grid, 1):
                for D, (A, B) in enumerate(row, 1):
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

    def test_walk_starts_at_least_n(self, monkeypatch):
        # the walk asks for no k with qk + r < 1, so a class far below 0
        # costs what its least representative does
        first = []
        orig = linearity.admissible

        def recorded(spec, q, r, ks):
            first.append(q * ks[0] + r)
            return orig(spec, q, r, ks)

        monkeypatch.setattr(linearity, "admissible", recorded)
        for q, r in [(3, -10 ** 9), (3, -7), (5, 0), (11, -3), (3, 1)]:
            assert smallest_admissible_n(YOKOI, q, r) == \
                smallest_admissible_n(YOKOI, q, r % q)
        assert min(first) >= 1

    @pytest.mark.parametrize("q, r", [(3, 1), (5, 2), (7, 3), (11, 4)])
    @pytest.mark.parametrize("spec", [YOKOI, RDN], ids=["yokoi", "rd-n2p1"])
    def test_closed_forms_shift_with_r(self, spec, q, r):
        # n = qk + r = q(k + j) + (r - qj): the class of r - qj holds the
        # same members at k + j, so A + kB stays put, B with it, and A falls
        # by j*B, in every cell and every norm residue
        j = 10 ** 11
        near = linearity.closed_form_table(spec, q, r)
        far = linearity.closed_form_table(spec, q, r - q * j)
        assert far.B == near.B
        assert far.A == tuple(a - j * b for a, b in zip(near.A, near.B))
        assert far.cells == [[(a - j * b, b) for a, b in row]
                             for row in near.cells]

    def test_smallest_member_built_once(self, monkeypatch):
        # the walk to the smallest admissible n = 7 mod 11 (k0 = 2, three
        # builds) is all the table builds: the norm forms of the rest of
        # the class come from the family's polynomials
        seen = []
        orig = linearity.family_instance

        def counted(spec, n):
            seen.append(n)
            return orig(spec, n)

        monkeypatch.setattr(linearity, "family_instance", counted)
        linearity.closed_form_table(RDN, 11, 7)
        assert seen == [7, 18, 29]
        seen.clear()
        chi = DirichletCharacter.from_identifier("q=11;gens=2:1")
        verify_linearity(RDN, chi, 7, range(10))
        assert len(seen) == 13

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
        # Yokoi's members n = 3k + 1 share the form (1, 0, 1) mod 3
        forms = {tuple(c % 3 for c in norm_form(delta))
                 for _, delta in admissible(YOKOI, 3, 1, range(0, 8))}
        assert forms == {class_norm_form(YOKOI, 3, 1)} == {(1, 0, 1)}

    @settings(max_examples=300, deadline=None)
    @given(u=st.lists(st.integers(-9, 9), min_size=1, max_size=3),
           v=st.lists(st.integers(-9, 9), min_size=1, max_size=3),
           f=st.lists(st.integers(-9, 9), min_size=1, max_size=3),
           w=st.integers(1, 4), q=st.integers(1, 12), r=st.integers(-12, 24))
    # here k mod w does not decide the form mod q, k mod w^2 does
    @example(u=[-3, -3], v=[1], f=[-3, -3], w=2, q=2, r=1)
    def test_form_mod_q_reads_k_mod_w2(self, u, v, f, w, q, r):
        # the lemma of closed_form_table, on integers: the primitive
        # minimal polynomial of (u(n) + v(n) sqrt f(n))/w, reduced mod q at
        # n = qk + r, depends on k mod w^2 alone; for constant v, whether
        # its discriminant is field_discriminant(f(n)) depends on k mod
        # lcm(w^2, 4), wherever f(n) != 0
        def shape(k):
            n = q * k + r
            u_n, v_n, f_n = (sum(c * n ** i for i, c in enumerate(p))
                             for p in (u, v, f))
            a, b, c = primitive_form(u_n, v_n, w, f_n)
            return ((a % q, b % q, c % q),
                    b * b - 4 * a * c == field_discriminant(f_n), f_n)
        for k in range(w * w, 4 * w * w):
            assert shape(k)[0] == shape(k % (w * w))[0], k
        period = math.lcm(w * w, 4)
        for k in range(period, 4 * period):
            (_, ok, f_n), (_, ok0, f0) = shape(k), shape(k % period)
            assert len(v) > 1 or not f_n * f0 or ok == ok0, k

    @settings(max_examples=300, deadline=None)
    @given(u=st.lists(st.integers(-9, 9), min_size=1, max_size=3),
           v=st.lists(st.integers(-3, 3), min_size=1, max_size=2),
           f=st.lists(st.integers(-9, 9), min_size=1, max_size=3),
           w=st.integers(1, 4),
           acf=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        min_size=1, max_size=3))
    @example(u=[2, 1], v=[1], f=[4, 0, 1], w=2, acf=[(1, 0)])     # Yokoi
    @example(u=[1, 1], v=[1], f=[1, 0, 1], w=1, acf=[(0, 2)])     # n = 1
    def test_fits_is_a_polynomial_identity(self, u, v, f, w, acf):
        # the digit check of closed_form_table: fits(n) holds at fewer
        # than D integers n unless it holds at all of them
        spec = FamilySpec("random", tuple(f), tuple(u), tuple(v), w,
                          tuple(acf))
        D = spec.s + max(2 * len(u), 2 * len(v) + len(f))
        hits = sum(spec.fits(n) for n in range(-20, 20))
        assert hits == 40 or hits < D

    def test_period_reads_parity_not_forbidden_moduli(self, monkeypatch):
        # a forbidden modulus, however large, does not lengthen the period:
        # at q = 3 the n of M = 3 lcm(1, 4) = 12 are 1, 4, 7 and 10, and
        # ideal_form reads the odd ones, 1 and 7, the forbidden 7 included
        # since its modulus does not divide M
        seen = []
        orig = linearity.ideal_form

        def counted(a, b, c, d):
            seen.append(d)
            return orig(a, b, c, d)

        monkeypatch.setattr(linearity, "ideal_form", counted)
        spec = RDN._replace(
            n_constraints=NConstraints("odd", ((10 ** 9 + 7, 7),)))
        assert linearity.closed_form_table(spec, 3, 1) == \
            linearity.closed_form_table(RDN, 3, 1)
        assert seen == [RDN.f(1), RDN.f(7)] * 2

    def test_moving_v_refused(self):
        # v(n) = n: delta(1) = 2 + sqrt 2 is rd-n2p1's, but 2wv/g, which an
        # ideal basis holds at 1 or 2, grows with n; no other odd n up to
        # the search limit is a member to name
        spec = RDN._replace(v_coeffs=(0, 1))
        with pytest.raises(HeckeZeroError, match=r"v\(n\) moves") as exc:
            linearity.closed_form_table(spec, 2, 1)
        assert type(exc.value).__name__ == "IncompatiblePair"

    @pytest.mark.parametrize("q, r", [(3, 1), (3, 2), (4, 1), (5, 4)])
    def test_period_skips_forbidden_classes(self, q, r):
        # n = 0 mod 2 forbidden says what parity "odd" says, and 2 divides
        # M, so the even n of the period, no ideal bases here, are skipped
        spec = RDN._replace(n_constraints=NConstraints(None, ((2, 0),)))
        assert linearity.closed_form_table(spec, q, r) == \
            linearity.closed_form_table(RDN, q, r)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_period_skips_classes_without_members(self, q, monkeypatch):
        # 4 | f(n) at every even n of n^2 - 4, so ideal_form reads odd n
        # only and the tables are those of the family with parity "odd".
        # At q = 1 the 2q + 2 n from the smallest member, 5 to 8, hold one
        # member (45 = f(7) is not squarefree): too few for the sampled
        # check of closed_form_table_reference, none too few for the period
        seen = []
        orig = linearity.ideal_form

        def counted(a, b, c, d):
            seen.append(a)                  # u(n) = n
            return orig(a, b, c, d)

        monkeypatch.setattr(linearity, "ideal_form", counted)
        odd = N2M4_ANY_N._replace(n_constraints=NConstraints("odd"))
        for r in range(1, 2 * q, 2 if q % 2 == 0 else 1):
            assert linearity.closed_form_table(N2M4_ANY_N, q, r) == \
                linearity.closed_form_table(odd, q, r)
        assert seen and all(n % 2 == 1 for n in seen)
