"""Pair search, residue congruences, and the L-value factorization oracle."""

import math
from collections import Counter
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckezero import biro
from heckezero.biro import (SIEVE_WORK_BOUND, ConditionStarPair,
                            ResidueReport, condition_star_search,
                            factorization_oracle_check, residue_mod_p,
                            residue_reports, sieve_work, yokoi_intro_ab)
from heckezero.characters import (CycloElement, DirichletCharacter,
                                  ModPRealization, b1_table, chi_sum,
                                  chi_weights, enumerate_characters,
                                  modp_realizations, odd_primitive_characters)
from heckezero.cli import main
from heckezero.errors import BoundExceeded, NarrowClassNotOne, ParseError
from heckezero.linearity import BUILTIN_FAMILIES, closed_form_table
from heckezero.quadfield import class_numbers, field_discriminant, make_field
from oracles import (apply_realization, bernoulli_product_reference,
                     char_invariants, condition_star_search_reference)

YOKOI = BUILTIN_FAMILIES["yokoi"]
RDN = BUILTIN_FAMILIES["rd-n2p1"]
CHI3 = DirichletCharacter.from_identifier("q=3;gens=2:1")


def char_sum_a(chi: DirichletCharacter) -> CycloElement:
    """sum a*chi(a) over a = 1..q from the search's integer table."""
    return chi_sum(chi, b1_table(chi.modulus))


def _every_realization() -> list[ConditionStarPair]:
    """Every realization of every odd primitive chi, q in {5, 7}, at a few
    primes p, sorted by q like the search's pairs."""
    return [ConditionStarPair(q, p, chi, real, 0)
            for q in (5, 7) for chi in enumerate_characters(q)
            if char_invariants(chi) == ("odd", q)
            for p in (11, 13, 29, 31, 37)
            for real in modp_realizations(chi, p)]


class TestCharSum:
    def test_quadratic_mod3(self):
        assert char_sum_a(CHI3) == Fraction(-1)

    def test_quadratic_mod7(self):
        chi = DirichletCharacter.from_identifier("q=7;gens=3:3")
        assert char_sum_a(chi) == Fraction(-7)


class TestSearch:
    def test_frozen_5_5(self):
        pairs = condition_star_search(5, 5)
        assert len(pairs) == 2
        assert all(p.q == 5 and p.p == 5 for p in pairs)
        assert sorted(p.realization.zeta_image for p in pairs) == [2, 3]
        ids = {p.chi.identifier() for p in pairs}
        assert ids == {"q=5;gens=2:1", "q=5;gens=2:3"}

    def test_no_q3(self):
        pairs = condition_star_search(3, 13)
        assert pairs == []

    def test_frozen_7_7(self):
        # q = 7 contributes exactly three pairs, all at p = 7
        pairs = [p for p in condition_star_search(7, 13) if p.q == 7]
        frozen = {("q=7;gens=3:1", 7, 3),
                  ("q=7;gens=3:3", 7, 6),
                  ("q=7;gens=3:5", 7, 5)}
        assert {(p.chi.identifier(), p.p, p.realization.zeta_image)
                for p in pairs} == frozen

    def test_deterministic_order(self):
        a = condition_star_search(7, 13)
        b = condition_star_search(7, 13)
        assert a == b
        assert a == sorted(a, key=lambda pair: (
            pair.q, pair.p, pair.chi.identifier(),
            pair.realization.zeta_image))

    @pytest.mark.parametrize("p_max", [3, 13, 61, 211])
    def test_matches_reference(self, p_max):
        # the pairs, in order, of one image per realization and a sort on
        # identifier strings, at every odd q_max <= 45
        for q_max in range(3, 46, 2):
            assert condition_star_search(q_max, p_max) == \
                condition_star_search_reference(q_max, p_max), q_max

    def test_matches_reference_99_1009(self):
        pairs = condition_star_search(99, 1009)
        assert len(pairs) == 10861
        assert pairs == condition_star_search_reference(99, 1009)

    def test_kill_property(self):
        # every returned realization really sends q*B_{1,chi} to zero
        for p in condition_star_search(7, 13):
            assert apply_realization(p.realization, char_sum_a(p.chi)) == 0

    def test_bad_bounds(self):
        with pytest.raises(ParseError):
            condition_star_search(2, 5)

    def test_work_estimate(self):
        # desk-scale runs stay well inside the budget (test_cli checks the
        # refusals)
        assert sieve_work(45, 401) < SIEVE_WORK_BOUND // 10
        assert sieve_work(29, 61, residues=True) < SIEVE_WORK_BOUND // 4


ODD_PRIMITIVE = [chi for q in range(3, 46, 2)
                 for chi in odd_primitive_characters(q)]
PRIMES = biro._odd_primes(2000)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ODD_PRIMITIVE), st.data())
@example(CHI3, None)
@example(DirichletCharacter.from_identifier("q=7;gens=3:1"), None)
def test_orbit_identity(chi, data):
    # chi^a at h^b has the image of chi at h^(ab), for h of order o =
    # chi.order mod p = 1 (mod o) and a, b prime to o; without data the
    # first such p, every h and every a and b
    o, q = chi.order, chi.modulus
    primes = [p for p in PRIMES if p % o == 1]
    p = data.draw(st.sampled_from(primes)) if data else primes[0]
    hs = [real.zeta_image for real in modp_realizations(chi, p)]
    units = [a for a in range(1, o) if math.gcd(a, o) == 1]
    weights = chi_weights(chi, range(q))
    for h in [data.draw(st.sampled_from(hs))] if data else hs:
        for a in [data.draw(st.sampled_from(units))] if data else units:
            power = chi ** a
            assert power.order == o
            power_weights = chi_weights(power, range(q))
            for b in [data.draw(st.sampled_from(units))] if data else units:
                assert ModPRealization(p, o, pow(h, b, p)).image(
                    power_weights) == \
                    ModPRealization(p, o, pow(h, a * b, p)).image(weights)


@pytest.mark.parametrize("q_max, p_max, images, folds",
                         [(45, 61, 616, 43), (99, 1009, 21202, 133)])
def test_search_work(monkeypatch, q_max, p_max, images, folds):
    # one image per character and prime p = 1 mod its order, and one fold
    # per Galois orbit: 43 folds serve the 174 characters of odd q <= 45
    counts = {"image": 0, "fold": 0}
    image, fold = ModPRealization.image, biro.chi_weights

    def counted_image(self, weights):
        counts["image"] += 1
        return image(self, weights)

    def counted_fold(chi, table):
        counts["fold"] += 1
        return fold(chi, table)

    monkeypatch.setattr(ModPRealization, "image", counted_image)
    monkeypatch.setattr(biro, "chi_weights", counted_fold)
    condition_star_search(q_max, p_max)
    assert counts == {"image": images, "fold": folds}


class TestResidue:
    def test_all_indeterminate_at_5_5(self):
        # q = p = 5 collapses both coefficient images to 0 for every residue
        pairs = condition_star_search(5, 5)
        for r in range(5):
            table = closed_form_table(YOKOI, 5, r)
            for pair in pairs:
                rep = residue_mod_p(pair, r, table)
                assert rep.status == "indeterminate"
                assert rep.residue is None
                assert rep.A_image == 0 and rep.B_image == 0

    def test_report_fields(self):
        pair = condition_star_search(5, 5)[0]
        rep = residue_mod_p(pair, 1, closed_form_table(YOKOI, 5, 1))
        assert isinstance(rep, ResidueReport)
        assert rep.chi == pair.chi and rep.r == 1

    @pytest.mark.parametrize("spec", [YOKOI, RDN], ids=lambda s: s.name)
    def test_shared_tables_match_per_pair(self, spec):
        unshared = [residue_mod_p(pair, r, closed_form_table(spec, pair.q, r))
                    for pair in condition_star_search(11, 61)
                    for r in range(pair.q)]
        assert len(unshared) > 100
        assert residue_reports(spec, 11, 61) == unshared

    @pytest.mark.parametrize("spec", [YOKOI, RDN], ids=lambda s: s.name)
    def test_reports_on_reference_pairs(self, spec, monkeypatch):
        reports = residue_reports(spec, 11, 61)
        monkeypatch.setattr(biro, "condition_star_search",
                            condition_star_search_reference)
        assert residue_reports(spec, 11, 61) == reports

    @pytest.mark.parametrize("spec", [YOKOI, RDN], ids=lambda s: s.name)
    def test_shared_tables_every_realization(self, spec, monkeypatch):
        # the search's own pairs above give only indeterminate reports, so
        # feed every realization, killing or not, to see nonzero images;
        # they must also match the reduced chi-folds of closed_form_table
        pairs = _every_realization()
        monkeypatch.setattr(biro, "condition_star_search",
                            lambda q_max, p_max: pairs)
        shared = residue_reports(spec, 7, 37)
        assert shared == [
            residue_mod_p(pair, r, closed_form_table(spec, pair.q, r))
            for pair in pairs for r in range(pair.q)]
        assert {rep.status for rep in shared} >= {"determined", "vacuous"}
        tables = {}
        for rep in shared:
            q = rep.chi.modulus
            if (q, rep.r) not in tables:
                tables[q, rep.r] = closed_form_table(spec, q, rep.r)
            table = tables[q, rep.r]
            assert rep.A_image == apply_realization(
                rep.realization, chi_sum(rep.chi, table.A))
            assert rep.B_image == apply_realization(
                rep.realization, chi_sum(rep.chi, table.B))

    def test_empty_class_skipped(self):
        # forbidding n = 0 mod 5 empties the class 5k + 0 of Yokoi's family:
        # its two reports go, and the run goes on to q = 7
        spec = YOKOI._replace(forbidden=((2, 0), (5, 0)))
        want = [rep for rep in residue_reports(YOKOI, 7, 13)
                if (rep.chi.modulus, rep.r) != (5, 0)]
        assert len(want) == 29
        assert residue_reports(spec, 7, 13) == want

    def test_closed_form_table_builds(self, monkeypatch, capsys):
        # one table per (q, r) for all pairs of that q: q = 5 and q = 7
        # have pairs, so 5 + 7 tables
        orig = biro.closed_form_table
        calls = []

        def counted(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(biro, "closed_form_table", counted)
        assert main(["biro", "residues", "--family", "yokoi",
                     "--q-max", "7", "--p-max", "13"]) == 0
        capsys.readouterr()
        assert sorted(args[1:] for args in calls) == \
            [(5, r) for r in range(5)] + [(7, r) for r in range(7)]
        assert len(calls) == 5 + 7 == 12


class TestSieveDecides:
    """The search's own pairs at q = 47 and 51, p = 5, where the residue
    congruences first decide anything: every class of (47, zeta -> 4) has a
    determined residue, and 24 classes of two pairs at q = 51 are vacuous.
    The Yokoi members below 200 with h = h+ = 1 obey all of them."""

    MEMBERS = (1, 3, 5, 7, 13, 17)

    def test_members_obey_the_reports(self):
        assert all(class_numbers(make_field(YOKOI.f(n))) == (1, 1)
                   for n in self.MEMBERS)
        counts = {}
        for q, pairs in groupby(condition_star_search(51, 5),
                                key=lambda pair: pair.q):
            if q < 47:
                continue
            tables = [closed_form_table(YOKOI, q, r) for r in range(q)]
            for pair in pairs:
                reps = [residue_mod_p(pair, r, tables[r]) for r in range(q)]
                counts[pair.chi.identifier(), pair.realization.zeta_image] = \
                    Counter(rep.status for rep in reps)
                for n in self.MEMBERS:
                    rep = reps[n % q]
                    assert rep.status != "vacuous", (pair, n)
                    assert rep.status != "determined" or \
                        rep.residue == n % pair.p, (pair, n)
        assert counts["q=47;gens=5:23", 4] == {"determined": 47}
        assert counts["q=51;gens=35:1,37:12", 3]["vacuous"] == 24
        assert counts["q=51;gens=35:1,37:4", 2]["vacuous"] == 24


class TestOracle:
    def test_yokoi_n1(self):
        lhs, rhs, ok = factorization_oracle_check(YOKOI, 1, CHI3)
        assert ok and lhs == Fraction(2, 3) and rhs == Fraction(2, 3)

    def test_rd_n1(self):
        lhs, rhs, ok = factorization_oracle_check(RDN, 1, CHI3)
        assert ok and lhs == Fraction(2, 3)

    def test_trivial_character(self):
        triv = DirichletCharacter.from_identifier("q=1;gens=")
        lhs, rhs, ok = factorization_oracle_check(YOKOI, 1, triv)
        assert ok and lhs == 0 and rhs == 0

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 13, 17])
    def test_rhs_is_termwise_product(self, n):
        # the unit_product of the two b1 tables, folded once, against the
        # two Bernoulli numbers summed term by term and multiplied by
        # cyclic convolution: every chi mod q <= 12 at the Yokoi members
        # with h+ = 1, composite q and gcd(q, D) > 1 (D = 5 at n = 1)
        # included; the cone engine's value equals it at every one
        D = field_discriminant(n * n + 4)
        for q in range(1, 13):
            for chi in enumerate_characters(q):
                lhs, rhs, ok = factorization_oracle_check(YOKOI, n, chi)
                assert rhs.order == chi.order
                assert rhs.coeffs == bernoulli_product_reference(chi, D)
                assert ok and lhs == rhs

    def test_rejects_narrow_class(self):
        # find the first family member whose narrow class number exceeds 1
        # and check the gate fires on it
        from heckezero.linearity import family_instance
        from heckezero.quadfield import class_numbers, make_field
        for n in range(1, 60, 2):
            try:
                d = family_instance(YOKOI, n).d
            except Exception:
                continue
            if class_numbers(make_field(d))[1] != 1:
                with pytest.raises(NarrowClassNotOne):
                    factorization_oracle_check(YOKOI, n, CHI3)
                return
        pytest.skip("no small yokoi member with h+ > 1")


class TestIntroNormalization:
    def test_rho_constant(self):
        # the direct double sums are proportional to the closed-form pair
        # with the single factor 1/(12q), uniformly in r
        for q, chi in ((3, CHI3),
                       (5, DirichletCharacter.from_identifier("q=5;gens=2:1"))):
            for r in range(q):
                A, B, rho = yokoi_intro_ab(chi, r)
                if A == 0 and B == 0:
                    continue
                assert rho == Fraction(1, 12 * q)

    def test_cell_bound_refuses_before_double_sums(self):
        # q = 709 has 502,681 cells, over CELL_BOUND.  The double sums take
        # r * C at every C, so an r that refuses products shows that the
        # closed-form table refuses before they run
        class NoProducts(int):
            def __mul__(self, other):
                raise AssertionError("the double sums ran")

        chi = DirichletCharacter.from_identifier("q=709;gens=")
        with pytest.raises(BoundExceeded, match="^q\\^2 = 502681 closed-form "
                           "cells exceed 500000$"):
            yokoi_intro_ab(chi, NoProducts(1))

    def test_proportionality(self):
        # coordinates in Q(zeta_3): one factor 2 for both, no common
        # factor, and a zero reference coordinate against a nonzero one
        ref = ((1, 2), (0, 3))
        assert biro._proportionality(((2, 4), (0, 6)), ref) == 2
        assert biro._proportionality(((2, 4), (0, 9)), ref) is None
        assert biro._proportionality(((2, 4), (1, 6)), ref) is None


@pytest.mark.parametrize("spec", [YOKOI, RDN], ids=lambda s: s.name)
class TestEvenCharactersVanish:
    """Every residue report is indeterminate, because the closed forms of
    every even character vanish.  A counterexample to either test goes into
    the README."""

    def test_residue_reports_indeterminate(self, spec):
        reports = residue_reports(spec, 15, 2000)
        assert len(reports) == 412
        assert {rep.status for rep in reports} == {"indeterminate"}

    def test_closed_forms_zero(self, spec):
        # both families admit odd n only, so n = qk + r with q and r even
        # has no member and closed_form_table raises NoAdmissibleN there
        assert spec.forbidden == ((2, 0),)
        checked = skipped = 0
        for q in range(3, 16):
            for chi in enumerate_characters(q):
                if char_invariants(chi)[0] != "even":
                    continue
                for r in range(q):
                    if q % 2 == 0 and r % 2 == 0:
                        skipped += 1
                        continue
                    table = closed_form_table(spec, q, r)
                    assert chi_sum(chi, table.A) == 0 and \
                        chi_sum(chi, table.B) == 0, (chi.identifier(), r)
                    checked += 1
        assert (checked, skipped) == (310, 56)
