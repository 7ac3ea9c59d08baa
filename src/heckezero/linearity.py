"""Parametrized families of fields and the linearity machinery: instance
construction and the walk over admissible members, the residue word
(gamma, tau, Gamma and its minus word), the nu-sequence, per-cell
closed-form coefficients, their character assembly, and the verifier that
pits the closed forms against the direct engine.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .cfrac import (MinusCF, PlusCF, minus_length, minus_word, plus_expand,
                    plus_to_minus)
from .characters import DirichletCharacter, chi_weights
from .errors import (BoundExceeded, CFMismatch, DeltaOutOfRange,
                     HypothesisFailed, InsufficientSamples, NoAdmissibleN,
                     NotSquarefree, ParseError)
from .exact import (CycloElement, QuadSurd, cyclo_from_buckets, factorize,
                    residue_1q)
from .kernels import KERNEL_STEP_BOUND
from .quadfield import check_radicand, norm_form
from .shintani import check_delta_hypotheses, step_tables

N_SEARCH_LIMIT = 10_000


class NConstraints(NamedTuple):
    """Admissibility filters on the family parameter n."""

    parity: str | None = None          # "odd", "even" or None
    forbidden_residues: tuple[tuple[int, int], ...] = ()

    def admits(self, n: int) -> bool:
        if n < 1:
            return False
        if self.parity == "odd" and n % 2 == 0:
            return False
        if self.parity == "even" and n % 2 == 1:
            return False
        return all(n % m != r % m for m, r in self.forbidden_residues)


class FamilySpec(NamedTuple):
    """A family K_n with f(n) under the radical, delta(n) = (u(n)+v(n)sqrt(f))/w,
    and plus continued fraction delta(n)-1 = [[a_0(n), ..., a_{s-1}(n)]] with
    a_i(n) = alpha_i*n + beta_i.  w >= 1 and acf is not empty, as
    family_spec_from_dict checks.
    """

    name: str
    f_coeffs: tuple[int, ...]
    u_coeffs: tuple[int, ...]
    v_coeffs: tuple[int, ...]
    w: int
    acf: tuple[tuple[int, int], ...]
    n_constraints: NConstraints = NConstraints()

    @property
    def s(self) -> int:
        return len(self.acf)

    def f(self, n: int) -> int:
        return _poly(self.f_coeffs, n)

    def a(self, i: int, n: int) -> int:
        alpha, beta = self.acf[i % self.s]
        return alpha * n + beta

    def alpha(self, i: int) -> int:
        return self.acf[i % self.s][0]

    def digits(self, n: int) -> tuple[int, ...]:
        """The plus period (a_0(n), ..., a_{s-1}(n))."""
        return tuple(alpha * n + beta for alpha, beta in self.acf)


def _poly(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


BUILTIN_FAMILIES = {
    "yokoi": FamilySpec(
        name="yokoi", f_coeffs=(4, 0, 1),
        u_coeffs=(2, 1), v_coeffs=(1,), w=2,
        acf=((1, 0),), n_constraints=NConstraints(parity="odd")),
    "rd-n2p1": FamilySpec(
        name="rd-n2p1", f_coeffs=(1, 0, 1),
        u_coeffs=(1, 1), v_coeffs=(1,), w=1,
        acf=((2, 0),), n_constraints=NConstraints(parity="odd")),
}


def family_spec_from_dict(obj) -> FamilySpec:
    """Parse and check the JSON object form {name, f_coeffs, delta: {u_coeffs,
    v_coeffs, w}, acf: [{alpha, beta}, ...], n_constraints: {parity,
    forbidden_residues}}, n_constraints and its fields optional.  Every
    field is checked for shape, type and range here; a bad one is a
    ParseError.
    """
    top = _object(obj, "a family description")
    delta = _object(_field(top, "delta"), "delta")
    nc = _object(top.get("n_constraints", {}), "n_constraints")
    name = _field(top, "name")
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {type(name).__name__}")
    w = _integer(_field(delta, "w"), "w")
    if w < 1:
        raise ParseError(f"w must be a positive integer, got {w}")
    acf = tuple((_integer(_field(p, "alpha"), "alpha"),
                 _integer(_field(p, "beta"), "beta"))
                for p in (_object(e, "an acf entry")
                          for e in _list(_field(top, "acf"), "acf")))
    if not acf:
        raise ParseError("acf: need at least one digit function")
    parity = nc.get("parity")
    if parity not in (None, "odd", "even"):
        raise ParseError(f'parity must be "odd" or "even", '
                         f'got {reprlib.repr(parity)}')
    forbidden = tuple(_integers(pair, "a forbidden residue pair") for pair in
                      _list(nc.get("forbidden_residues", []),
                            "forbidden_residues"))
    for pair in forbidden:
        if len(pair) != 2 or pair[0] < 1:
            raise ParseError(f"forbidden residue {list(pair)} must be "
                             f"[m, r] with modulus m >= 1")
    return FamilySpec(
        name, _integers(_field(top, "f_coeffs"), "f_coeffs"),
        _integers(_field(delta, "u_coeffs"), "u_coeffs"),
        _integers(_field(delta, "v_coeffs"), "v_coeffs"), w, acf,
        NConstraints(parity, forbidden))


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ParseError(f"{what} must be an object, got {type(x).__name__}")
    return x


def _field(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"bad family description: no {key!r}")
    return obj[key]


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{what} must be a list, got {type(x).__name__}")
    return x


def _integer(x, what: str) -> int:
    # bool is a subclass of int; JSON true is not a coefficient
    if type(x) is not int:
        raise ParseError(f"{what} must be an integer, got {reprlib.repr(x)}")
    return x


def _integers(x, what: str) -> tuple[int, ...]:
    return tuple(_integer(c, what) for c in _list(x, what))


def family_instance(spec: FamilySpec, n: int) -> QuadSurd:
    """Instantiate K_n as delta(n), checked against the family's declared
    radicand, n constraints, reducedness and plus digits.  An n whose
    declared period is degenerate (a digit below 1, or a power of a shorter
    word) is not a member.

    delta(n) is all the L-value needs: the field is Q(sqrt(delta.d)) and
    b_n = [1, delta(n)]^{-1}, whose norm form norm_form(delta) gives.
    """
    f = spec.f(n)
    check_radicand(f)
    if not spec.n_constraints.admits(n):
        raise DeltaOutOfRange(f"n = {n} violates the family's n constraints")
    delta = QuadSurd(_poly(spec.u_coeffs, n), _poly(spec.v_coeffs, n),
                     spec.w, f)
    check_delta_hypotheses(delta)
    # a plus expansion has digits >= 1 and a primitive period, one that
    # equals none of its nontrivial rotations; no delta(n) matches any other
    expect = spec.digits(n)
    if min(expect) < 1 or expect in (expect[i:] + expect[:i]
                                     for i in range(1, len(expect))):
        raise DeltaOutOfRange(f"n = {n} is not a member: the declared "
                              f"period {expect} is degenerate")
    pcf = plus_expand(delta - 1)
    if pcf.period != expect:
        raise CFMismatch(
            f"delta({n})-1 expands to {pcf}, family digits say {expect}")
    return delta


def admissible(spec: FamilySpec, q: int, r: int, ks):
    """Yield (k, delta(n)) for each k in ks whose n = qk + r >= 1 passes
    family_instance, in the order of ks."""
    for k in ks:
        n = q * k + r
        if n < 1:
            continue
        try:
            yield k, family_instance(spec, n)
        except (NotSquarefree, DeltaOutOfRange, CFMismatch):
            continue


def family_minus_cf(spec: FamilySpec, n: int) -> MinusCF:
    """The minus word of the family's plus digits at n: the minus expansion
    of delta(n) wherever family_instance accepts n."""
    return plus_to_minus(PlusCF((), spec.digits(n)))


class ResidueWord(NamedTuple):
    """The residue-level shadow of the family's words at n = qk + r.

    a_i(r) = q tau_i + gamma_i with gamma_i in [1, q]; word is the minus
    word of the plus period gamma, with digits gamma_{2j} + 2 at the block
    boundaries Gamma_j and 2 elsewhere, and Gamma ends with Gamma_L, the
    length of word.
    """

    q: int
    gamma: tuple[int, ...]
    tau: tuple[int, ...]
    word: MinusCF
    Gamma: tuple[int, ...]


def residue_word(spec: FamilySpec, q: int, r: int) -> ResidueWord:
    a = spec.digits(r)
    gamma = tuple(residue_1q(x, q) for x in a)
    word = minus_word(gamma)
    return ResidueWord(q, gamma,
                       tuple((x - g) // q for x, g in zip(a, gamma)),
                       word, word.special_positions + (word.m,))


def nu_sequence(rw: ResidueWord, C: int, D: int) -> list[int]:
    """Run nu_{i+1} = <c_i nu_i - nu_{i-1}> over the residue word (c_i its
    digits) on the integers X_i = q*nu_i; entry i + 1 holds X_i, from
    i = -1 to Gamma_L.  The seeds are nu_{-1} = <1 - C/q> and nu_0 = <D/q>.
    """
    q = rw.q
    X = [(q - C - 1) % q + 1, (D - 1) % q + 1]
    for c in rw.word.period:
        X.append((c * X[-1] - X[-2] - 1) % q + 1)
    return X


def closed_form_cd(spec: FamilySpec, rw: ResidueWord, C: int, D: int
                   ) -> tuple[int, int]:
    """The integers (q^2 A_CD(r), q^2 B_CD(r)), where (A + kB)/(12 q^2) =
    Z(C, D) at n = qk + r, rw = residue_word(spec, q, r): the paper's
    Bernoulli-value formula term for term on x = q*nu, with
    b1(x) = 2q B_1(x/q), b2(x) = 6q^2 B_2(x/q) and
    dl = q*<nu_{Gamma_l + 1} - nu_{Gamma_l}>.  Its floors y - <y> become dl
    (nu lies in (0, 1]) and (x + dl (g - 1) - 1) // q.
    """
    q, gam, tau, Gamma = rw.q, rw.gamma, rw.tau, rw.Gamma
    s = len(gam)
    X = nu_sequence(rw, C, D)

    def nu(i: int) -> int:
        return X[i + 1]

    def b1(x: int) -> int:
        return 2 * x - q

    def b2(x: int) -> int:
        return 6 * x * x - 6 * q * x + q * q

    A = B = 0
    for l in range(1, len(Gamma)):
        x = nu(Gamma[l])
        i = 2 * l % s
        A += (-3 * b1(x) * b1(nu(Gamma[l] - 1))
              + (q * tau[i] + gam[i] + 2) * b2(x))
        B += q * spec.alpha(i) * b2(x)
    for l in range(len(Gamma) - 1):
        i = (2 * l + 1) % s
        g = gam[i]
        base = nu(Gamma[l])
        dl = (nu(Gamma[l] + 1) - base - 1) % q + 1
        full = q * (6 * q * dl - 6 * dl * dl - q * q)
        A += (6 * ((g - 1) * dl * dl
                   + q * (q - 2 * dl) * ((base + dl * (g - 1) - 1) // q))
              + b2(nu(Gamma[l + 1] - 1)) - b2(base)
              - q * q * (g - 1) + tau[i] * full)
        B += spec.alpha(i) * full
    return A, B


def empty_class_reason(spec: FamilySpec, q: int, r: int, walk: int
                       ) -> str | None:
    """Why no n = qk + r >= 1 can pass family_instance, or None when neither
    exact check decides it.  A check that takes more than `walk` steps, the
    number of radicands the search it saves would factor, is skipped.

    (i) admits depends on n mod lcm(2, forbidden moduli) only, so one
    period of the class decides it.  (ii) f(q(k + p^2) + r) = f(qk + r)
    mod p^2, so when p^2 divides f(qk + r) for k < p^2 no radicand of the
    class is squarefree; p runs over 2 and the primes dividing q.
    """
    nc = spec.n_constraints
    period = math.lcm(2, *(m for m, _ in nc.forbidden_residues))
    span = period // math.gcd(q, period)
    if span <= walk:
        k0 = max(0, -((r - 1) // q))    # the least k with qk + r >= 1
        if not any(nc.admits(q * k + r) for k in range(k0, k0 + span)):
            return "the family's n constraints reject every such n"
    for p in sorted({2, *factorize(q)}):
        if p * p <= walk and all(spec.f(q * k + r) % (p * p) == 0
                                 for k in range(p * p)):
            return f"{p}^2 divides f(n) for every such n"
    return None


def smallest_admissible_n(spec: FamilySpec, q: int, r: int
                          ) -> tuple[int, QuadSurd]:
    """(n, delta(n)) at the least admissible n = qk + r >= 1, k >= 0.  A
    class that empty_class_reason shows empty is refused before any
    radicand is factored; any other is walked up to N_SEARCH_LIMIT."""
    ks = range((N_SEARCH_LIMIT - r) // q + 1)
    reason = empty_class_reason(spec, q, r, len(ks))
    if reason is not None:
        raise NoAdmissibleN(f"no admissible n = {q}k + {r}: {reason}")
    for k, delta in admissible(spec, q, r, ks):
        return q * k + r, delta
    raise NoAdmissibleN(
        f"no admissible n = {q}k + {r} up to {N_SEARCH_LIMIT}")


class ClosedFormAB(NamedTuple):
    """Character-assembled closed forms with the per-cell table kept."""

    cells: dict[tuple[int, int], tuple[int, int]]   # q^2 (A_CD, B_CD)
    A_chi: CycloElement
    B_chi: CycloElement


def common_norm_form(q: int, deltas) -> tuple[int, int, int] | None:
    """The norm form mod q shared by every delta, or None at the first that
    differs; InsufficientSamples with fewer than two deltas.

    u C^2 + v CD + w D^2 mod q read at (1, q), (q, 1) and (1, 1) gives u, w
    and u + v + w mod q, so two norm residue tables over [1, q]^2 agree
    exactly when the forms agree mod q.
    """
    forms = []
    for delta in deltas:
        forms.append(tuple(c % q for c in norm_form(delta)))
        if forms[-1] != forms[0]:
            return None
    if len(forms) < 2:
        raise InsufficientSamples("need at least 2 admissible k")
    return forms[0]


def hypothesis_check_norm(spec: FamilySpec, q: int, r: int, k_list) -> bool:
    """Is the norm residue table over [1,q]^2 the same for every sampled k?"""
    return common_norm_form(
        q, (delta for _, delta in admissible(spec, q, r, k_list))) is not None


class ClosedFormTable(NamedTuple):
    """The character-free half of the closed forms at one (q, r).

    cells holds every q^2 (A_CD, B_CD); A[a] and B[a] sum the cells whose
    norm residue u C^2 + v CD + w D^2 is a mod q, (u, v, w) the norm form
    mod q of the members n = r mod q.
    """

    cells: dict[tuple[int, int], tuple[int, int]]
    A: tuple[int, ...]
    B: tuple[int, ...]


def closed_form_table(spec: FamilySpec, q: int, r: int) -> ClosedFormTable:
    """Tabulate closed_form_cd over [1, q]^2, summed per norm residue of the
    norm form mod q that the 2q + 2 members from the smallest admissible
    n = r mod q share.

    Refuses q^2 * (length of the residue word) above KERNEL_STEP_BOUND
    before any member is built.
    """
    rw = residue_word(spec, q, r)
    if q * q * rw.word.m > KERNEL_STEP_BOUND:
        raise BoundExceeded(
            f"q^2 * {rw.word.m} = {q * q * rw.word.m} closed-form steps "
            f"exceed {KERNEL_STEP_BOUND}")
    n0, delta0 = smallest_admissible_n(spec, q, r)
    k0 = (n0 - r) // q
    window = admissible(spec, q, r, range(k0 + 1, k0 + 2 * q + 2))
    form = common_norm_form(
        q, chain([delta0], (delta for _, delta in window)))
    if form is None:
        raise HypothesisFailed(
            f"norm residues mod {q} vary with k at r = {r}")
    u, v, w = form
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    A_sums, B_sums = [0] * q, [0] * q
    for C in range(1, q + 1):
        for D in range(1, q + 1):
            A, B = cells[(C, D)] = closed_form_cd(spec, rw, C, D)
            a = (u * C * C + v * C * D + w * D * D) % q
            A_sums[a] += A
            B_sums[a] += B
    return ClosedFormTable(cells, tuple(A_sums), tuple(B_sums))


def closed_form_chi(spec: FamilySpec, chi: DirichletCharacter, r: int
                    ) -> ClosedFormAB:
    """Assemble A_chi(r), B_chi(r) = sum_{C,D} F_CD(r) * q^2 * (A_CD, B_CD)
    for q = chi.modulus.

    F_CD is the character value of the norm residue; closed_form_table
    holds everything that does not depend on chi.
    """
    table = closed_form_table(spec, chi.modulus, r)
    return ClosedFormAB(
        table.cells, cyclo_from_buckets(chi.order, chi_weights(chi, table.A)),
        cyclo_from_buckets(chi.order, chi_weights(chi, table.B)))


class LinearityReport(NamedTuple):
    k_used: tuple[int, ...]
    k_skipped: tuple[int, ...]
    scaled_values: tuple[CycloElement, ...]   # 12 q^2 L per used k
    intercept: CycloElement
    slope: CycloElement
    A_chi: CycloElement
    B_chi: CycloElement
    affine_exact: bool
    closed_form_match: bool
    hypothesis_check: bool


def verify_linearity(spec: FamilySpec, chi: DirichletCharacter, r: int,
                     k_list) -> LinearityReport:
    """Pit the direct engine against the closed forms over a k sweep, at
    n = qk + r with q = chi.modulus.

    Uses only admissible k with min_i a_i(qk+r) >= q.  Refuses fewer than
    three such k, and members whose q^2 * m kernel steps (m the length of
    each minus word, read off the plus digits) add up to more than
    KERNEL_STEP_BOUND, before any table is built.  Each scaled value
    12 q^2 L is the chi-fold of the member's residue table, and
    shintani.step_tables builds the tables of all members together: one
    pass over each member's minus word maps its prefix step matrices M mod
    q to counts, and the per-cell sums of each M are shared by every member
    with the same norm form mod q.  The members of a sweep share their M,
    since S(2)^q = I mod q, so the work is the summed word lengths plus,
    per norm form, the distinct M times the unit cells, not q^2 * m per
    member.  residue_table still runs the per-cell kernel for lvalue and
    the oracle: with the step-matrix tables behind it, 30 s field-sweep
    runs of perfbench on a 2-core Xeon completed about 4.5 times as many
    items, and the benchmark's record, one row per item, raised their peak
    RSS from 30.7 to 50-53 MiB, over its 10% bound (see the README).
    The line is fitted from the first two points and the verdicts are
    independent booleans: every remaining point on the line exactly; the
    fitted pair equals (A_chi, B_chi); the norm-residue hypothesis holds on
    the members used.
    """
    q = chi.modulus
    ks = sorted(set(k_list))
    members, steps = [], 0
    for k, delta in admissible(spec, q, r, ks):
        digits = spec.digits(q * k + r)
        if min(digits) < q:
            continue
        steps += q * q * minus_length(digits)
        if steps > KERNEL_STEP_BOUND:
            raise BoundExceeded(
                f"the sampled members need over {KERNEL_STEP_BOUND} kernel "
                f"steps (q^2 * m summed over {len(members) + 1} of them)")
        members.append((k, delta))
    used = [k for k, _ in members]
    if len(used) < 3:
        raise InsufficientSamples(
            f"need >= 3 admissible k with digits >= q, got {len(used)}")
    vals = [cyclo_from_buckets(chi.order, chi_weights(chi, table))
            for table in step_tables([delta for _, delta in members], q)]
    slope = (vals[1] - vals[0]) * Fraction(1, used[1] - used[0])
    intercept = vals[0] - slope * used[0]
    affine = all(v == intercept + slope * k
                 for k, v in zip(used[2:], vals[2:]))
    cf = closed_form_chi(spec, chi, r)
    match = intercept == cf.A_chi and slope == cf.B_chi
    hyp = common_norm_form(q, (delta for _, delta in members)) is not None
    return LinearityReport(tuple(used), tuple(k for k in ks if k not in used),
                           tuple(vals), intercept, slope, cf.A_chi, cf.B_chi,
                           affine, match, hyp)
