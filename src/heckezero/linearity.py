"""Parametrized families of fields, builtin or read from a JSON file, and
the family engine: instance construction and the walk over admissible
members, the residue word (gamma and tau), the grid of closed-form
coefficients of every cell from the coefficient pairs of its
nu-recursion per (q, r) and its sums per norm residue, and the verifier
that pits the closed forms against the direct engine.  The nu-sequence
of one cell and the minus word of a member, which selftest checks these
against, live in acceptance.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from fractions import Fraction
from typing import NamedTuple

from .cfrac import fixes_plus_word, minus_length, period_blocks, plus_expand
from .characters import (CycloElement, DirichletCharacter, chi_coords,
                         chi_sum, cyclo_value)
from .errors import (BoundExceeded, DeltaOutOfRange, HypothesisFailed,
                     IncompatiblePair, InsufficientSamples, NoAdmissibleN,
                     NotSquarefree, ParseError, SpecInconsistent)
from .exact import QuadSurd, factorize, residue_1q, square_prime
from .kernels import KERNEL_STEP_BOUND
from .quadfield import check_radicand, ideal_form, norm_form
from .shintani import check_delta_hypotheses, form_tables

N_SEARCH_LIMIT = 10_000
# the most q^2 cells of a closed-form table, q <= 707: about 0.5 KiB each
CELL_BOUND = 5 * 10 ** 5


class FamilySpec(NamedTuple):
    """A family K_n with f(n) under the radical, delta(n) = (u(n)+v(n)sqrt(f))/w,
    and plus continued fraction delta(n)-1 = [[a_0(n), ..., a_{s-1}(n)]] with
    a_i(n) = alpha_i*n + beta_i.  Each pair (m, r) of forbidden says
    n != r mod m.  w >= 1, acf is not empty and every m >= 1, as
    family_spec_from_dict checks.
    """

    name: str
    f_coeffs: tuple[int, ...]
    u_coeffs: tuple[int, ...]
    v_coeffs: tuple[int, ...]
    w: int
    acf: tuple[tuple[int, int], ...]
    forbidden: tuple[tuple[int, int], ...] = ()

    @property
    def s(self) -> int:
        return len(self.acf)

    def f(self, n: int) -> int:
        return _poly(self.f_coeffs, n)

    def surd(self, n: int) -> tuple[int, int, int, int]:
        return (_poly(self.u_coeffs, n), _poly(self.v_coeffs, n), self.w,
                self.f(n))

    def fits(self, n: int) -> bool:
        """Whether the fold of digits(n) fixes delta(n) - 1, on integers."""
        u, v, w, f = self.surd(n)
        return fixes_plus_word(self.digits(n), u - w, v, w, f)

    def admits(self, n: int) -> bool:
        return n >= 1 and all(n % m != r % m for m, r in self.forbidden)

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
        acf=((1, 0),), forbidden=((2, 0),)),    # odd n
    "rd-n2p1": FamilySpec(
        name="rd-n2p1", f_coeffs=(1, 0, 1),
        u_coeffs=(1, 1), v_coeffs=(1,), w=1,
        acf=((2, 0),), forbidden=((2, 0),)),    # odd n
}


def family_spec_from_dict(obj) -> FamilySpec:
    """Parse and check the JSON object form {name, f_coeffs, delta: {u_coeffs,
    v_coeffs, w}, acf: [{alpha, beta}, ...], n_constraints: {parity,
    forbidden_residues}}, n_constraints and its fields optional.  Parity
    "odd" is the forbidden residue 0 mod 2 and "even" is 1 mod 2, listed
    ahead of forbidden_residues.  Every field is checked for shape, type
    and range here, and every object for keys the form does not name, so
    that a misspelled optional key cannot drop a constraint; a bad one is
    a ParseError.
    """
    top = _object(obj, "a family description",
                  ("name", "f_coeffs", "delta", "acf", "n_constraints"))
    delta = _object(_field(top, "delta"), "delta",
                    ("u_coeffs", "v_coeffs", "w"))
    nc = _object(top.get("n_constraints", {}), "n_constraints",
                 ("parity", "forbidden_residues"))
    name = _field(top, "name")
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {type(name).__name__}")
    w = _integer(_field(delta, "w"), "w")
    if w < 1:
        raise ParseError(f"w must be a positive integer, got {w}")
    acf = tuple((_integer(_field(p, "alpha"), "alpha"),
                 _integer(_field(p, "beta"), "beta"))
                for p in (_object(e, "an acf entry", ("alpha", "beta"))
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
    if parity is not None:
        forbidden = ((2, int(parity == "even")),) + forbidden
    return FamilySpec(
        name, _integers(_field(top, "f_coeffs"), "f_coeffs"),
        _integers(_field(delta, "u_coeffs"), "u_coeffs"),
        _integers(_field(delta, "v_coeffs"), "v_coeffs"), w, acf, forbidden)


def load_family_config(name_or_path: str) -> FamilySpec:
    """A builtin family by name, or the family of a JSON file."""
    if name_or_path in BUILTIN_FAMILIES:
        return BUILTIN_FAMILIES[name_or_path]
    if not os.path.exists(name_or_path):
        raise ParseError(f"no builtin family or file named {name_or_path!r}")
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name_or_path}:{exc.lineno}:{exc.colno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name_or_path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or nesting past the stack
        raise ParseError(f"{name_or_path}: unreadable JSON ({exc})") from exc
    except OSError as exc:
        raise ParseError(f"cannot read family file {name_or_path!r}: "
                         f"{exc.strerror}") from exc
    spec = family_spec_from_dict(obj)
    # a family with no member at all is refused before any radicand is
    # factored, and the file's digits must hold at its first member
    smallest_admissible_n(spec, 1, 0)
    return spec


def _object(x, what: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(x, dict):
        raise ParseError(f"{what} must be an object, got {type(x).__name__}")
    for key in x:
        if key not in keys:
            raise ParseError(f"unknown key {reprlib.repr(key)} in {what}, "
                             f"which takes {', '.join(keys)}")
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
    word) is not a member; a member whose plus expansion differs from the
    declared digits is SpecInconsistent, since then the family does not
    describe it.

    delta(n) is all the L-value needs: the field is Q(sqrt(delta.d)) and
    b_n = [1, delta(n)]^{-1}, whose norm form norm_form(delta) gives.
    """
    u, v, w, f = spec.surd(n)
    check_radicand(f)
    if not spec.admits(n):
        raise DeltaOutOfRange(f"n = {n} violates the family's n constraints")
    delta = QuadSurd(u, v, w, f)
    check_delta_hypotheses(delta)
    # a plus expansion has digits >= 1 and a primitive period, one that
    # equals none of its nontrivial rotations; no delta(n) matches any other.
    # delta(n) - 1 is reduced, so a primitive word is its plus period iff
    # the word's fold fixes it, decided on integers without the expansion
    expect = spec.digits(n)
    if min(expect) < 1 or expect in (expect[i:] + expect[:i]
                                     for i in range(1, len(expect))):
        raise DeltaOutOfRange(f"n = {n} is not a member: the declared "
                              f"period {expect} is degenerate")
    if not spec.fits(n):
        raise SpecInconsistent(f"delta({n})-1 expands to "
                               f"{plus_expand(delta - 1)}, "
                               f"family digits say {expect}")
    return delta


def admissible(spec: FamilySpec, q: int, r: int, ks):
    """Yield (k, delta(n)) for each k in ks whose n = qk + r >= 1 is a
    member, in the order of ks.  Non-members are skipped; a member whose
    expansion disagrees with the declared digits stops the walk with
    family_instance's SpecInconsistent."""
    for k in ks:
        n = q * k + r
        if n < 1:
            continue
        try:
            yield k, family_instance(spec, n)
        except (NotSquarefree, DeltaOutOfRange):
            continue


class ResidueWord(NamedTuple):
    """The residue-level shadow of the family's words at n = qk + r:
    a_i(r) = q tau_i + gamma_i with gamma_i in [1, q].  The residue word is
    minus_word(gamma), whose blocks (cfrac.period_blocks) start at
    Gamma_0 = 0 < Gamma_1 < ... and close at Gamma_L, its length.
    """

    q: int
    gamma: tuple[int, ...]
    tau: tuple[int, ...]


def residue_word(spec: FamilySpec, q: int, r: int) -> ResidueWord:
    a = spec.digits(r)
    gamma = tuple(residue_1q(x, q) for x in a)
    return ResidueWord(q, gamma, tuple((x - g) // q for x, g in zip(a, gamma)))


def closed_form_cells(spec: FamilySpec, rw: ResidueWord
                      ) -> list[list[tuple[int, int]]]:
    """The integers (q^2 A_CD(r), q^2 B_CD(r)) of every cell, rw =
    residue_word(spec, q, r), in rows C = 1 .. q of cells D = 1 .. q,
    where (A + kB)/(12 q^2) = Z(C, D) at n = qk + r: the paper's
    Bernoulli-value formula term for term on x = q*nu in [1, q], with
    b1(x) = 2q B_1(x/q), b2(x) = 6q^2 B_2(x/q) and
    dl = q*<nu_{Gamma_l + 1} - nu_{Gamma_l}>.  Its floors y - <y> become dl
    (nu lies in (0, 1]) and (x + dl (g - 1) - 1) // q.

    The nu recursion is linear in the seeds, so q nu_i = al*(-C) + be*D
    mod q in every cell, with one pair (al, be) mod q per position i.  One
    walk over the blocks of the residue word, each the special digit
    gamma_i + 2 and gamma_j - 1 twos, runs the recursion
    nu_{i+1} = <c_i nu_i - nu_{i-1}> (acceptance.nu_sequence) on the
    pairs of the seeds, nu_{-1} = (1, 0) and nu_0 = (0, 1), and keeps per
    block l the pairs of q nu_{Gamma_l}, of dl, of q nu_{Gamma_{l+1} - 1}
    and of q nu_{Gamma_{l+1}}, then the run's gamma_j - 1, its factors
    -q tau_j and -q alpha_j of b2(dl) in A and in B, and the factors of
    b2(q nu_{Gamma_{l+1}}) in A and in B from the next special digit k.
    A0 is the part of A that no cell changes; b1 and b2 are tabled at the
    residues x mod q, 0 standing for q.
    """
    q, gam, tau = rw.q, rw.gamma, rw.tau
    prev, cur = (1 % q, 0), (0, 1 % q)
    blocks, A0 = [], 0
    for i, j, k in period_blocks(len(gam)):
        walk = [cur]    # the pairs at Gamma_l .. Gamma_{l+1}
        for c in (gam[i] + 2,) + (2,) * (gam[j] - 1):
            prev, cur = cur, ((c * cur[0] - prev[0]) % q,
                              (c * cur[1] - prev[1]) % q)
            walk.append(cur)
        (al, be), (al1, be1) = walk[:2]
        blocks.append((al, be, (al1 - al) % q, (be1 - be) % q, *prev, *cur,
                       gam[j] - 1, -q * tau[j], -q * spec.alpha(j),
                       q * tau[k] + gam[k] + 2, q * spec.alpha(k)))
        A0 -= q * q * (gam[j] - 1)
    reps = [x or q for x in range(q)]
    b1 = [2 * x - q for x in reps]
    b2 = [6 * x * x - 6 * q * x + q * q for x in reps]
    grid = []
    for C in range(1, q + 1):
        c = -C % q
        # the row's share of each pair: q nu = al*(-C) + be*D = off + be*D
        shares = [(al * c % q, be, ald * c % q, bed, ale * c % q, bee,
                   aln * c % q, ben, *rest)
                  for al, be, ald, bed, ale, bee, aln, ben, *rest in blocks]
        row = []
        for D in range(1, q + 1):
            A, B = A0, 0
            for o0, b0, od, bd, oe, be, on, bn, g1, t, a, kA, kB in shares:
                base = (b0 * D + o0) % q
                y = (bd * D + od) % q
                e = (be * D + oe) % q
                x = (bn * D + on) % q
                X, dl = base or q, y or q
                A += (6 * (g1 * dl * dl
                           + q * (q - 2 * dl) * ((X + dl * g1 - 1) // q))
                      + b2[e] - b2[base] + t * b2[y]
                      + kA * b2[x] - 3 * b1[x] * b1[e])
                B += a * b2[y] + kB * b2[x]
            row.append((A, B))
        grid.append(row)
    return grid


def empty_class_reason(spec: FamilySpec, q: int, r: int, walk: int
                       ) -> str | None:
    """Why no n = qk + r >= 1 can pass family_instance, or None when neither
    exact check decides it.  A check that takes more than `walk` steps, the
    number of radicands the search it saves would factor, is skipped.

    (i) admits depends on n mod lcm(forbidden moduli) only, so one
    period of the class, each n lifted to its residue plus the modulus,
    decides it.  (ii) f(q(k + p^2) + r) = f(qk + r) mod p^2, so when p^2
    divides f(qk + r) for k < p^2 no radicand of the class is squarefree;
    p runs over 2 and the primes dividing q.
    """
    period = math.lcm(*(m for m, _ in spec.forbidden))
    span = period // math.gcd(q, period)
    if span <= walk and not any(spec.admits((q * k + r) % period + period)
                                for k in range(span)):
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
    radicand is factored; any other is walked from its least n >= 1 up to
    N_SEARCH_LIMIT."""
    walk = (N_SEARCH_LIMIT - r) // q + 1    # the k >= 0 with n <= the limit
    reason = empty_class_reason(spec, q, r, walk)
    if reason is not None:
        raise NoAdmissibleN(f"no admissible n = {q}k + {r}: {reason}")
    k0 = max(0, -((r - 1) // q))        # the least k with qk + r >= 1
    for k, delta in admissible(spec, q, r, range(k0, walk)):
        return q * k + r, delta
    raise NoAdmissibleN(
        f"no admissible n = {q}k + {r} up to {N_SEARCH_LIMIT}")


def class_norm_form(spec: FamilySpec, q: int, r: int) -> tuple[int, int, int]:
    """The norm form (u, v, w) mod q that every member n = qk + r shares,
    proven for the whole class on integers; HypothesisFailed when the
    members' forms differ.

    ideal_form(*spec.surd(n)) = (w^2, 2wu, u^2 - v^2 f)/g, g | w^2, mod q
    reads n mod w^2 q, and its check 2wv/g = 1 or 2 by f mod 4 reads n mod
    4 for constant v; any other v passes at finitely many n and is refused
    outright.  So with M = q lcm(w^2, 4) the n = r mod q in [n0, n0 + M)
    decide every member's form, n0 the smallest member.  Skipped is an n
    whose class mod M a forbidden modulus dividing M or a square dividing
    gcd(f(n), M) empties; other non-members can only refuse more.
    spec.fits(n) is two polynomial identities in n of degree below D, so
    the D n from n0 decide every member's digits.  After
    smallest_admissible_n, the first member up to N_SEARCH_LIMIT that fails
    names a failure; if none does, the failing n's own refusal stands.
    """
    n0, delta0 = smallest_admissible_n(spec, q, r)
    form = tuple(c % q for c in norm_form(delta0))
    M = q * math.lcm(spec.w ** 2, 4)
    mod_M = spec._replace(forbidden=tuple(
        x for x in spec.forbidden if M % x[0] == 0))
    D = spec.s + max(2 * len(spec.u_coeffs),
                     2 * len(spec.v_coeffs) + len(spec.f_coeffs))
    try:
        if any(spec.v_coeffs[1:]):
            raise IncompatiblePair("[1, delta(n)] is an ideal basis at "
                                   "finitely many n only: v(n) moves")
        if not all(spec.fits(n) for n in range(n0, n0 + D)):
            raise SpecInconsistent(f"the family digits fix delta(n)-1 at "
                                   f"fewer than {D} n")
        if not all(tuple(c % q for c in ideal_form(*spec.surd(n))) == form
                   for n in range(n0, n0 + M, q) if mod_M.admits(n)
                   and not square_prime(math.gcd(spec.f(n), M))):
            raise HypothesisFailed(
                f"norm residues mod {q} vary with k at r = {r}")
    except (IncompatiblePair, HypothesisFailed, SpecInconsistent):
        for _, delta in admissible(spec, q, r, range(
                (n0 - r) // q, (N_SEARCH_LIMIT - r) // q + 1)):
            if tuple(c % q for c in norm_form(delta)) != form:
                break
        raise
    return form


class ClosedFormTable(NamedTuple):
    """The character-free half of the closed forms at one (q, r).

    cells is closed_form_cells' grid of every q^2 (A_CD, B_CD); A[a] and
    B[a] sum the cells whose norm residue u C^2 + v CD + w D^2 is a mod q,
    (u, v, w) = class_norm_form(spec, q, r).
    """

    cells: list[list[tuple[int, int]]]
    A: tuple[int, ...]
    B: tuple[int, ...]


def closed_form_table(spec: FamilySpec, q: int, r: int) -> ClosedFormTable:
    """Tabulate the closed forms over [1, q]^2, summed per norm residue of
    class_norm_form, the norm form mod q that every member n = qk + r
    shares.  The step bound on the q^2 * blocks steps of closed_form_cells
    (its walk takes q per block at most), then CELL_BOUND on the q^2 cells
    the table holds, refuse before any member is built.
    """
    rw = residue_word(spec, q, r)
    b = len(period_blocks(spec.s))
    if q * q * b > KERNEL_STEP_BOUND:
        raise BoundExceeded(f"q^2 * {b} = {q * q * b} closed-form steps "
                            f"exceed {KERNEL_STEP_BOUND}")
    if q * q > CELL_BOUND:
        raise BoundExceeded(f"q^2 = {q * q} closed-form cells exceed "
                            f"{CELL_BOUND}")
    u, v, w = class_norm_form(spec, q, r)
    cells = closed_form_cells(spec, rw)
    A_sums, B_sums = [0] * q, [0] * q
    for C, row in enumerate(cells, 1):
        for D, (A, B) in enumerate(row, 1):
            a = (u * C * C + v * C * D + w * D * D) % q
            A_sums[a] += A
            B_sums[a] += B
    return ClosedFormTable(cells, tuple(A_sums), tuple(B_sums))


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
    shintani.form_tables builds the tables of all members together from
    (norm form, plus period) pairs.  family_instance has validated each
    member, and its declared digits are the plus period of delta - 1, so
    they are the member's word as they stand: no member is checked or
    expanded again, and no minus word is built.
    The README's linearity paragraph gives the cost of the form-walk
    tables and why residue_table keeps the per-cell kernel.
    The line is fitted from the first two points on the integer
    coordinates of the chi-folds, which the fold keeps linear, and the
    verdicts are independent booleans: every remaining point on the line
    exactly; the fitted pair equals the folds of closed_form_table's A and
    B; the members used share one norm form mod q, a cross-check of
    class_norm_form on them.
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
        members.append((k, delta, digits))
    used = [k for k, _, _ in members]
    if len(used) < 3:
        raise InsufficientSamples(
            f"need >= 3 admissible k with digits >= q, got {len(used)}")
    inputs = [(norm_form(delta), digits) for _, delta, digits in members]
    coords = [chi_coords(chi, table) for table in form_tables(inputs, q)]
    (k0, k1), (c0, c1) = used[:2], coords[:2]
    dk, s = k1 - k0, [y - x for x, y in zip(c0, c1)]
    affine = all(dk * (y - x) == (k - k0) * sj
                 for k, c in zip(used[2:], coords[2:])
                 for x, y, sj in zip(c0, c, s))
    o = chi.order
    slope = cyclo_value(o, s, Fraction(1, dk))
    intercept = cyclo_value(o, [dk * x - k0 * sj for x, sj in zip(c0, s)],
                            Fraction(1, dk))
    table = closed_form_table(spec, q, r)
    A_chi, B_chi = chi_sum(chi, table.A), chi_sum(chi, table.B)
    match = intercept == A_chi and slope == B_chi
    hyp = len({tuple(c % q for c in form) for form, _ in inputs}) == 1
    return LinearityReport(tuple(used), tuple(k for k in ks if k not in used),
                           tuple(cyclo_value(o, c) for c in coords),
                           intercept, slope, A_chi, B_chi, affine, match, hyp)
