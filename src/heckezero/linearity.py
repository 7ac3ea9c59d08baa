"""Parametrized families of fields and the linearity machinery: instance
construction, the residue data gamma/tau/Gamma, the nu-sequence, per-cell
closed-form coefficients, their character assembly, and the verifier that
pits the closed forms against the direct engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cfrac import MinusCF, mu_factor, plus_expand, plus_to_minus
from .characters import DirichletCharacter, char_exponents
from .errors import (CFMismatch, DeltaOutOfRange, HypothesisFailed,
                     InsufficientSamples, InternalInvariantError,
                     NoAdmissibleN, NotSquarefree, ParseError)
from .exact import (CycloElement, QuadSurd, bernoulli_poly,
                    cyclo_from_buckets, floor_strict, frac_pos, residue_1q)
from .quadfield import check_radicand, norm_form

N_SEARCH_LIMIT = 10_000


@dataclass(frozen=True)
class NConstraints:
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


@dataclass(frozen=True)
class FamilySpec:
    """A family K_n with f(n) under the radical, delta(n) = (u(n)+v(n)sqrt(f))/w,
    and plus continued fraction delta(n)-1 = [[a_0(n), ..., a_{s-1}(n)]] with
    a_i(n) = alpha_i*n + beta_i.
    """

    name: str
    f_coeffs: tuple[int, ...]
    u_coeffs: tuple[int, ...]
    v_coeffs: tuple[int, ...]
    w: int
    acf: tuple[tuple[int, int], ...]
    n_constraints: NConstraints = NConstraints()

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("w must be a positive integer")
        if len(self.acf) < 1:
            raise ValueError("need at least one digit function")

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


def family_spec_from_dict(obj: dict) -> FamilySpec:
    """Parse the JSON object form {name, f_coeffs, delta, acf, n_constraints}."""
    try:
        nc = obj.get("n_constraints", {})
        return FamilySpec(
            name=obj["name"],
            f_coeffs=tuple(obj["f_coeffs"]),
            u_coeffs=tuple(obj["delta"]["u_coeffs"]),
            v_coeffs=tuple(obj["delta"]["v_coeffs"]),
            w=obj["delta"]["w"],
            acf=tuple((p["alpha"], p["beta"]) for p in obj["acf"]),
            n_constraints=NConstraints(
                parity=nc.get("parity"),
                forbidden_residues=tuple(
                    (m, r) for m, r in nc.get("forbidden_residues", ()))))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad family description: {exc}") from exc


def family_instance(spec: FamilySpec, n: int) -> QuadSurd:
    """Instantiate K_n as delta(n), checked against the family's declared
    radicand, n constraints, reducedness and plus digits.

    delta(n) is all the L-value needs: the field is Q(sqrt(delta.d)) and
    b_n = [1, delta(n)]^{-1}, whose norm form norm_form(delta) gives.
    """
    f = spec.f(n)
    check_radicand(f)
    if not spec.n_constraints.admits(n):
        raise DeltaOutOfRange(f"n = {n} violates the family's n constraints")
    delta = QuadSurd(_poly(spec.u_coeffs, n), _poly(spec.v_coeffs, n),
                     spec.w, f)
    if not (delta > 2 and 0 < delta.conj() < 1):
        raise DeltaOutOfRange(f"delta({n}) = {delta} is not reduced")
    pcf = plus_expand(delta - 1)
    expect = tuple(spec.a(i, n) for i in range(spec.s))
    if pcf.preperiod or pcf.period != expect:
        raise CFMismatch(
            f"delta({n})-1 expands to {pcf}, family digits say {expect}")
    return delta


def family_minus_cf(spec: FamilySpec, n: int) -> MinusCF:
    """The minus expansion of delta(n), with the plus word attached."""
    return plus_to_minus(plus_expand(
        QuadSurd(_poly(spec.u_coeffs, n), _poly(spec.v_coeffs, n),
                 spec.w, spec.f(n)) - 1))


def gamma_tau(spec: FamilySpec, i: int, r: int, q: int) -> tuple[int, int]:
    """gamma_i(r) in [1, q] and tau_i(r) with a_i(r) = q*tau + gamma."""
    a = spec.a(i, r)
    g = residue_1q(a, q)
    return g, (a - g) // q


@dataclass(frozen=True)
class NuSequence:
    """The residue-level shadow of the lattice recursion.

    nu[i] holds nu_{i-1}; Gamma[j] are the block boundaries; gamma/tau index
    the digit functions 0..s-1 at the residue r; d[l] = <nu_{Gamma_l + 1} -
    nu_{Gamma_l}>.
    """

    q: int
    r: int
    C: int
    D: int
    nu: tuple[Fraction, ...]
    Gamma: tuple[int, ...]
    gamma: tuple[int, ...]
    tau: tuple[int, ...]
    d: tuple[Fraction, ...]

    def nu_at(self, i: int) -> Fraction:
        return self.nu[i + 1]


def nu_sequence(spec: FamilySpec, q: int, r: int, C: int, D: int) -> NuSequence:
    """Run nu_{i+1} = <c_i nu_i - nu_{i-1}> out to Gamma_{s*mu(s)}.

    c_i = gamma_{2j}(r) + 2 at the block boundary i = Gamma_j, else 2.
    nu_{-1} = (q-C)/q literally, so the C = q seed starts at 0.
    """
    s = spec.s
    L = int(s * mu_factor(s))
    gam = tuple(gamma_tau(spec, i, r, q)[0] for i in range(s))
    tau = tuple(gamma_tau(spec, i, r, q)[1] for i in range(s))
    Gamma = [0]
    for j in range(1, L + 1):
        Gamma.append(Gamma[-1] + gam[(2 * j - 1) % s])
    boundaries = {g: j for j, g in enumerate(Gamma)}
    nu = [Fraction(q - C, q), frac_pos(Fraction(D, q))]
    for i in range(Gamma[-1]):
        c = gam[(2 * boundaries[i]) % s] + 2 if i in boundaries else 2
        nu.append(frac_pos(c * nu[-1] - nu[-2]))
    d = tuple(frac_pos(nu[Gamma[l] + 2] - nu[Gamma[l] + 1]) for l in range(L))
    return NuSequence(q, r, C, D, tuple(nu), tuple(Gamma), gam, tau, d)


def closed_form_cd(spec: FamilySpec, q: int, r: int, C: int, D: int
                   ) -> tuple[Fraction, Fraction]:
    """(A_CD(r), B_CD(r)) with (1/12)(A + kB) = Z(C, D) at n = qk + r.

    Both are rationals with q^2 * A and q^2 * B integers.
    """
    s = spec.s
    L = int(s * mu_factor(s))
    seq = nu_sequence(spec, q, r, C, D)
    nu, Gamma, gam, tau, d = seq.nu_at, seq.Gamma, seq.gamma, seq.tau, seq.d
    A = Fraction(0)
    B = Fraction(0)
    for l in range(1, L + 1):
        x = nu(Gamma[l])
        A += (-12 * bernoulli_poly(1, x) * bernoulli_poly(1, nu(Gamma[l] - 1))
              + 6 * (spec.a(2 * l, r) + 2) * bernoulli_poly(2, x))
        B += 6 * q * spec.alpha(2 * l) * bernoulli_poly(2, x)
    for l in range(L):
        g = gam[(2 * l + 1) % s]
        t = tau[(2 * l + 1) % s]
        dl = d[l]
        base = nu(Gamma[l])
        full = 6 * (q * dl * dl
                    + (1 - 2 * dl) * floor_strict(base + dl * q)) - q
        A += (6 * ((g - 1) * dl * dl
                   + (1 - 2 * dl) * floor_strict(base + dl * (g - 1))
                   + bernoulli_poly(2, nu(Gamma[l + 1] - 1))
                   - bernoulli_poly(2, base))
              - g + 1 + t * full)
        B += spec.alpha(2 * l + 1) * full
    if (q * q * A).denominator != 1 or (q * q * B).denominator != 1:
        raise InternalInvariantError(
            f"q^2 * coefficients not integral at (r={r}, C={C}, D={D})")
    return A, B


def smallest_admissible_n(spec: FamilySpec, q: int, r: int,
                          require_min_digit: bool = False) -> int:
    """The least n = qk + r, k >= 0, where family_instance succeeds (and,
    optionally, min_i a_i(n) >= q)."""
    n = r if r >= 1 else r + q
    if q == 1 and r == 0:
        n = 1
    while n <= N_SEARCH_LIMIT:
        try:
            family_instance(spec, n)
        except (NotSquarefree, DeltaOutOfRange, CFMismatch):
            n += q
            continue
        if require_min_digit and min(
                spec.a(i, n) for i in range(spec.s)) < q:
            n += q
            continue
        return n
    raise NoAdmissibleN(
        f"no admissible n = {q}k + {r} up to {N_SEARCH_LIMIT}")


@dataclass(frozen=True)
class ClosedFormAB:
    """Character-assembled closed forms with the per-cell table kept."""

    spec_name: str
    q: int
    chi: DirichletCharacter
    r: int
    cells: dict[tuple[int, int], tuple[Fraction, Fraction]]
    A_chi: CycloElement
    B_chi: CycloElement


def hypothesis_check_norm(spec: FamilySpec, q: int, r: int, k_list) -> bool:
    """Is the norm residue table over [1,q]^2 the same for every sampled k?"""
    tables = []
    for k in k_list:
        n = q * k + r
        try:
            delta = family_instance(spec, n)
        except (NotSquarefree, DeltaOutOfRange, CFMismatch):
            continue
        # u C^2 + v CD + w D^2 mod q read at (1, q), (q, 1) and (1, 1)
        # gives u, w and u + v + w mod q, so two tables over [1, q]^2 agree
        # exactly when the coefficients agree mod q
        tables.append(tuple(c % q for c in norm_form(delta)))
        if len(tables) > 1 and tables[-1] != tables[0]:
            return False
    if len(tables) < 2:
        raise InsufficientSamples("need at least 2 admissible k")
    return True


def closed_form_chi(spec: FamilySpec, q: int, chi: DirichletCharacter,
                    r: int) -> ClosedFormAB:
    """Assemble A_chi(r), B_chi(r) = sum_{C,D} F_CD(r) * q^2 * (A_CD, B_CD).

    F_CD is the character value of the norm residue, read off at the smallest
    admissible n congruent to r; the norm-residue hypothesis is verified on
    two samples first.
    """
    if chi.modulus != q:
        raise ValueError("character modulus must equal q")
    n0 = smallest_admissible_n(spec, q, r)
    k0 = (n0 - r) // q
    if not hypothesis_check_norm(spec, q, r, range(k0, k0 + 2 * q + 2)):
        raise HypothesisFailed(
            f"norm residues mod {q} vary with k at r = {r}")
    u, v, w = norm_form(family_instance(spec, n0))
    exps = char_exponents(chi)
    cells: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    A_buckets = [0] * chi.order
    B_buckets = [0] * chi.order
    for C in range(1, q + 1):
        for D in range(1, q + 1):
            A, B = cells[(C, D)] = closed_form_cd(spec, q, r, C, D)
            k = exps[(u * C * C + v * C * D + w * D * D) % q]
            if k >= 0:
                A_buckets[k] += int(q * q * A)
                B_buckets[k] += int(q * q * B)
    return ClosedFormAB(spec.name, q, chi, r, cells,
                        cyclo_from_buckets(chi.order, A_buckets),
                        cyclo_from_buckets(chi.order, B_buckets))


@dataclass(frozen=True)
class LinearityReport:
    spec_name: str
    q: int
    chi: DirichletCharacter
    r: int
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


def verify_linearity(spec: FamilySpec, q: int, chi: DirichletCharacter,
                     r: int, k_list) -> LinearityReport:
    """Pit the direct engine against the closed forms over a k sweep.

    Uses only admissible k with min_i a_i(qk+r) >= q; needs at least three.
    The line is fitted from the first two points and the verdicts are
    independent booleans: every remaining point on the line exactly; the
    fitted pair equals (A_chi, B_chi); the norm-residue hypothesis holds.
    """
    from .shintani import partial_hecke_L_zero
    ks = sorted(set(k_list))
    used: list[int] = []
    skipped: list[int] = []
    vals: list[CycloElement] = []
    for k in ks:
        n = q * k + r
        if n < 1:
            skipped.append(k)
            continue
        try:
            delta = family_instance(spec, n)
        except (NotSquarefree, DeltaOutOfRange, CFMismatch):
            skipped.append(k)
            continue
        if min(spec.a(i, n) for i in range(spec.s)) < q:
            skipped.append(k)
            continue
        used.append(k)
        L = partial_hecke_L_zero(delta, chi)
        vals.append(L * (12 * q * q))
    if len(used) < 3:
        raise InsufficientSamples(
            f"need >= 3 admissible k with digits >= q, got {len(used)}")
    slope = (vals[1] - vals[0]) * Fraction(1, used[1] - used[0])
    intercept = vals[0] - slope * used[0]
    affine = all(v == intercept + slope * k
                 for k, v in zip(used[2:], vals[2:]))
    cf = closed_form_chi(spec, q, chi, r)
    match = intercept == cf.A_chi and slope == cf.B_chi
    hyp = hypothesis_check_norm(spec, q, r, used)
    return LinearityReport(spec.name, q, chi, r, tuple(used), tuple(skipped),
                           tuple(vals), intercept, slope, cf.A_chi, cf.B_chi,
                           affine, match, hyp)
