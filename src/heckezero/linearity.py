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
                     InsufficientSamples, NoAdmissibleN, NotSquarefree,
                     ParseError)
from .exact import CycloElement, QuadSurd, cyclo_from_buckets, residue_1q
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
    """The residue-level shadow of the lattice recursion, scaled by q like
    the kernel.

    X[i] holds q*nu_{i-1} in [1, q]; Gamma[j] are the block boundaries;
    gamma/tau index the digit functions 0..s-1 at the residue r.
    """

    X: tuple[int, ...]
    Gamma: tuple[int, ...]
    gamma: tuple[int, ...]
    tau: tuple[int, ...]

    def nu_at(self, i: int) -> int:
        """q*nu_i for i >= -1."""
        return self.X[i + 1]


def nu_sequence(spec: FamilySpec, q: int, r: int, C: int, D: int) -> NuSequence:
    """Run nu_{i+1} = <c_i nu_i - nu_{i-1}> out to Gamma_{s*mu(s)} on the
    integers X_i = q*nu_i.

    c_i = gamma_{2j}(r) + 2 at the block boundary i = Gamma_j, else 2.
    The seeds are nu_{-1} = <1 - C/q> and nu_0 = <D/q>.
    """
    s = spec.s
    L = int(s * mu_factor(s))
    gam = tuple(gamma_tau(spec, i, r, q)[0] for i in range(s))
    tau = tuple(gamma_tau(spec, i, r, q)[1] for i in range(s))
    Gamma = [0]
    for j in range(1, L + 1):
        Gamma.append(Gamma[-1] + gam[(2 * j - 1) % s])
    boundaries = {g: j for j, g in enumerate(Gamma)}
    X = [(q - C - 1) % q + 1, (D - 1) % q + 1]
    for i in range(Gamma[-1]):
        c = gam[(2 * boundaries[i]) % s] + 2 if i in boundaries else 2
        X.append((c * X[-1] - X[-2] - 1) % q + 1)
    return NuSequence(tuple(X), tuple(Gamma), gam, tau)


def closed_form_cd(spec: FamilySpec, q: int, r: int, C: int, D: int
                   ) -> tuple[int, int]:
    """The integers (q^2 A_CD(r), q^2 B_CD(r)), where (A + kB)/(12 q^2) =
    Z(C, D) at n = qk + r: the paper's Bernoulli-value formula term for term
    on x = q*nu, with b1(x) = 2q B_1(x/q), b2(x) = 6q^2 B_2(x/q) and
    dl = q*<nu_{Gamma_l + 1} - nu_{Gamma_l}>.  Its floors y - <y> become dl
    (nu lies in (0, 1]) and (x + dl (g - 1) - 1) // q.
    """
    s = spec.s
    L = int(s * mu_factor(s))
    seq = nu_sequence(spec, q, r, C, D)
    nu, Gamma, gam, tau = seq.nu_at, seq.Gamma, seq.gamma, seq.tau

    def b1(x: int) -> int:
        return 2 * x - q

    def b2(x: int) -> int:
        return 6 * x * x - 6 * q * x + q * q

    A = B = 0
    for l in range(1, L + 1):
        x = nu(Gamma[l])
        A += -3 * b1(x) * b1(nu(Gamma[l] - 1)) + (spec.a(2 * l, r) + 2) * b2(x)
        B += q * spec.alpha(2 * l) * b2(x)
    for l in range(L):
        g = gam[(2 * l + 1) % s]
        t = tau[(2 * l + 1) % s]
        base = nu(Gamma[l])
        dl = (nu(Gamma[l] + 1) - base - 1) % q + 1
        full = q * (6 * q * dl - 6 * dl * dl - q * q)
        A += (6 * ((g - 1) * dl * dl
                   + q * (q - 2 * dl) * ((base + dl * (g - 1) - 1) // q))
              + b2(nu(Gamma[l + 1] - 1)) - b2(base)
              - q * q * (g - 1) + t * full)
        B += spec.alpha(2 * l + 1) * full
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
    cells: dict[tuple[int, int], tuple[int, int]]   # q^2 (A_CD, B_CD)
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


@dataclass(frozen=True)
class ClosedFormTable:
    """The character-free half of the closed forms at one (q, r).

    cells holds every q^2 (A_CD, B_CD); by_residue[a] sums the cells whose
    norm residue u C^2 + v CD + w D^2 is a mod q, (u, v, w) the norm form
    at the smallest admissible n = r mod q.
    """

    cells: dict[tuple[int, int], tuple[int, int]]
    by_residue: tuple[tuple[int, int], ...]

    def weights(self, chi: DirichletCharacter) -> tuple[list[int], list[int]]:
        """The integers (a_j, b_j) with A_chi = sum_j a_j zeta_o^j and
        B_chi = sum_j b_j zeta_o^j, o = chi.order."""
        exps = char_exponents(chi)
        A_w = [0] * chi.order
        B_w = [0] * chi.order
        for (A, B), k in zip(self.by_residue, exps):
            if k >= 0:
                A_w[k] += A
                B_w[k] += B
        return A_w, B_w


def closed_form_table(spec: FamilySpec, q: int, r: int) -> ClosedFormTable:
    """Read the norm form off the smallest admissible n congruent to r,
    after verifying the norm-residue hypothesis on 2q + 2 samples from
    there, and tabulate closed_form_cd over [1, q]^2."""
    n0 = smallest_admissible_n(spec, q, r)
    k0 = (n0 - r) // q
    if not hypothesis_check_norm(spec, q, r, range(k0, k0 + 2 * q + 2)):
        raise HypothesisFailed(
            f"norm residues mod {q} vary with k at r = {r}")
    u, v, w = norm_form(family_instance(spec, n0))
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    sums = [[0, 0] for _ in range(q)]
    for C in range(1, q + 1):
        for D in range(1, q + 1):
            A, B = cells[(C, D)] = closed_form_cd(spec, q, r, C, D)
            acc = sums[(u * C * C + v * C * D + w * D * D) % q]
            acc[0] += A
            acc[1] += B
    return ClosedFormTable(cells, tuple((A, B) for A, B in sums))


def closed_form_chi(spec: FamilySpec, q: int, chi: DirichletCharacter,
                    r: int) -> ClosedFormAB:
    """Assemble A_chi(r), B_chi(r) = sum_{C,D} F_CD(r) * q^2 * (A_CD, B_CD).

    F_CD is the character value of the norm residue; closed_form_table
    holds everything that does not depend on chi.
    """
    if chi.modulus != q:
        raise ValueError("character modulus must equal q")
    table = closed_form_table(spec, q, r)
    A_w, B_w = table.weights(chi)
    return ClosedFormAB(spec.name, q, chi, r, table.cells,
                        cyclo_from_buckets(chi.order, A_w),
                        cyclo_from_buckets(chi.order, B_w))


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
