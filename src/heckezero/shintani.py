"""The L-value engine: the lattice-translation recursion, per-(C,D) partial
zeta values at s=0, the chi-free residue table of the partial Hecke L-value
and its fold, and the cone-ratio identity residual that selftest checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cfrac import MinusCF, delta_sequence, evaluate_periodic, minus_expand
from .characters import DirichletCharacter, chi_weights
from .errors import BoundExceeded, DeltaOutOfRange, InternalInvariantError
from .exact import QuadSurd, bernoulli_poly, cyclo_from_buckets, frac_pos
from .kernels import KERNEL_STEP_BOUND, zeta12_times
from .quadfield import FieldData, norm_form


class YamamotoSeq:
    """Translation coordinates x_{-1}, x_0, ..., x_N of the shifted lattice.

    x[i] is x_{i-1} (one slot of offset); every x_i lies in (0, 1] with
    q*x_i an integer, and y_i = 1 - x_{i-1}.
    """

    __slots__ = ("q", "C", "D", "x")

    def __init__(self, q: int, C: int, D: int, x: tuple[Fraction, ...]):
        for v in x:
            if not (0 < v <= 1) or (v * q).denominator != 1:
                raise InternalInvariantError(f"x value {v} out of contract")
        self.q, self.C, self.D, self.x = q, C, D, x

    def __eq__(self, other) -> bool:
        if other.__class__ is not YamamotoSeq:
            return NotImplemented
        return (self.q, self.C, self.D, self.x) == \
            (other.q, other.C, other.D, other.x)

    def x_at(self, i: int) -> Fraction:
        """x_i for i >= -1."""
        return self.x[i + 1]

    def y_at(self, i: int) -> Fraction:
        """y_i = 1 - x_{i-1}, in [0, 1).  The boundary x_{i-1} = 1 gives 0."""
        v = 1 - self.x_at(i - 1)
        return v if v != 1 else Fraction(0)


def yamamoto_sequence(q: int, C: int, D: int, mcf: MinusCF,
                      steps: int | None = None) -> YamamotoSeq:
    """Run x_{i+1} = <b_i x_i + y_i> from the (C, D) seeds.

    By default one minus period of steps; identity checkers extend to
    lam * m steps with the digits taken cyclically.
    """
    m = mcf.m
    if steps is None:
        steps = m
    b = mcf.period
    xs = [frac_pos(1 - Fraction(C, q)), frac_pos(Fraction(D, q))]
    for i in range(steps):
        y = 1 - xs[-2]
        if y == 1:
            y = Fraction(0)
        xs.append(frac_pos(b[i % m] * xs[-1] + y))
    return YamamotoSeq(q, C, D, tuple(xs))


def partial_zeta_zero(q: int, C: int, D: int, mcf: MinusCF) -> Fraction:
    """Z(C,D) = sum_{i=1}^{m} B_1(x_i)B_1(y_i) + (b_i/2) B_2(x_i).

    The digit paired with summand i is b_i with b_m = b_0.  Runs on the
    integer kernel; 12*q^2*Z is always an integer.
    """
    return Fraction(zeta12_times(q, C, D, list(mcf.period)), 12 * q * q)


def check_delta_hypotheses(delta: QuadSurd) -> None:
    if not (delta > 2 and 0 < delta.conj() < 1):
        raise DeltaOutOfRange(
            f"delta = {delta} must satisfy delta > 2 and 0 < delta' < 1")


def residue_table(delta: QuadSurd, q: int) -> tuple[int, ...]:
    """The chi-free table T over the residues mod q of the L-value at
    b = [1, delta]^{-1}: T[a] sums 12*q^2*Z(C, D) over the cells (C, D) in
    [1, q]^2 whose norm residue N((C + D*delta)b) mod q is the unit a, and
    T[a] = 0 at non-units, whose cells skip the kernel.

    delta is validated once: reduced, [1, delta] an ideal of the maximal
    order (norm_form) and q^2 * m within KERNEL_STEP_BOUND.  N(b) need not
    be prime to q: only N((C + D*delta)b) mod q enters.
    """
    check_delta_hypotheses(delta)
    u, v, w = norm_form(delta)
    mcf = minus_expand(delta)
    if not mcf.purely_periodic:
        raise InternalInvariantError(
            "reduced delta must have a purely periodic minus expansion")
    if q * q * mcf.m > KERNEL_STEP_BOUND:
        raise BoundExceeded(
            f"q^2 * m = {q * q * mcf.m} kernel steps exceed "
            f"{KERNEL_STEP_BOUND}")
    digits = list(mcf.period)
    unit = [math.gcd(a, q) == 1 for a in range(q)]
    table = [0] * q
    for C in range(1, q + 1):
        for D in range(1, q + 1):
            a = (u * C * C + v * C * D + w * D * D) % q
            if unit[a]:
                table[a] += zeta12_times(q, C, D, digits)
    return tuple(table)


def partial_hecke_L_zero(delta: QuadSurd, chi: DirichletCharacter):
    """L(0, chi o N, b) for b = [1, delta]^{-1} in Q(sqrt(delta.d)), as an
    exact cyclotomic number: the chi-fold of residue_table(delta, q) over
    12*q^2, q = chi.modulus.
    """
    q = chi.modulus
    return cyclo_from_buckets(chi.order,
                              chi_weights(chi, residue_table(delta, q)),
                              Fraction(1, 12 * q * q))


def lattice_unit_order(F: FieldData, delta: QuadSurd, q: int) -> int:
    """Order of multiplication by the totally positive unit on [1, delta]
    modulo q.

    This is the window length for orbit closure.  It equals the order of the
    unit in O/qO only when the index of [1, delta] in O is coprime to q, so
    the matrix order is computed directly.
    """
    if q == 1:
        return 1
    eps = F.tp_fund_unit
    cols = []
    for gen in (QuadSurd.from_rational(1, F.d), delta):
        u, v = (eps * gen).coords(delta)
        if u.denominator != 1 or v.denominator != 1:
            raise InternalInvariantError(
                "unit does not stabilize the lattice [1, delta]")
        cols.append((int(u) % q, int(v) % q))
    m00, m10 = cols[0]
    m01, m11 = cols[1]
    a, b, c, d = m00, m01, m10, m11
    for k in range(1, q ** 4 + 1):
        if (a % q, b % q, c % q, d % q) == (1, 0, 0, 1):
            return k
        a, b, c, d = (a * m00 + b * m10, a * m01 + b * m11,
                      c * m00 + d * m10, c * m01 + d * m11)
        a, b, c, d = a % q, b % q, c % q, d % q
    raise InternalInvariantError("unit matrix order not found mod q")


def yamamoto_identity_residual(F: FieldData, mcf: MinusCF, q: int,
                               C: int, D: int) -> Fraction:
    """Aggregate difference between the cone-ratio form and the digit form
    of the s=0 summand, over a full lam*m window.  Contract: exactly 0.
    """
    lam = lattice_unit_order(F, evaluate_periodic(mcf), q)
    m = mcf.m
    n = lam * m
    seq = yamamoto_sequence(q, C, D, mcf, steps=n)
    ds = delta_sequence(F, mcf)
    acc = Fraction(0)
    for i in range(1, n + 1):
        d_i = ds.deltas[(i - 1) % m]  # deltas[0] is delta_1
        t = d_i.trace()
        u = d_i.trace() / d_i.norm()  # trace of 1/delta_i
        b = mcf.period[i % m]
        acc += (t / 4) * bernoulli_poly(2, seq.x_at(i))
        acc += (u / 4) * bernoulli_poly(2, seq.y_at(i))
        acc -= Fraction(b, 2) * bernoulli_poly(2, seq.x_at(i))
    return acc
