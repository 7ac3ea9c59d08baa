"""The L-value engine: the chi-free residue table of the partial Hecke
L-value at s=0 on the integer cone kernel, its fold into Q(zeta_o), and the
same tables from the walk over the reduced forms mod q.  The rational
references that selftest checks it against live in acceptance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cfrac import minus_length, minus_word, period_blocks, plus_expand
from .characters import DirichletCharacter, chi_sum
from .errors import BoundExceeded, DeltaOutOfRange, InternalInvariantError
from .exact import QuadSurd
from .kernels import KERNEL_STEP_BOUND, zeta12_times
from .quadfield import norm_form


def check_delta_hypotheses(delta: QuadSurd) -> None:
    """Refuse delta = (a + b sqrt(d))/c unless delta > 2 and
    0 < delta' < 1, decided on the integers: c > 0 and d is not a square,
    so with b > 0 the conditions are a > b sqrt(d), a - c < b sqrt(d) and
    2c - a < b sqrt(d), each side squared where both are positive.  b > 0
    is needed, as delta - delta' > 1.
    """
    a, b, c = delta.a, delta.b, delta.c
    bbd = b * b * delta.d
    if not (b > 0 and a > 0 and a * a > bbd
            and (a < c or (a - c) ** 2 < bbd)
            and (2 * c < a or (2 * c - a) ** 2 < bbd)):
        raise DeltaOutOfRange(
            f"delta = {delta} must satisfy delta > 2 and 0 < delta' < 1")


def table_input(delta: QuadSurd, q: int
                ) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """(norm form, plus period of delta - 1) of delta for a table mod q,
    delta validated once: reduced, [1, delta] an ideal of the maximal order
    (norm_form) and q^2 * m within KERNEL_STEP_BOUND, m the length of the
    minus period, which is minus_word of the plus period.  delta - 1 > 1
    and -1 < (delta - 1)' < 0, so that plus expansion is purely periodic.
    """
    check_delta_hypotheses(delta)
    form = norm_form(delta)
    plus = plus_expand(delta - 1)
    if plus.preperiod:
        raise InternalInvariantError(
            "reduced delta - 1 must have a purely periodic plus expansion")
    m = minus_length(plus.period)
    if q * q * m > KERNEL_STEP_BOUND:
        raise BoundExceeded(
            f"q^2 * m = {q * q * m} kernel steps exceed {KERNEL_STEP_BOUND}")
    return form, plus.period


def residue_table(delta: QuadSurd, q: int) -> tuple[int, ...]:
    """The chi-free table T over the residues mod q of the L-value at
    b = [1, delta]^{-1}: T[a] sums 12*q^2*Z(C, D) over the cells (C, D) in
    [1, q]^2 whose norm residue N((C + D*delta)b) mod q is the unit a, and
    T[a] = 0 at non-units, whose cells skip the kernel.  N(b) need not be
    prime to q: only N((C + D*delta)b) mod q enters.

    Each cell runs the kernel over the whole minus word, q^2 * m steps;
    form_tables computes the same table from the forms the word walks
    through.
    """
    (u, v, w), plus = table_input(delta, q)
    digits = minus_word(plus).period
    unit = [math.gcd(a, q) == 1 for a in range(q)]
    table = [0] * q
    for C in range(1, q + 1):
        for D in range(1, q + 1):
            a = (u * C * C + v * C * D + w * D * D) % q
            if unit[a]:
                table[a] += zeta12_times(q, C, D, digits)
    return tuple(table)


def form_counts(form: tuple[int, int, int], plus, q: int
                ) -> dict[tuple[int, int, int], list[int]]:
    """One pass over the plus period a_0 ... a_{s-1} of a norm form
    (u, v, w), which stands for its minus word b_0 ... b_{m-1}
    (cfrac.minus_word): each form (A, B, C) mod q the walk meets after
    digit b_i, mapped to [count, sum of the next digits b_{i+1}] over the
    i < m where it is met (b_m = b_0).

    The walk starts at (u, -v, w), whose value at (X, Y) = (-C, D) is the
    cell's norm residue, and digit b pulls the form back through the
    kernel step (X, Y) -> (Y, b Y - X), the inverse of S(b):
    (A, B, C) -> (A b^2 + B b + C, -2 A b - B, A).  So the state
    (X_i, X_{i+1}) of the cell (C, D) after i + 1 kernel steps is a point
    where the form met after b_i takes the cell's norm residue, and
    summand i + 1 of zeta12_times is g + b_{i+1} h of that state.  For a
    reduced delta that form is norm_form(delta_{i+1}) with its middle
    term negated, delta_{i+1} = 1/(b_i - delta_i): Zagier's reduced forms
    of the cycle of delta, mod q.

    The minus word is read off the plus period in the blocks of
    cfrac.period_blocks: block (i, j, k) is the special digit a_i + 2 and a
    run of L = a_j - 1 twos.  The special digit is one step.  S(2)^q = I
    mod q, so the forms the run meets repeat with a period dividing q: the
    walk takes min(L, q) steps with 2, and position t of the run is met
    (L - 1 - t) // q + 1 times, each time followed by 2.  The run's last
    position, or the special digit when L = 0, is followed by the next
    special digit a_k + 2.
    """
    counts: dict[tuple[int, int, int], list[int]] = {}
    u, v, w = form
    A, B, C = u % q, -v % q, w % q
    for i, j, k in period_blocks(len(plus)):
        run = plus[j] - 1
        # the special digit once, then run position t - 1 at step t
        b, times, orbit = plus[i] + 2, 1, []
        for t in range(min(run, q) + 1):
            A, B, C = key = ((A * b + B) * b + C) % q, (-2 * A * b - B) % q, A
            entry = counts.setdefault(key, [0, 0])
            entry[0] += times
            entry[1] += 2 * times
            orbit.append(key)
            b, times = 2, (run - 1 - t) // q + 1
        A, B, C = key = orbit[(run - 1) % q + 1 if run else 0]
        # the last form is followed by a_k + 2, not 2
        counts[key][1] += plus[k]
    return counts


def form_tables(inputs, q: int) -> list[tuple[int, ...]]:
    """residue_table(delta, q) for each (norm form, plus period) pair of
    the shape table_input(delta, q) returns, from the form walk: the table
    is T[a] = sum over f of bsum[f] H_f[a] - 3 count[f] G_f[a], (count,
    bsum) = form_counts(form, plus, q) and (G_f, H_f) from form_sums.  Over a
    reduced cycle delta_1 ... delta_m this is Zagier's
    sum_j ceil(delta_j) H_{f_j} - 3 G_{f_j} at level q, f_j the form of
    delta_j; at q = 1 it is 12 zeta(0) = sum_j (b_j - 3).

    The sums of each distinct form are built once, added into the table
    of every member that meets the form and dropped.  The pairs come
    validated; none is checked again here.
    """
    tables = [[0] * q for _ in inputs]
    uses: dict[tuple[int, int, int], list] = {}
    for table, (form, plus) in zip(tables, inputs):
        for f, (count, bsum) in form_counts(form, plus, q).items():
            uses.setdefault(f, []).append((table, count, bsum))
    for members, (G, H) in zip(uses.values(), form_sums(uses, q)):
        for table, count, bsum in members:
            # g is 3 (2X - q)(2Y - q), Y = q - X_prev: -3 b1 b1
            for a in range(q):
                table[a] += bsum * H[a] - 3 * count * G[a]
    return [tuple(table) for table in tables]


def form_sums(forms, q: int):
    """(G, H) of each form (A, B, C) mod q, in order, one pair at a time:
    G[a] sums b1(x) b1(y) and H[a] sums b2(y) over the points (x, y) of
    [1, q]^2 where A x^2 + B x y + C y^2 is the unit a mod q, with
    b1(x) = 2x - q and b2(y) = 6y^2 - 6qy + q^2, the two terms of
    zeta12_times at the state (X_prev, X) = (x, y).  The unit mask and
    the b1, b2 tables are built once per call.

    The cells s and -s are summed as one: the form takes the same value
    at both, b2(q - y) = b2(y), and b1(q - x) = -b1(x) for 1 <= x < q.
    So each column x < q/2 stands for itself and its mirror q - x at twice
    the weight: G gets 2 b1(x) b1(y) at y < q, and nothing at y = q,
    where the two terms cancel (b1(q) = q on both sides), and H gets
    2 b2(y).  The columns x = q and, for even q, x = q/2 are their own
    mirrors and are summed in full.  The rows of a column are walked by
    differences, f(x, y + 1) - f(x, y) = B x + C (2y + 1).
    """
    unit = [math.gcd(a, q) == 1 for a in range(q)]
    b1 = [2 * x - q for x in range(q + 1)]
    b2 = [6 * y * y - 6 * q * y + q * q for y in range(q + 1)]
    b1_in, b2_twice = b1[1:q], [2 * h for h in b2[1:q]]
    own_mirror = [q] if q % 2 else [q // 2, q]
    for A, B, C in forms:
        G, H = [0] * q, [0] * q
        C2 = 2 * C
        for x in range(1, (q + 1) // 2):
            Ax2, g = A * x * x, 2 * b1[x]
            a, diff = Ax2, B * x + C
            for b1y, h in zip(b1_in, b2_twice):
                a = (a + diff) % q
                diff += C2
                if unit[a]:
                    G[a] += g * b1y
                    H[a] += h
            a = Ax2 % q
            if unit[a]:
                H[a] += 2 * b2[q]
        for x in own_mirror:
            Ax2, Bx, g = A * x * x, B * x, b1[x]
            for y in range(1, q + 1):
                a = (Ax2 + (Bx + C * y) * y) % q
                if unit[a]:
                    G[a] += g * b1[y]
                    H[a] += b2[y]
        yield G, H


def partial_hecke_L_zero(delta: QuadSurd, chi: DirichletCharacter):
    """L(0, chi o N, b) for b = [1, delta]^{-1} in Q(sqrt(delta.d)), as an
    exact cyclotomic number: the chi-fold of residue_table(delta, q) over
    12*q^2, q = chi.modulus.
    """
    q = chi.modulus
    return chi_sum(chi, residue_table(delta, q), Fraction(1, 12 * q * q))
