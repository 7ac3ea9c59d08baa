"""The cone-sum kernel: the per-cell lattice recursion on Python integers,
exact at any size.

Everything is scaled by q so the lattice recursion runs on integers:
X_i = q*x_i in [1, q], Y_i = q*y_i = q - X_{i-1}, and the returned value is
12*q^2 * sum_i [ B1(x_i)B1(y_i) + (b_i/2) B2(x_i) ], an exact integer.
"""

from __future__ import annotations

# q^2 * m kernel steps for a minus period of length m, about a microsecond
# each; the largest benchmark L-value takes about 10^5.
KERNEL_STEP_BOUND = 10 ** 8


def zeta12_times(q: int, C: int, D: int, digits) -> int:
    m = len(digits)
    x_prev = (q - C - 1) % q + 1   # q * frac_pos(1 - C/q)
    x_cur = (D - 1) % q + 1        # q * frac_pos(D/q)
    total = 0
    for i in range(m):
        b = digits[i]
        x_next = (b * x_cur + q - x_prev - 1) % q + 1
        x_prev, x_cur = x_cur, x_next
        # summand index i+1 pairs x_{i+1}, y_{i+1} = 1 - x_i with b_{i+1}
        bi = digits[(i + 1) % m]
        X, Y = x_cur, q - x_prev
        total += 3 * (2 * X - q) * (2 * Y - q) + bi * (6 * X * X - 6 * q * X + q * q)
    return total
