"""The integer cone kernel against the Bernoulli-polynomial reference.

``oracles.partial_zeta_zero_reference`` evaluates Z(C, D) with Fractions
straight from B_1 and B_2, sharing no code with the kernel, so
``12*q^2*Z`` from it is an independent exact oracle for ``zeta12_times``.
"""

import random

from heckezero.cfrac import MinusCF
from heckezero.kernels import zeta12_times
from oracles import partial_zeta_zero_reference


def reference12(q, C, D, word):
    Z = partial_zeta_zero_reference(q, C, D, MinusCF((), tuple(word)))
    scaled = 12 * q * q * Z
    assert scaled.denominator == 1
    return scaled.numerator


def test_small_oracles():
    # 12*q^2*Z(C, D) for the two reference words
    assert zeta12_times(3, 1, 1, [3]) == -12        # Z = -1/9
    assert zeta12_times(3, 1, 1, [4, 2]) == 24      # Z = 2/9


def test_agreement_random_words():
    rng = random.Random(404)
    for _ in range(200):
        q = rng.randint(1, 50)
        C = rng.randint(1, q)
        D = rng.randint(1, q)
        word = [rng.randint(2, 9) for _ in range(rng.randint(1, 8))]
        assert zeta12_times(q, C, D, word) == reference12(q, C, D, word)


def test_agreement_huge_q():
    # q and digits far beyond 64 bits in the products the kernel forms
    rng = random.Random(405)
    for _ in range(5):
        q = rng.randint(10**9, 10**10)
        C = rng.randint(1, q)
        D = rng.randint(1, q)
        word = [rng.randint(2, 10**6) for _ in range(4)]
        assert zeta12_times(q, C, D, word) == reference12(q, C, D, word)


def test_q_one_is_zero():
    for word in ([3], [4, 2], [5, 2, 2]):
        assert zeta12_times(1, 1, 1, word) == 0
