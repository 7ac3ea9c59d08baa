"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every value compared here is exact (integers, rationals, cyclotomic
integers); the stated tolerance for each criterion is therefore zero.
"""

import pytest

from heckezero import acceptance

# each criterion's record as selftest prints it; a change here is a change
# in what selftest checks
RECORDED = [
    (1, "exact L-value oracle", "L-values [(5, '2/3'), (2, '2/3')], "
     "B1(chi3) = -1/3, target 2/3 = (-1/3)(-2)"),
    (2, "q=1 zero checks", "q=1 zeta values [(2, '0'), (5, '0')]"),
    (3, "per-cell zeta values",
     "Z(1,1): d=2 gives 2/9 (want 2/9), d=5 gives -1/9 (want -1/9)"),
    (4, "cone-ratio identity", "residual 0 on all 228 cases"),
    (5, "continued-fraction suite",
     "conversion word ok; 50 random agreements; unit products ok"),
    (6, "closed form per cell",
     "(-12, -36) and the k = 0, 2, 4 cross-checks agree"),
    (7, "linearity end to end",
     "all r in 0..4 affine-exact and closed-form-match"),
    (8, "sieve pair search", "two conjugate (5,5, quartic) pairs; none for "
     "q=3; q=7 yields its three verified p=7 pairs"),
    (9, "sieve congruence self-consistency",
     "congruence and residue reports consistent at n=5,7,13,17"),
    (10, "structural property suites", "bridges and block periods hold; "
     "closed forms equal the kernel on 554 cells"),
]


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(acceptance.ALL_CRITERIA) + 1)])
def test_criterion(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.detail
    assert (result.number, result.name, result.detail) == \
        RECORDED[result.number - 1]
    if result.time_limit is not None:
        assert result.elapsed <= result.time_limit, (
            f"exceeded {result.time_limit}s limit: {result.elapsed:.2f}s")
