import math
import random
from fractions import Fraction

import pytest

from latref import (
    FrobeniusUndefinedError,
    ResourceLimitError,
    ValidationError,
    frobenius_exact,
    frobenius_lower_bound,
    integer_width,
    make_decomposition,
    representable_table,
    width_bounds,
)
from latref.exact import RankError
from support import lp_solve, random_decomposition, representable_sieve, width_q_shift_check

CUWW1 = (12223, 12224, 36674, 61119, 85569)
CUWW1_P1 = (-1, 0, 2, -1, 1)
CUWW1_P2 = (2, 1, 1, 6, 6)
CUWW1_F = 89643481


def cuww1_decomposition():
    return make_decomposition(CUWW1, CUWW1_P1, CUWW1_P2, 12225, 12224)


def test_make_decomposition_cuww1():
    d = cuww1_decomposition()
    assert (d.q1, d.q2) == (1, -1)
    assert d.a == CUWW1
    assert tuple(d.m1 * u + d.m2 * v for u, v in zip(d.p1, d.p2)) == CUWW1


def test_make_decomposition_trivial():
    d = make_decomposition((1, 1), (1, 0), (0, 1), 1, 1)
    assert (d.q1, d.q2) == (0, 1)


def test_make_decomposition_rescales_non_unimodular_rows():
    # rows (2,0),(0,1) have HNF diag(2,1): the divisor moves into m1
    d = make_decomposition((2, 3), (2, 0), (0, 1), 1, 3)
    assert (d.p1, d.p2) == ((1, 0), (0, 1))
    assert (d.m1, d.m2) == (2, 3)
    assert (d.q1, d.q2) == (-1, 1)


def test_make_decomposition_errors():
    with pytest.raises(RankError):
        make_decomposition((2, 3), (2, 3), (0, 0), 1, 1)
    with pytest.raises(ValidationError):
        make_decomposition((2, 2), (1, 0), (0, 1), 2, 2)
    with pytest.raises(ValidationError):
        make_decomposition((1, 1), (1, 0), (0, 1), 1, 2)
    with pytest.raises(ValidationError):
        make_decomposition((3, -1), (1, 0), (0, 1), 3, -1)


def test_width_bounds_cuww1():
    wa = width_bounds(cuww1_decomposition())
    assert (wa.j, wa.k) == (0, 2)
    assert wa.zbar == Fraction(2, 12224 * 36674) - Fraction(1, 12224)
    assert wa.zlower == Fraction(-1, 12224 * 12223) - Fraction(1, 12224)


def test_width_bounds_trivial():
    wa = width_bounds(make_decomposition((1, 1), (1, 0), (0, 1), 1, 1))
    assert wa.zbar == 1 and wa.zlower == 0


def test_width_bounds_lp_oracle():
    """zbar / zlower are the LP extremes of mu over the b=1 scaled polytope."""
    rng = random.Random(47)
    for _ in range(25):
        d = random_decomposition(rng)
        n = len(d.a)
        rows = (tuple(d.p1) + (-d.m2,), tuple(d.p2) + (d.m1,))
        bounds = tuple((0, None) for _ in range(n)) + ((None, None),)
        obj = (0,) * n + (1,)
        lp = (obj, rows, (d.q1, d.q2), bounds)
        wa = width_bounds(d)
        assert lp_solve(*lp).value == wa.zbar
        assert lp_solve(*lp, "min").value == wa.zlower


def test_integer_width_fixtures():
    d = cuww1_decomposition()
    wv = integer_width(d, CUWW1_F)
    assert (wv.floor_part, wv.ceil_part) == (-7334, -7333)
    assert wv.raw == 0 and wv.clamped == 0

    assert integer_width(d, 0).clamped == 1

    flat = make_decomposition((1, 1), (1, 0), (0, 1), 1, 1)
    assert integer_width(flat, 5).clamped == 6


def test_width_soundness_sweep():
    rng = random.Random(53)
    for _ in range(30):
        d = random_decomposition(rng)
        f = frobenius_exact(d.a)
        limit = f + min(d.a)
        table = representable_sieve(d.a, limit)
        for b in range(limit + 1):
            wv = integer_width(d, b)
            if wv.clamped == 0:
                assert not table[b], (d, b)
            else:
                # interval consistency: a positive count means the interval
                # really contains that many integers
                assert wv.floor_part >= wv.ceil_part


def test_width_unit_interval_length():
    rng = random.Random(59)
    for _ in range(40):
        d = random_decomposition(rng)
        wa = width_bounds(d)
        j, k = wa.j, wa.k
        expected = Fraction(
            d.a[j] * d.p1[k] - d.a[k] * d.p1[j], d.m2 * d.a[j] * d.a[k]
        )
        assert wa.zbar - wa.zlower == expected


def test_width_bounds_permutation_invariance():
    rng = random.Random(61)
    for _ in range(30):
        d = random_decomposition(rng)
        n = len(d.a)
        perm = list(range(n))
        rng.shuffle(perm)
        try:
            dp = make_decomposition(
                tuple(d.a[i] for i in perm),
                tuple(d.p1[i] for i in perm),
                tuple(d.p2[i] for i in perm),
                d.m1,
                d.m2,
            )
        except (ValidationError, RankError):
            continue
        wa, wap = width_bounds(d), width_bounds(dp)
        assert (wa.zbar, wa.zlower) == (wap.zbar, wap.zlower)


def test_frobenius_bound_cuww1():
    fb = frobenius_lower_bound(cuww1_decomposition())
    assert fb.case_tag == "positive_q1"
    assert fb.assumptions_ok and fb.failed_assumptions == ()
    assert fb.value == Fraction(1344505514, 15)
    assert fb.value_floor == 89633700
    assert 0 < fb.value <= CUWW1_F


def test_frobenius_bound_reduced_expression():
    """With m2 = 1 the dispatch lands on q1 = 0 and the bound collapses."""
    rng = random.Random(67)
    done = 0
    while done < 20:
        d = random_decomposition(rng)
        if d.m2 != 1:
            continue
        assert d.q1 == 0
        fb = frobenius_lower_bound(d)
        if not fb.assumptions_ok:
            continue
        j, k = width_bounds(d).j, width_bounds(d).k
        reduced = (
            Fraction(d.a[j] * d.a[k] - d.p1[k] * d.a[j], d.p1[k] * d.a[j] - d.p1[j] * d.a[k])
            - Fraction(d.a[j], d.p1[j])
        )
        assert fb.value == reduced
        done += 1


def test_frobenius_bound_failed_assumption():
    d = make_decomposition((1, 2, 1), (1, 1, 2), (0, 1, -1), 1, 1)
    fb = frobenius_lower_bound(d)
    assert fb.case_tag == "nonpositive_q1"
    assert not fb.assumptions_ok
    assert fb.failed_assumptions == ("2a",)
    assert fb.value is None
    # the violated inequality, spelled out: p1_k/a_k must stay below m2 + q1
    k = width_bounds(d).k
    assert Fraction(d.p1[k], d.a[k]) >= d.m2 + d.q1


def test_frobenius_bound_soundness_sweep():
    rng = random.Random(71)
    checked = 0
    for _ in range(60):
        d = random_decomposition(rng)
        fb = frobenius_lower_bound(d)
        if fb.assumptions_ok:
            assert fb.value <= frobenius_exact(d.a)
            checked += 1
    assert checked >= 10


def test_frobenius_exact_fixtures():
    assert frobenius_exact((3, 5)) == 7
    assert frobenius_exact((2, 3)) == 1
    # independent scan oracle on the (3,5) fixture
    table = representable_sieve((3, 5), 20)
    assert max(v for v in range(21) if not table[v]) == 7


def test_frobenius_exact_random_vs_sieve():
    rng = random.Random(73)
    done = 0
    while done < 25:
        n = rng.choice((2, 3, 4))
        a = tuple(rng.randint(2, 50) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        f = frobenius_exact(a)
        table = representable_sieve(a, f + min(a) + 1)
        assert not table[f]
        assert all(table[v] for v in range(f + 1, f + min(a) + 2))
        done += 1


def test_frobenius_exact_guards():
    with pytest.raises(FrobeniusUndefinedError):
        frobenius_exact((2, 4))
    with pytest.raises(ResourceLimitError):
        frobenius_exact((10**6 + 1, 10**6 + 3))
    from latref.exact import DomainError

    with pytest.raises(DomainError):
        frobenius_exact((0, 3))


def test_representable_table_semantics():
    # least representable value in each residue class mod min(a)
    assert representable_table((3, 5)) == [0, 10, 5]


def test_q_shift_invariance():
    d = cuww1_decomposition()
    for lam in range(-2, 3):
        assert width_q_shift_check(d, CUWW1_F, lam)
    rng = random.Random(79)
    for _ in range(20):
        dd = random_decomposition(rng)
        b = rng.randint(0, 200)
        for lam in range(-5, 6):
            assert width_q_shift_check(dd, b, lam)
