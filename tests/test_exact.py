import itertools
import random
from fractions import Fraction

import pytest

from latref.exact import (
    DimensionError,
    IntMatrix,
    RankError,
    dot,
    extended_gcd,
    identity,
    mat_mul,
    mat_vec,
    norm_sq,
    transpose,
)
from support import det, gram_schmidt, rational_solve


def det_oracle(m):
    """Determinant by permutation expansion; only for tiny matrices."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m.row(i)[perm[i]]
        total += term
    return total


def rand_matrix(rng, rows, cols, span=30):
    return IntMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_extended_gcd_fixtures():
    assert extended_gcd(12225, 12224) == (1, 1, -1)
    assert extended_gcd(1, 1) == (1, 0, 1)
    assert extended_gcd(6, 4) == (2, 1, -1)
    # tie at exactly m2/2 resolves to the positive representative
    assert extended_gcd(1, 2) == (1, 1, 0)


def test_extended_gcd_rejects_nonpositive():
    from latref.exact import DomainError

    for pair in ((0, 5), (-6, 4), (3, 0)):
        with pytest.raises(DomainError):
            extended_gcd(*pair)


def test_extended_gcd_bezout_sweep():
    import math

    rng = random.Random(7)
    for _ in range(500):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        g, u, v = extended_gcd(a, b)
        assert g == math.gcd(a, b)
        assert u * a + v * b == g
        # representative of the first coefficient is pinned to (-b/2g, b/2g]
        half = Fraction(b, 2 * g)
        assert -half < u <= half


def test_matrix_shape_validation():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(DimensionError):
        IntMatrix(-1, 0, ())
    # empty blocks are legitimate intermediate shapes
    empty = IntMatrix.from_cols([], rows=3)
    assert empty.rows == 3 and empty.cols == 0


def test_from_cols_round_trip():
    cols = [(1, 2, 3), (4, 5, 6)]
    m = IntMatrix.from_cols(cols)
    assert m.col_list() == [tuple(c) for c in cols]
    assert transpose(transpose(m)).data == m.data


def test_mat_mul_and_vec():
    a = IntMatrix.from_rows([(1, 2), (3, 4)])
    b = IntMatrix.from_rows([(0, 1), (1, 0)])
    assert mat_mul(a, b).data == ((2, 1), (4, 3))
    assert mat_vec(a, (1, 1)) == (3, 7)
    assert mat_mul(a, identity(2)).data == a.data
    with pytest.raises(DimensionError):
        mat_mul(a, IntMatrix.from_rows([(1, 2)]))


def test_det_fixtures_and_oracle():
    assert det(IntMatrix.from_rows([(1, 2), (3, 4)])) == -2
    assert det(identity(4)) == 1
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n, span=9)
        assert det(m) == det_oracle(m)


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=6)
        b = rand_matrix(rng, n, n, span=6)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_gram_schmidt_small():
    gs = gram_schmidt(IntMatrix.from_cols([(1, 1), (0, 2)]))
    assert gs.bstar[0] == (Fraction(1), Fraction(1))
    assert gs.bstar[1] == (Fraction(-1), Fraction(1))
    assert gs.mu[1][0] == 1
    assert gs.norms_sq == (Fraction(2), Fraction(2))


def test_gram_schmidt_rejects_dependent_columns():
    with pytest.raises(RankError):
        gram_schmidt(IntMatrix.from_cols([(2, 0), (1, 0)]))


def test_gram_schmidt_orthogonality_sweep():
    """The starred vectors must be pairwise orthogonal and span triangularly."""
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        cols = []
        while True:
            m = rand_matrix(rng, n + rng.randint(0, 2), n, span=8)
            try:
                gs = gram_schmidt(m)
                break
            except RankError:
                continue
        k = m.cols
        for i in range(k):
            for j in range(i):
                assert sum(gs.bstar[i][t] * gs.bstar[j][t] for t in range(m.rows)) == 0
        # original column i = bstar_i + sum_{j<i} mu_ij bstar_j
        for i in range(k):
            recon = list(gs.bstar[i])
            for j in range(i):
                for t in range(m.rows):
                    recon[t] += gs.mu[i][j] * gs.bstar[j][t]
            assert tuple(recon) == tuple(Fraction(x) for x in m.col(i))


def test_rational_solve_exact():
    assert rational_solve([(2, 0), (0, 4)], (1, 2)) == (Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n, span=12)
        if det(m) == 0:
            continue
        rhs = tuple(rng.randint(-20, 20) for _ in range(n))
        x = rational_solve(m.data, rhs)
        for i in range(n):
            assert sum(m.row(i)[j] * x[j] for j in range(n)) == rhs[i]
        done += 1


def test_rational_solve_inconsistent_and_underdetermined():
    assert rational_solve([(1, 2), (2, 4)], (1, 1)) is None
    x = rational_solve([(1, 2), (2, 4)], (1, 2))
    assert x is not None and x[0] + 2 * x[1] == 1


def test_gram_schmidt_identity():
    gs = gram_schmidt(identity(3))
    assert gs.bstar == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    for i, row in enumerate(gs.mu):
        assert all(row[j] == 0 for j in range(i))


def test_recombination_reproduces_first_row():
    # multipliers (1, 0, 5) applied to the three projected rows
    p = IntMatrix.from_rows(
        [(1, 0, 1, 1, 0), (1, 1, -1, 1, 0), (0, -1, -1, 2, 1)]
    )
    m = IntMatrix.from_rows([(1, 0, 5), (-12, -1, 1)])
    assert mat_mul(m, p).row(0) == (1, -5, -4, 11, 5)


def test_vector_helpers():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert norm_sq((3, 4)) == 25
