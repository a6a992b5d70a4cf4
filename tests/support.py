"""Shared helpers for the test suite: small oracles and generators."""

import itertools
import math
import random
from fractions import Fraction

from latref import make_decomposition
from latref.exact import IntMatrix, RankError
from latref.knapsack import ValidationError


def representable_sieve(a, limit):
    """Boolean reachability table; intentionally not the residue method."""
    table = [False] * (limit + 1)
    table[0] = True
    for v in range(1, limit + 1):
        table[v] = any(v >= ai and table[v - ai] for ai in a)
    return table


def random_decomposition(rng, n=None):
    """Random valid decomposition with positive entries bounded by 60."""
    while True:
        k = n or rng.choice((3, 4, 5))
        p1 = tuple(rng.randint(-3, 4) for _ in range(k))
        p2 = tuple(rng.randint(-3, 4) for _ in range(k))
        m1 = rng.randint(1, 6)
        m2 = rng.randint(1, 4)
        a = tuple(m1 * u + m2 * v for u, v in zip(p1, p2))
        if not all(1 <= x <= 60 for x in a):
            continue
        if math.gcd(*a) != 1:
            continue
        try:
            return make_decomposition(a, p1, p2, m1, m2)
        except (ValidationError, RankError):
            continue


def hnf_oracle(a):
    """Column-style HNF by plain Euclidean elimination, kept deliberately
    different from the library routine: pivot by repeated subtraction."""
    m, n = a.rows, a.cols
    cols = [list(c) for c in a.col_list()]
    row = 0
    piv = 0
    while row < m and piv < n:
        live = [j for j in range(piv, n) if cols[j][row] != 0]
        if not live:
            row += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][row]))
            j0 = live[0]
            for j in live[1:]:
                q = cols[j][row] // cols[j0][row]
                for i in range(m):
                    cols[j][i] -= q * cols[j0][i]
            live = [j for j in live if cols[j][row] != 0]
        j0 = live[0]
        cols[piv], cols[j0] = cols[j0], cols[piv]
        if cols[piv][row] < 0:
            cols[piv] = [-x for x in cols[piv]]
        for j in range(piv):
            q = cols[j][row] // cols[piv][row]
            for i in range(m):
                cols[j][i] -= q * cols[piv][i]
        row += 1
        piv += 1
    return IntMatrix.from_cols(cols, rows=m)


def laplace_det(mat):
    """Determinant by cofactor expansion along the first row; small
    matrices only, and deliberately not the library's Bareiss routine."""
    if not mat:
        return Fraction(1)
    return sum(
        (-1) ** j * mat[0][j] * laplace_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def full_row_rank(rows):
    m, n = len(rows), len(rows[0])
    return any(
        laplace_det([[row[j] for j in basic] for row in rows]) != 0
        for basic in itertools.combinations(range(n), m)
    )


def box_vertices(rows, rhs, box):
    """Every basic feasible point of {A x = b, lo <= x <= hi} for a full
    row rank A and a finite box: m basic columns solved by Cramer's rule,
    every other column at one of its two bounds."""
    m, n = len(rows), len(box)
    for basic in itertools.combinations(range(n), m):
        sub = [[row[j] for j in basic] for row in rows]
        d = laplace_det(sub)
        if d == 0:
            continue
        rest = [j for j in range(n) if j not in basic]
        for ends in itertools.product((0, 1), repeat=len(rest)):
            x = [None] * n
            for j, e in zip(rest, ends):
                x[j] = Fraction(box[j][e])
            r = [b - sum(row[j] * x[j] for j in rest) for row, b in zip(rows, rhs)]
            for k, j in enumerate(basic):
                swapped = [s[:k] + [v] + s[k + 1 :] for s, v in zip(sub, r)]
                x[j] = Fraction(laplace_det(swapped)) / d
            if all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
                yield tuple(x)
