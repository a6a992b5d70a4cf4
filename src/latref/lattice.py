"""Lattice algorithms over the integers.

Integral LLL reduction (integer Gram-Schmidt data, its rows built lazily
because input bases can have huge entries while reduced ones are small),
column-style Hermite normal form with transformation matrix, integer
kernel bases from the echelon transform, exact integer solves (forward
substitution through a triangular matrix, rows of the inverse of a
unimodular matrix), and the weighted LLL embedding that gives the
pipeline its one reduced kernel: kernel_and_solution runs it on A x = b,
and build_extended reads the lattice orthogonal to the short block off
the inverse of that kernel basis, completed by the Hermite transform.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import List, Optional

from .exact import (
    DimensionError,
    IntMatrix,
    IntVector,
    RankError,
    _bezout,
    mat_vec,
    vec,
)


@dataclass(frozen=True)
class LLLParams:
    """Reduction quality parameter.

    delta is an int or a ``Fraction`` (floats are refused: they are not
    exact).  delta = 1 (strongest reduction) still terminates on integer
    input; the polynomial bound only holds below 1.
    """

    delta: Fraction = Fraction(3, 4)

    def __post_init__(self):
        d = self.delta
        if not isinstance(d, (int, Fraction)) or isinstance(d, bool):
            raise TypeError("delta must be an int or a Fraction, got %r" % (d,))
        if not Fraction(1, 4) < d <= 1:
            raise ValueError("delta must lie in (1/4, 1], got %s" % d)
        object.__setattr__(self, "delta", Fraction(d))


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) with ties to even, for den > 0, without a Fraction."""
    q, r = divmod(2 * num + den, 2 * den)
    if r == 0 and q & 1:
        q -= 1
    return q


def lll_reduce(basis: IntMatrix, params: LLLParams = None) -> IntMatrix:
    """LLL-reduce the columns of ``basis`` (they must be linearly independent).

    Integral LLL (de Weger 1987; Cohen 1993, Alg. 2.6.7): with b*_j the
    Gram-Schmidt vectors, it keeps only the integers d_0 = 1,
    d_{j+1} = d_j ||b*_j||^2 and lambda_kj = d_{j+1} mu_kj, and updates
    them in place on size reductions and swaps.  Row k of lambda is built
    the first time k is reached, from the dot products of the untouched
    column b_k with the already-reduced b_0..b_{k-1}, and d_{k+1} after b_k
    has been size-reduced.  An input basis can have entries of hundreds of
    thousands of bits while the reduced columns are small, so the up-front
    Gram matrix of the input would cost more than the reduction itself.

    Deterministic: column k is size-reduced against k-1..0 (quotients round
    half to even), then the exchange condition
    ||b*_k||^2 >= (delta - mu_{k,k-1}^2) ||b*_{k-1}||^2 is tested, as
    q (d_{k+1} d_{k-1} + lambda_{k,k-1}^2) >= p d_k^2 for delta = p/q.
    Raises RankError naming the first column that is linearly dependent on
    its predecessors.
    """
    if params is None:
        params = LLLParams()
    p, q = params.delta.numerator, params.delta.denominator
    n = basis.cols
    b = [list(basis.col(j)) for j in range(n)]
    d = [1] * (n + 1)
    lam: List[List[int]] = [[] for _ in range(n)]  # lam[k][j] for j < k
    k, kmax = 0, -1
    while k < n:
        bk, row = b[k], lam[k]
        fresh = k > kmax
        if fresh:
            kmax = k
            for j in range(k):
                u = sum(map(mul, bk, b[j]))
                lj = lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - row[i] * lj[i]) // d[i]
                row.append(u)
        for j in range(k - 1, -1, -1):
            if 2 * abs(row[j]) > d[j + 1]:
                r = _round_half_even(row[j], d[j + 1])
                b[k] = bk = [x - r * y for x, y in zip(bk, b[j])]
                lj = lam[j]
                for t in range(j):
                    row[t] -= r * lj[t]
                row[j] -= r * d[j + 1]
        if fresh:
            u = sum(map(mul, bk, bk))
            for i in range(k):
                u = (d[i + 1] * u - row[i] * row[i]) // d[i]
            if u == 0:
                # columns past kmax are still the input's, so this names the
                # column a Gram-Schmidt pass over the input would name
                raise RankError("column %d is linearly dependent on earlier columns" % k, index=k)
            d[k + 1] = u
        if k == 0 or q * (d[k + 1] * d[k - 1] + row[k - 1] ** 2) >= p * d[k] ** 2:
            k += 1
            continue
        lk = row[k - 1]
        nd = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        b[k - 1], b[k] = bk, b[k - 1]
        lam[k - 1], lam[k] = row[: k - 1], lam[k - 1] + [lk]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lk * t) // d[k]
            li[k - 1] = (nd * t + lk * li[k]) // d[k + 1]
        d[k] = nd
        k = max(k - 1, 1)
    return IntMatrix.from_cols([tuple(c) for c in b], rows=basis.rows)


# ---------------------------------------------------------------------------
# Hermite normal form (column operations, lower triangular)


@dataclass(frozen=True)
class HnfResult:
    """A * u = (d | 0) with u unimodular and d lower triangular, nonnegative,
    each diagonal entry the strict maximum of its row."""

    d: IntMatrix
    u: IntMatrix


def _column_echelon(a: IntMatrix):
    """Reduce ``a`` to canonical column echelon form by unimodular column ops.

    Returns (h, u, pivots) as nested lists / list: h = a @ u, pivots[t] is the
    row of the pivot in column t.  Works for any shape and rank; columns past
    the rank come out zero.  The column operations act on the stacked rows
    of [a; I], whose first m rows become h and the rest u.
    """
    m, n = a.rows, a.cols
    w = [list(r) for r in a.data] + [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop_swap(j0, j1):
        for row in w:
            row[j0], row[j1] = row[j1], row[j0]

    def colop_neg(j):
        for row in w:
            row[j] = -row[j]

    def colop_axpy(dst, src, q):
        # column dst -= q * column src
        if q == 0:
            return
        for row in w:
            row[dst] -= q * row[src]

    def colop_combine(i, jt, jo):
        # unimodular 2x2 mix so that column jt picks up gcd(w[i][jt], w[i][jo])
        # at row i and column jo becomes zero there
        g, p, q = _bezout(w[i][jt], w[i][jo])
        aa, bb = w[i][jt] // g, w[i][jo] // g
        for row in w:
            x, y = row[jt], row[jo]
            row[jt], row[jo] = p * x + q * y, aa * y - bb * x

    pivots: List[int] = []
    t = 0
    for i in range(m):
        if t == n:
            break
        j0 = next((j for j in range(t, n) if w[i][j] != 0), None)
        if j0 is None:
            continue
        if j0 != t:
            colop_swap(j0, t)
        for j in range(t + 1, n):
            if w[i][j] != 0:
                colop_combine(i, t, j)
        if w[i][t] < 0:
            colop_neg(t)
        for j in range(t):
            colop_axpy(j, t, w[i][j] // w[i][t])
        pivots.append(i)
        t += 1
    return w[:m], w[m:], pivots


def hnf(a: IntMatrix) -> HnfResult:
    """Hermite normal form of a full-row-rank matrix: a @ u = (d | 0)."""
    h, u, pivots = _column_echelon(a)
    if len(pivots) < a.rows or pivots != list(range(a.rows)):
        missing = next(i for i in range(a.rows) if i not in pivots)
        raise RankError("matrix does not have full row rank (row %d)" % missing, index=missing)
    d = IntMatrix.from_rows([row[: a.rows] for row in h], cols=a.rows)
    return HnfResult(d, IntMatrix.from_rows(u, cols=a.cols))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Lattice basis of {x integer | a x = 0} (all of it, not a sublattice)."""
    _, u, pivots = _column_echelon(a)
    r = len(pivots)
    return IntMatrix.from_rows([row[r:] for row in u], cols=a.cols - r)


def forward_substitute(rows, rhs) -> Optional[List[int]]:
    """Integer y with sum_{j <= i} rows[i][j] * y[j] = rhs[i] for every i.

    ``rows`` is lower triangular with a nonzero diagonal; entries right of
    the diagonal are never read.  Returns None as soon as a division
    leaves a remainder, i.e. when the solution is not integral.
    """
    y: List[int] = []
    for row, r in zip(rows, rhs):
        q, rem = divmod(r - sum(map(mul, row, y)), row[len(y)])
        if rem:
            return None
        y.append(q)
    return y


def inverse_rows(u: IntMatrix, idx) -> Optional[List[IntVector]]:
    """Rows idx of U^-1 for a square integer U with det U = ±1.

    Solves y U = e_i for every i in idx by fraction-free (Bareiss)
    elimination on U^T with the unit vectors appended, every division
    exact, then back-substitutes; det U = ±1 makes every solution
    integral, so those divisions are exact too.  A zero pivot at step k
    means row k of U depends on rows 0..k-1 and raises RankError; returns
    None when |det U| != 1.
    """
    n = u.rows
    w = [list(u.col(k)) + [1 if k == i else 0 for i in idx] for k in range(n)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if w[i][k]), None)
        if p is None:
            raise RankError("row %d of U is linearly dependent on earlier rows" % k, index=k)
        w[k], w[p] = w[p], w[k]
        wk = w[k]
        piv = wk[k]
        for i in range(k + 1, n):
            wi = w[i]
            f = wi[k]
            tail = zip(wi[k + 1 :], wk[k + 1 :])
            w[i] = wi[: k + 1] + [(piv * x - f * y) // prev for x, y in tail]
        prev = piv
    if abs(prev) != 1:
        return None
    rows = []
    for c in range(n, n + len(idx)):
        y = [0] * n
        for k in range(n - 1, -1, -1):
            wk = w[k]
            y[k] = (wk[c] - sum(map(mul, wk[k + 1 : n], y[k + 1 :]))) // wk[k]
        rows.append(tuple(y))
    return rows


# ---------------------------------------------------------------------------
# Kernel lattice basis plus particular solution of A x = b


@dataclass(frozen=True)
class KernelSolveResult:
    """Kernel basis and particular solution for an integer system A x = b.

    q        -- n x (n-m) matrix whose columns are a reduced basis of the
                kernel lattice of A
    x0       -- integer vector with A x0 = scale_k * b
    feasible -- True iff scale_k == 1, i.e. x0 actually solves A x = b
    scale_k  -- smallest positive integer k such that A x = k b has an
                integer solution (1 when feasible)
    """

    q: IntMatrix
    x0: IntVector
    feasible: bool
    scale_k: int


def kernel_and_solution(a: IntMatrix, b, strategy: str = "embedding") -> KernelSolveResult:
    """Compute a reduced kernel basis of A together with a solution of A x = b.

    strategy "embedding" runs LLL once on an (n+m+1) x (n+1) weighted
    embedding whose reduced basis exposes both the kernel and the solution;
    it is the one lattice reduction of the pipeline, since build_extended
    reads P off the inverse of the completed kernel basis instead of
    reducing a second embedding.  Strategy "hnf" takes the kernel columns
    from the HNF transformation matrix and forward-substitutes through D
    for the solution.  Both reduce at the default delta 3/4 and agree on
    the kernel lattice and on scale_k, which the test suite cross-checks.
    """
    b = vec(b)
    if len(b) != a.rows:
        raise DimensionError("rhs length %d for %d rows" % (len(b), a.rows))
    if strategy == "embedding":
        return _solve_embedding(a, b)
    if strategy == "hnf":
        return _solve_hnf(a, b)
    raise ValueError("unknown strategy %r" % strategy)


def _solve_hnf(a: IntMatrix, b: IntVector) -> KernelSolveResult:
    m, n = a.rows, a.cols
    res = hnf(a)
    kern = IntMatrix.from_rows([row[m:] for row in res.u.data], cols=n - m)
    if kern.cols > 0:
        kern = lll_reduce(kern)
    # D y = delta b with delta = prod(diag D) always has an integer solution;
    # dividing out g = gcd(delta, y) leaves the least scale_k = delta / g
    delta = prod(res.d.data[i][i] for i in range(m))
    y = forward_substitute(res.d.data, [delta * e for e in b])
    g = gcd(delta, *y)
    k = delta // g
    w = [e // g for e in y] + [0] * (n - m)
    x0 = mat_vec(res.u, w)
    return KernelSolveResult(kern, x0, k == 1, k)


def _solve_embedding(a: IntMatrix, b: IntVector) -> KernelSolveResult:
    hnf(a)  # reject rank-deficient input up front; the embedding would only fail opaquely
    kernel_cols, (x, t) = _reduce_embedding(a, b)
    k = abs(t)
    x0 = tuple(e if t > 0 else -e for e in x)
    if mat_vec(a, x0) != tuple(k * e for e in b):
        raise ArithmeticError("embedding produced an inconsistent solution column")
    q = IntMatrix.from_cols(kernel_cols, rows=a.cols)
    return KernelSolveResult(q, x0, k == 1, k)


def _reduce_embedding(a: IntMatrix, b: Optional[IntVector] = None):
    """LLL-reduced kernel of A and, given a right-hand side b, one solution.

    Reduces the columns of the weighted embedding [I 0; 0 N1; N2 A -N2 b]
    (Aardal, Hurkens and Lenstra 2000), N2 = N1^2; without b the last
    column is left out and the N1 row stays zero.  Once the weights
    separate the blocks, the columns with a zero bottom block are a reduced
    basis of the kernel lattice plus, with b, exactly one column
    (x, N1 t, 0) with A x = t b.  Returns (kernel columns, (x, t)), or
    (kernel columns, None) without b; the weights start at
    N1 = 2 n max|A, b| and are squared up to three times until the blocks
    separate.  A must have full row rank, which the callers check: a
    rank-deficient A can show the expected number of kernel columns and
    still return a sublattice.
    """
    m, n = a.rows, a.cols
    rhs = () if b is None else b
    biggest = max([1] + [abs(e) for row in a.data for e in row] + [abs(e) for e in rhs])
    n1 = 2 * n * biggest
    for _attempt in range(4):
        n2 = n1 * n1
        emb_cols = []
        for j in range(n):
            col = [1 if i == j else 0 for i in range(n)] + [0] + [n2 * a.data[i][j] for i in range(m)]
            emb_cols.append(col)
        if b is not None:
            emb_cols.append([0] * n + [n1] + [-n2 * e for e in b])
        red = lll_reduce(IntMatrix.from_cols(emb_cols, rows=n + m + 1))
        kernel_cols = []
        sol = None
        ok = True
        for j in range(red.cols):
            col = red.col(j)
            x, tval, bottom = col[:n], col[n], col[n + 1 :]
            if any(bottom):
                continue
            if tval == 0:
                kernel_cols.append(x)
            elif sol is None:
                sol = (x, tval // n1)
            else:
                ok = False
        if ok and (b is None or sol is not None) and len(kernel_cols) == n - m:
            return kernel_cols, sol
        n1 = n1 * n1  # weights too small to separate the blocks; square and retry
    raise ArithmeticError("embedding failed to separate the kernel after 4 weight levels")
