"""Shared helpers for the test suite: small oracles and generators."""

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from latref import make_decomposition
from latref.exact import (
    DimensionError,
    IntMatrix,
    IntVector,
    RankError,
    dot,
    mat_vec,
    norm_sq,
    vec,
)
from latref.knapsack import Decomposition, ValidationError, integer_width
from latref.lattice import LLLParams, _column_echelon, forward_substitute
from latref.reformulate import EqualitySystem, ExtendedFormulation
from latref.solver import _AT_LOWER, _AT_UPPER, _BASIC, _FREE, LpResult, _LpRows, _Simplex


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


def packed_simplex(rows, rhs, bounds) -> _Simplex:
    return _Simplex(_LpRows(rows, rhs), bounds)


def unpack(sx: _Simplex, p: int) -> List[int]:
    """Every slot of the packed tableau row p of sx: beta, then columns
    0 .. ncols-1."""
    q, mask, half, w = p + sx.offset, sx.mask, sx.half, sx.w
    return [((q >> s) & mask) - half for s in range(0, w * (sx.ncols + 1), w)]


class LpAnswer(LpResult):
    """An LpResult with Fraction views of its den-scaled integers."""

    def _view(self, scaled: Optional[Sequence[int]]) -> Optional[Tuple[Fraction, ...]]:
        return None if scaled is None else tuple(Fraction(v, self.den) for v in scaled)

    @property
    def value(self) -> Optional[Fraction]:
        return None if self.scaled_value is None else Fraction(self.scaled_value, self.den)

    @property
    def point(self) -> Optional[Tuple[Fraction, ...]]:
        return self._view(self.scaled_point)

    @property
    def dual(self) -> Optional[Tuple[Fraction, ...]]:
        return self._view(self.scaled_dual)

    @property
    def farkas(self) -> Optional[Tuple[Fraction, ...]]:
        return self._view(self.scaled_farkas)

    @property
    def ray(self) -> Optional[Tuple[Fraction, ...]]:
        return self._view(self.scaled_ray)


def lp_solve(objective, rows, rhs, bounds, sense="max", simplex=packed_simplex) -> LpAnswer:
    """Optimize an integer objective c over {rows x = rhs, bounds} with an
    integer simplex, the library's unless another constructor is given.
    The simplex maximizes single columns only, so c becomes one more row
    c.x - z = 0 over one more free column z: phase 1, then probe(z, 1)
    for sense "max" or probe(z, -1) for "min".  The answer maps back:
    point and ray are the first n entries, value is z, and dual and
    Farkas vector are the first m entries.  z is free, so a checked
    Farkas vector is 0 on the objective row.  For sense "min" the dual is
    flipped, so the caller sees min-sense numbers."""
    m, n = len(rows), len(bounds)
    sign = 1 if sense == "max" else -1
    sx = simplex(
        [tuple(row) + (0,) for row in rows] + [tuple(objective) + (-1,)],
        tuple(rhs) + (0,),
        list(bounds) + [(None, None)],
    )
    res = sx.phase1()
    if res.status == "infeasible":
        assert res.scaled_farkas[m] == 0
        return LpAnswer(status="infeasible", den=res.den, scaled_farkas=res.scaled_farkas[:m])
    res = sx.probe(n, sign)
    if res.status == "unbounded":
        return LpAnswer(status="unbounded", den=res.den, scaled_ray=res.scaled_ray[:n])
    return LpAnswer(
        status="optimal",
        den=res.den,
        scaled_value=res.scaled_point[n],
        scaled_point=res.scaled_point[:n],
        scaled_dual=tuple(sign * y for y in res.scaled_dual[:m]),
    )


# ---------------------------------------------------------------------------
# The list-row simplex, reference for the packed one


class ListSimplex:
    """The list-row simplex that latref.solver._Simplex replaced, kept as
    its reference: the same pivots, den sequence and LpResults, with each
    tableau row a Python list.

    Bounded-variable two-phase simplex on a fraction-free integer tableau.
    The inputs are integer rows and rhs, and one (lower, upper) pair per
    column of ints or None.  They are kept as given and the certificate
    checks read them directly.  A nonbasic column always
    sits at one of its bounds, or at 0 when it is free, so every nonbasic
    value is an integer; val holds it, and fixed marks the columns with
    lower == upper, both kept in step with status.

    The tableau B^-1 [A | I], with the basic values x_B as one more
    column, is held as Python ints T over one common denominator den > 0:
    the true entry is T[i][j] / den, and den is |det B|.  So the last
    column is beta = den * x_B.  A pivot on (i, j) is the Bareiss update
    T'[k] = (piv*T[k] - T[k][j]*T[i]) // den, whose division is exact; den
    then becomes |piv|.  Before it, beta is rewritten for the new nonbasic
    set: the entering column's value is folded in and the leaving column
    moves to the bound its ratio named.  A bound flip subtracts
    column * step from beta.  The reduced-cost row rc = den * (c - c_B B^-1
    [A | I]) is built once per optimisation and rides along as one more
    row under the same update.  Ratios are compared as integer
    cross-products, so nothing is ever divided.

    phase1 finds a feasible basis or a Farkas certificate; probe then
    maximizes dire * x_j for any number of columns j and signs dire in
    turn from the current basis.  The artificial columns are kept for the
    whole solve; after phase 1 they are fixed to zero, which both blocks
    re-entry and keeps B^-1 readable off the tableau for the dual and
    Farkas certificates.  Every certificate is checked on den-scaled
    integers against the original rows and den * rhs, and the LpResult
    carries those integers.
    """

    def __init__(self, rows, rhs, bounds):
        self.rows, self.rhs, self.cols, self.bounds = rows, rhs, tuple(zip(*rows)), bounds
        m = self.m = len(rows)
        n = self.n = len(bounds)
        self.ncols = n + m
        self.lo = [b[0] for b in bounds] + [0] * m
        self.hi = [b[1] for b in bounds] + [None] * m
        self.status = [
            _AT_LOWER if lo is not None else _AT_UPPER if hi is not None else _FREE
            for lo, hi in bounds
        ] + [_BASIC] * m
        self.val = [
            lo if lo is not None else hi if hi is not None else 0 for lo, hi in bounds
        ] + [0] * m
        self.fixed = [lo is not None and lo == hi for lo, hi in bounds] + [False] * m
        # tab = den [B^-1 [A | S] | x_B] with B the (signed) artificial
        # columns S, so den starts at 1 and beta at the residuals |b - A x_N|
        self.den = 1
        self.art_sign = []
        self.tab: List[List[int]] = []
        for i, (row, r) in enumerate(zip(rows, rhs)):
            resid = r - sum(map(mul, row, self.val))
            sign = 1 if resid >= 0 else -1
            self.art_sign.append(sign)
            t = [sign * a for a in row] + [0] * (m + 1)
            t[n + i] = 1
            t[-1] = sign * resid
            self.tab.append(t)
        self.rc: List[int] = []
        self.basis = list(range(n, self.ncols))

    def _scaled_values(self) -> List[int]:
        """den * x for every column."""
        den = self.den
        x = [den * v for v in self.val]
        for row, b in zip(self.tab, self.basis):
            x[b] = row[-1]
        return x

    def _dual(self, cost: Sequence[int]) -> List[int]:
        """den * y with y = c_B B^-1, read off the artificial block."""
        terms = [(cost[b], row) for b, row in zip(self.basis, self.tab) if cost[b]]
        n = self.n
        return [
            sign * sum(c * row[n + i] for c, row in terms)
            for i, sign in enumerate(self.art_sign)
        ]

    # -- core iteration ----------------------------------------------------

    def _reduced_costs(self, cost: Sequence[int]) -> List[int]:
        """den * (c - c_B B^-1 [A | I]) for an integer cost vector."""
        d = [self.den * c for c in cost]
        for k, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                d = [v - cb * t for v, t in zip(d, self.tab[k])]
        return d

    def _entering(self, d: List[int]) -> Optional[Tuple[int, int]]:
        """Bland's rule: the lowest column whose move improves.  Every such
        column has a nonzero reduced cost."""
        status, fixed = self.status, self.fixed
        for j, dj in enumerate(d):
            if not dj or fixed[j]:
                continue  # a fixed column can never improve
            st = status[j]
            if st == _AT_LOWER:
                if dj > 0:
                    return j, 1
            elif st == _AT_UPPER:
                if dj < 0:
                    return j, -1
            elif st == _FREE:
                return j, (1 if dj > 0 else -1)
        return None

    def _step(self, j: int, dire: int) -> Optional[int]:
        """One ratio-test move for entering column j.  Returns the pivot row,
        None when the move was a bound flip, or -1 when nothing bounds the
        move (an unbounded direction; the caller decides)."""
        den, tab, basis, lo, hi, val = self.den, self.tab, self.basis, self.lo, self.hi, self.val
        col = [row[j] for row in tab]
        # the step is the least num / q (q > 0) over the bounds that block
        # it, compared by cross-multiplying; ties go to the lowest column
        num = q = leave_var = leave_row = None
        bound = hi[j] if dire > 0 else lo[j]
        if bound is not None:
            num, q, leave_var = dire * (bound - val[j]), 1, j
        for i, c in enumerate(col):
            if not c:
                continue
            b = basis[i]
            r = dire * c  # den times the fall of basic i per unit step
            if r > 0:
                if lo[b] is None:
                    continue
                t = tab[i][-1] - den * lo[b]
            else:
                if hi[b] is None:
                    continue
                t, r = den * hi[b] - tab[i][-1], -r
            if num is None or t * q < num * r or (t * q == num * r and b < leave_var):
                num, q, leave_var, leave_row = t, r, b, i
        if num is None:
            return -1  # unbounded direction
        if leave_var == j:  # bound flip, basis unchanged
            step = bound - val[j]
            for row, c in zip(tab, col):
                if c:
                    row[-1] -= c * step
            self.status[j] = _AT_UPPER if dire > 0 else _AT_LOWER
            val[j] = bound
            return None
        i = leave_row
        v = val[j]
        if v:
            for row, c in zip(tab, col):
                if c:
                    row[-1] += c * v
        b = basis[i]
        if dire * col[i] > 0:
            self.status[b], val[b] = _AT_LOWER, lo[b]
        else:
            self.status[b], val[b] = _AT_UPPER, hi[b]
        tab[i][-1] -= den * val[b]
        self.status[j], val[j] = _BASIC, 0
        basis[i] = j
        self._pivot(i, j)
        return i

    def _pivot(self, i: int, j: int):
        """Bareiss update of every other row and of rc; den becomes |piv|."""
        prow = self.tab[i]
        piv = prow[j]
        if piv < 0:  # negating the pivot row negates the whole update
            prow = self.tab[i] = [-v for v in prow]
            piv = -piv
        den, tab = self.den, self.tab
        for k, row in enumerate(tab):
            if k != i:
                tab[k] = list_bareiss_row(row, prow, j, piv, den)
        self.rc = list_bareiss_row(self.rc, prow, j, piv, den)
        self.den = piv

    def _optimize(self, cost: Sequence[int]):
        """Run to optimality for max cost.x with an integer cost vector;
        returns ("optimal",) or ("unbounded", j, dire) for the escaping
        column."""
        self.rc = self._reduced_costs(cost)
        while True:
            pick = self._entering(self.rc)
            if pick is None:
                return ("optimal",)
            j, dire = pick
            if self._step(j, dire) == -1:
                return ("unbounded", j, dire)

    # -- public driver -----------------------------------------------------

    def phase1(self) -> LpResult:
        """Drive the artificial columns to zero: an "infeasible" result with
        a checked Farkas vector, or a "feasible" one with a primal-checked
        point, after which probe may run."""
        phase1 = [0] * self.n + [-1] * self.m
        out = self._optimize(phase1)
        if out[0] != "optimal":
            raise ArithmeticError("phase 1 cannot be unbounded")
        x = self._scaled_values()
        if any(x[self.n :]):
            farkas = tuple(-v for v in self._dual(phase1))
            self._check_farkas(farkas)
            return LpResult(status="infeasible", den=self.den, scaled_farkas=farkas)
        for k in range(self.n, self.ncols):
            self.hi[k] = 0
            self.fixed[k] = True
        x = tuple(x[: self.n])
        self._check_primal(x)
        return LpResult(status="feasible", den=self.den, scaled_point=x)

    def probe(self, j: int, dire: int) -> LpResult:
        """Maximize dire * x_j, for dire = 1 or -1, from the current
        feasible basis.  Only valid after phase1 reported feasible."""
        cost = [0] * self.ncols
        cost[j] = dire
        out = self._optimize(cost)
        if out[0] == "unbounded":
            _, k, d = out
            ray = [0] * self.ncols
            ray[k] = d * self.den
            for i in range(self.m):
                ray[self.basis[i]] = -d * self.tab[i][k]
            ray = tuple(ray[: self.n])
            self._check_ray(ray, cost)
            return LpResult(status="unbounded", den=self.den, scaled_ray=ray)
        x = tuple(self._scaled_values()[: self.n])
        value = dire * x[j]
        y = tuple(self._dual(cost))
        self._check_optimal(x, value, y, cost)
        return LpResult(
            status="optimal", den=self.den, scaled_value=value, scaled_point=x, scaled_dual=y
        )

    # -- verification ------------------------------------------------------
    # The library's checks, which read only rows, rhs, cols, bounds, status,
    # fixed, val and den.

    _check_primal = _Simplex._check_primal
    _check_optimal = _Simplex._check_optimal
    _check_farkas = _Simplex._check_farkas
    _check_ray = _Simplex._check_ray


def list_bareiss_row(row: List[int], prow: List[int], j: int, piv: int, den: int) -> List[int]:
    """Eliminate column j of row against the pivot row prow:
    (piv*row - row[j]*prow) // den.  By Sylvester's identity every result
    is, up to sign, a minor of [A | I | r] for the integer vector r whose
    image beta is, so the division is exact.  The reduced-cost row is one
    entry shorter than a tableau row, and zip stops at it."""
    f = row[j]
    if f == 0:
        return row if piv == den else [v * piv // den for v in row]
    return [(piv * a - f * b) // den for a, b in zip(row, prow)]


# ---------------------------------------------------------------------------
# Exact linear algebra, LLL and width checks used only as test oracles


def det(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    if a.rows != a.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rational_solve(rows: Sequence[Sequence], rhs: Sequence):
    """Solve a linear system exactly over the rationals.

    ``rows`` is any rectangular iterable of ints or Fractions.  Returns one
    solution as a tuple of Fractions (free variables set to 0), or None if
    the system is inconsistent.
    """
    m = len(rows)
    a = [[Fraction(e) for e in r] for r in rows]
    b = [Fraction(e) for e in rhs]
    if len(b) != m:
        raise DimensionError("rhs length %d for %d rows" % (len(b), m))
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        b[r], b[p] = b[p], b[r]
        inv = 1 / a[r][c]
        a[r] = [e * inv for e in a[r]]
        b[r] *= inv
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [e - f * g for e, g in zip(a[i], a[r])]
                b[i] -= f * b[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if b[i] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = b[i]
    return tuple(x)


RatVector = Tuple[Fraction, ...]


@dataclass(frozen=True)
class GramSchmidtData:
    """Exact Gram-Schmidt data for an ordered list of basis columns.

    bstar[j] is the j-th orthogonalized vector, mu[j][k] (k < j) the
    projection coefficient of column j onto bstar[k], norms_sq[j] the
    squared euclidean norm of bstar[j].  mu is stored square with ones on
    the diagonal and zeros above it.
    """

    bstar: Tuple[RatVector, ...]
    mu: Tuple[RatVector, ...]
    norms_sq: Tuple[Fraction, ...]


def gram_schmidt(basis: IntMatrix) -> GramSchmidtData:
    """Orthogonalize the columns of ``basis`` exactly.

    Raises RankError naming the first column that is linearly dependent on
    its predecessors (its orthogonalized residual is zero).
    """
    n = basis.cols
    cols = [tuple(Fraction(e) for e in basis.col(j)) for j in range(n)]
    bstar: List[RatVector] = []
    norms: List[Fraction] = []
    mu: List[List[Fraction]] = []
    for j in range(n):
        murow = [Fraction(0)] * n
        murow[j] = Fraction(1)
        v = list(cols[j])
        for k in range(j):
            c = dot(cols[j], bstar[k]) / norms[k]
            murow[k] = c
            for i in range(len(v)):
                v[i] -= c * bstar[k][i]
        w = tuple(v)
        ns = norm_sq(w)
        if ns == 0:
            raise RankError("column %d is linearly dependent on earlier columns" % j, index=j)
        bstar.append(w)
        norms.append(ns)
        mu.append(murow)
    return GramSchmidtData(tuple(bstar), tuple(tuple(r) for r in mu), tuple(norms))


def lll_reduce_reference(basis: IntMatrix, params: LLLParams = None) -> IntMatrix:
    """LLL-reduce the columns of ``basis`` (they must be linearly independent).

    The rational-arithmetic LLL that tests compare the integral
    ``latref.lattice.lll_reduce`` against: the two must agree bit for bit.
    Exact rational arithmetic throughout; the Gram-Schmidt coefficients are
    carried along incrementally and updated in place on size reductions and
    swaps, so no orthogonalization is recomputed from scratch.  Deterministic:
    column k is size-reduced against k-1..0, then the exchange condition
    ||b*_k||^2 >= (delta - mu_{k,k-1}^2) ||b*_{k-1}||^2 is tested.
    """
    if params is None:
        params = LLLParams()
    delta = params.delta
    n = basis.cols
    gs = gram_schmidt(basis)  # validates independence (RankError otherwise)
    if n <= 1:
        return basis
    b = [list(basis.col(j)) for j in range(n)]
    mu = [list(r) for r in gs.mu]
    bn = list(gs.norms_sq)

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if 2 * abs(mu[k][j]) > 1:
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if bn[k] >= (delta - mu[k][k - 1] ** 2) * bn[k - 1]:
            k += 1
            continue
        m = mu[k][k - 1]
        bnew = bn[k] + m * m * bn[k - 1]
        mu[k][k - 1] = m * bn[k - 1] / bnew
        bn[k] = bn[k - 1] * bn[k] / bnew
        bn[k - 1] = bnew
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return IntMatrix.from_cols([tuple(c) for c in b], rows=basis.rows)


def is_lll_reduced(basis: IntMatrix, params: LLLParams = None) -> bool:
    """Independent check of both LLL conditions, via a fresh orthogonalization."""
    if params is None:
        params = LLLParams()
    gs = gram_schmidt(basis)
    half = Fraction(1, 2)
    for j in range(basis.cols):
        for k in range(j):
            if abs(gs.mu[j][k]) > half:
                return False
        if j >= 1:
            lhs = gs.norms_sq[j] + gs.mu[j][j - 1] ** 2 * gs.norms_sq[j - 1]
            if lhs < params.delta * gs.norms_sq[j - 1]:
                return False
    return True


def lattice_hnf(basis: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice generated by the columns of ``basis``.

    Two matrices generate the same column lattice iff their canonical bases
    are identical, which makes this the equality test for lattices.
    """
    h, _, pivots = _column_echelon(basis)
    r = len(pivots)
    return IntMatrix.from_rows([row[:r] for row in h], cols=r)


# ---------------------------------------------------------------------------
# Integer solves and box-enumeration equivalence, used only as test oracles


class IntegerSolver:
    """Repeated integer solves of a x = rhs against a fixed matrix.

    The column echelon form is computed once; each solve is then a cheap
    forward substitution with divisibility checks plus a full residual
    check (so inconsistent right-hand sides are caught even on the rows
    that carry no pivot).
    """

    def __init__(self, a: IntMatrix):
        self.a = a
        h, self.u, self.pivots = _column_echelon(a)
        self.pivot_rows = [h[i] for i in self.pivots]

    def solve(self, rhs) -> Optional[IntVector]:
        if len(rhs) != self.a.rows:
            raise DimensionError("rhs length %d for %d rows" % (len(rhs), self.a.rows))
        w = forward_substitute(self.pivot_rows, [rhs[i] for i in self.pivots])
        if w is None:
            return None
        # w holds the pivot columns' weights; map stops there, so the
        # columns past the rank count as 0
        x = tuple(sum(map(mul, row, w)) for row in self.u)
        if mat_vec(self.a, x) != tuple(rhs):
            return None
        return x


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of enumerating a box: every discrepancy witness, both ways."""

    points_checked: int
    missing: Tuple[IntVector, ...]  # in the original solution set, not in the extended one
    extra: Tuple[IntVector, ...]    # representable by the extended system, not a solution

    @property
    def equivalent(self) -> bool:
        return not self.missing and not self.extra


def verify_formulation_equivalence(sys: EqualitySystem, ef: ExtendedFormulation,
                                   lo, hi) -> EquivalenceReport:
    """Enumerate every integer point of the box [lo, hi] and compare
    membership in {x | A x = b} against solvability of T mu = P x - P x0.
    """
    lo, hi = vec(lo), vec(hi)
    if len(lo) != sys.n or len(hi) != sys.n:
        raise DimensionError("box bounds must have one entry per variable")
    tsolver = IntegerSolver(ef.t)
    arows = sys.a.data
    prows = ef.p.data
    b = sys.b
    px0 = ef.px0
    missing = []
    extra = []
    count = 0
    for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        count += 1
        in_x = all(sum(r[i] * x[i] for i in range(len(x))) == bi for r, bi in zip(arows, b))
        rhs = tuple(
            sum(r[i] * x[i] for i in range(len(x))) - p0 for r, p0 in zip(prows, px0)
        )
        in_ext = tsolver.solve(rhs) is not None
        if in_x and not in_ext:
            missing.append(x)
        elif in_ext and not in_x:
            extra.append(x)
    return EquivalenceReport(count, tuple(missing), tuple(extra))


def solve_integer(a: IntMatrix, rhs: IntVector) -> Optional[IntVector]:
    """One integer solution of a x = rhs, or None when none exists."""
    return IntegerSolver(a).solve(rhs)


def width_q_shift_check(d: Decomposition, b: int, lam: int) -> bool:
    """Integer width is invariant under (q1, q2) -> (q1 - lam*m2, q2 + lam*m1)."""
    shifted = replace(d, q1=d.q1 - lam * d.m2, q2=d.q2 + lam * d.m1)
    w0 = integer_width(d, b)
    w1 = integer_width(shifted, b)
    return (w0.raw, w0.clamped) == (w1.raw, w1.clamped)
