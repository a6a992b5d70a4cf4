"""Reformulation of integer equality systems through their kernel lattice.

Given A x = b over the integers, the kernel lattice of A and one integer
solution x0 describe the full solution set.  Splitting a reduced kernel
basis Q into short columns R and long columns S yields a smaller system
P x = P x0 + T mu whose integer solutions project onto exactly the same
x-set; the long directions survive as the aggregated variables mu.  When
the input is a single row and one long column, the multipliers expose a
two-generator decomposition of the row, which the knapsack module turns
into width and Frobenius statements.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .exact import (
    DimensionError,
    DomainError,
    IntMatrix,
    IntVector,
    identity,
    mat_mul,
    mat_vec,
    norm_sq,
    transpose,
    vec,
)
from .knapsack import Decomposition, ValidationError, make_decomposition
from .lattice import (
    HnfResult,
    _reduce_embedding,
    forward_substitute,
    hnf,
    inverse_rows,
    kernel_and_solution,
    kernel_basis,
    lll_reduce,
)


class IntegralityError(ArithmeticError):
    """An integer solution guaranteed by construction failed to exist."""


class IntegerInfeasibleError(Exception):
    """A x = b has no integer solution; A x = scale_k * b does."""

    def __init__(self, scale_k: int, witness: IntVector):
        super().__init__(
            "system has no integer solution (scale_k = %d admits one)" % scale_k
        )
        self.scale_k = scale_k
        self.witness = witness


@dataclass(frozen=True)
class EqualitySystem:
    """A x = b with optional per-variable integer bounds.

    A must have full row rank; bounds, when present, cover every variable
    with int entries (use None entries for unbounded directions).  hermite
    is the Hermite form A u = (D | 0) that checks the rank; build_extended
    completes a kernel basis with the first m columns of u.
    """

    a: IntMatrix
    b: IntVector
    var_lower: Optional[tuple] = None
    var_upper: Optional[tuple] = None
    hermite: HnfResult = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b", vec(self.b))
        if len(self.b) != self.a.rows:
            raise DimensionError(
                "b has length %d for %d rows" % (len(self.b), self.a.rows)
            )
        for name in ("var_lower", "var_upper"):
            v = getattr(self, name)
            if v is not None:
                v = tuple(v)
                if len(v) != self.a.cols:
                    raise DimensionError("%s must have one entry per variable" % name)
                for e in v:
                    if e is not None and (not isinstance(e, int) or isinstance(e, bool)):
                        raise TypeError("%s entries must be int or None, got %r" % (name, e))
                object.__setattr__(self, name, v)
        if self.var_lower is not None and self.var_upper is not None:
            for lo, hi in zip(self.var_lower, self.var_upper):
                if lo is not None and hi is not None and lo > hi:
                    raise DomainError("variable bounds cross: %s > %s" % (lo, hi))
        object.__setattr__(self, "hermite", hnf(self.a))  # full row rank or RankError

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.a.cols


@dataclass(frozen=True)
class ExtendedFormulation:
    """P x = P x0 + T mu over the integers, equivalent to the source system.

    p is (m+s) x n, m_mat the m x (m+s) recombination with A = m_mat @ p,
    t the (m+s) x s basis of the kernel lattice of m_mat, px0 = p @ x0.
    """

    p: IntMatrix
    m_mat: IntMatrix
    t: IntMatrix
    x0: IntVector
    s: int
    px0: IntVector


@dataclass(frozen=True)
class BasisSplit:
    """Reduced kernel basis, column-partitioned into short and long blocks."""

    short: IntMatrix
    long: IntMatrix

    @property
    def r(self) -> int:
        return self.short.cols

    @property
    def s(self) -> int:
        return self.long.cols


@dataclass(frozen=True)
class FixedSplit:
    """Put exactly s columns (the longest ones) into the long block."""

    s: int


@dataclass(frozen=True)
class RatioSplit:
    """Split at the largest jump of squared column norms of ratio >= rho;
    with no such jump every column is long."""

    rho: int = 100


def project_affine(c: IntMatrix, d: IntMatrix, b) -> Tuple[IntMatrix, IntVector]:
    """Eliminate the y-variables from {x | exists y: C x + D y = b}.

    Left-multiplies by a kernel basis of D^T; over the reals the returned
    system has exactly the same x-solution set.
    """
    b = vec(b)
    if d.rows != c.rows or len(b) != c.rows:
        raise DimensionError("C, D, b must agree on the number of rows")
    delta = kernel_basis(transpose(d))
    dt = transpose(delta)
    return mat_mul(dt, c), mat_vec(dt, b)


def split_basis(q: IntMatrix, policy) -> BasisSplit:
    """Partition the columns of a reduced kernel basis into short | long.

    Columns are first stably sorted by ascending squared norm.  FixedSplit
    takes the last s columns as long; RatioSplit looks for the largest
    index where consecutive squared norms jump by a factor >= rho and
    splits there, declaring everything long when no jump exists.
    """
    cols = sorted(q.col_list(), key=norm_sq)
    d = len(cols)
    if isinstance(policy, FixedSplit):
        s = policy.s
        if not 0 <= s <= d:
            raise DomainError("fixed split s = %d outside [0, %d]" % (s, d))
    elif isinstance(policy, RatioSplit):
        s = d
        for j in range(d - 1, 0, -1):
            if norm_sq(cols[j]) >= policy.rho * norm_sq(cols[j - 1]):
                s = d - j
                break
    else:
        raise TypeError("policy must be FixedSplit or RatioSplit, got %r" % (policy,))
    return BasisSplit(
        IntMatrix.from_cols(cols[: d - s], rows=q.rows),
        IntMatrix.from_cols(cols[d - s :], rows=q.rows),
    )


def dual_kernel(r: IntMatrix) -> IntMatrix:
    """Reduced basis of {y integer | R^T y = 0}, as columns of an n x (n-r) matrix.

    A standalone helper, off the pipeline (build_extended reads its P off
    the completed kernel basis instead): the kernel comes from the
    LLL-reduced weighted embedding that kernel_and_solution uses, run on
    R^T with no right-hand side, so its entries stay small.  LLL on R
    itself first checks exactly that the columns of R are independent and
    raises RankError otherwise.  For an empty R this is all of Z^n and the
    identity is returned.
    """
    n = r.rows
    if r.cols == 0:
        return identity(n)
    lll_reduce(r)
    kernel_cols, _ = _reduce_embedding(transpose(r))
    return IntMatrix.from_cols(_last_nonzero_positive(kernel_cols), rows=n)


def _last_nonzero_positive(cols):
    """Negate each column whose last nonzero entry is negative.

    Negating a column changes neither reducedness nor the lattice; fixing
    the sign of the trailing entry makes a reduced basis deterministic up
    to the order LLL settles on.
    """
    out = []
    for c in cols:
        last = next((x for x in reversed(c) if x != 0), 0)
        out.append(tuple(-x for x in c) if last < 0 else c)
    return out


def solve_multipliers(p: IntMatrix, a: IntMatrix) -> IntMatrix:
    """The unique M with M P = A, read off the Hermite form of P.

    The rows of P must generate all of Z^k, as every P built on a kernel
    lattice does (kernel lattices are primitive).  Then P U = (I | 0), so
    A = M P exactly when A U = (M | 0); IntegralityError is raised when the
    Hermite form is not I or a row of A U is nonzero past column k.
    """
    k = p.rows
    res = hnf(p)
    if res.d.data != identity(k).data:
        raise IntegralityError("rows of P do not generate Z^%d (Hermite form is not I)" % k)
    au = mat_mul(a, res.u)
    for i, row in enumerate(au.data):
        if any(row[k:]):
            raise IntegralityError("row %d of A is not an integer combination of P's rows" % i)
    return IntMatrix.from_rows([row[:k] for row in au.data], cols=k)


def build_extended(sys: EqualitySystem, split: BasisSplit, q: IntMatrix, x0) -> ExtendedFormulation:
    """Assemble the extended formulation for a chosen kernel split.

    P is a reduced basis of {y integer | y R = 0}, the lattice orthogonal
    to the short block R, read off the kernel basis already in hand
    (Cohen 1993, 2.4-2.7).  With V0 the first m columns of the Hermite
    transform of A (A V0 = D), U = [R | S | V0] is unimodular exactly when
    q is a basis of the whole kernel lattice, and the rows of U^-1 at the
    S and V0 positions are a basis of that lattice.  The V0 rows are
    D^-1 A; the s rows at S come from one exact solve (inverse_rows).
    LLL at delta 3/4 reduces the m+s rows.  An empty R gives P = I, after
    the same check of U with no rows solved for.  A dependent q raises
    RankError, and a q that spans only a sublattice (|det U| != 1) raises
    IntegralityError, whatever s is.  M recombines A = M P and
    T = P S; solve_multipliers checks on the one Hermite form of P it
    takes that the rows of P generate all of Z^{m+s}, which the
    integer-equivalence statements downstream rely on.
    """
    x0 = vec(x0)
    if mat_vec(sys.a, x0) != sys.b:
        raise ValidationError("x0 does not solve A x = b")
    for col in q.col_list():
        if any(mat_vec(sys.a, col)):
            raise ValidationError("kernel matrix has a column outside the kernel")
    own = sorted(q.col_list())
    got = sorted(split.short.col_list() + split.long.col_list())
    if own != got:
        raise ValidationError("split columns do not match the kernel basis")

    m, n, r = sys.m, sys.n, split.r
    hf = sys.hermite
    u = IntMatrix.from_cols(
        split.short.col_list() + split.long.col_list() + [hf.u.col(j) for j in range(m)],
        rows=n,
    )
    rows = inverse_rows(u, range(r, r + split.s) if r else ())
    if rows is None:
        raise IntegralityError("kernel basis spans a sublattice of the kernel (|det U| != 1)")
    if r == 0:
        p = identity(n)
    else:
        d_inv_a = [forward_substitute(hf.d.data, sys.a.col(j)) for j in range(n)]
        rows += zip(*d_inv_a)
        reduced = lll_reduce(IntMatrix.from_cols(rows, rows=n))
        p = IntMatrix.from_rows(_last_nonzero_positive(reduced.col_list()), cols=n)
    m_mat = solve_multipliers(p, sys.a)
    t = mat_mul(p, split.long)
    return ExtendedFormulation(p, m_mat, t, x0, split.s, mat_vec(p, x0))


@dataclass(frozen=True)
class DetectionResult:
    """Everything detect_decomposition learned about a system.

    The reduced kernel basis is the union of split.short and split.long.
    """

    formulation: ExtendedFormulation
    split: BasisSplit
    decomposition: Optional[Decomposition]
    decomposition_error: Optional[str]


def detect_decomposition(sys: EqualitySystem, policy=None) -> DetectionResult:
    """Run the full detection pipeline on A x = b.

    Computes a kernel basis reduced at LLL's default delta 3/4 and a
    particular solution, splits the basis by the given policy (ratio 100
    by default), and builds the extended formulation.  For one-row systems
    split with s = 1 the two-generator decomposition record is attached,
    with the multiplier rows ordered so that m1 >= m2.  Raises
    IntegerInfeasibleError when the system has no integer solution at all.
    """
    if policy is None:
        policy = RatioSplit()
    ks = kernel_and_solution(sys.a, sys.b)
    if not ks.feasible:
        raise IntegerInfeasibleError(ks.scale_k, ks.x0)
    split = split_basis(ks.q, policy)
    ef = build_extended(sys, split, ks.q, ks.x0)
    deco = None
    err = None
    if sys.m == 1 and split.s == 1:
        m1, m2 = ef.m_mat.data[0]
        p1, p2 = ef.p.row(0), ef.p.row(1)
        if abs(m1) < abs(m2):
            m1, m2, p1, p2 = m2, m1, p2, p1
        try:
            deco = make_decomposition(sys.a.row(0), p1, p2, m1, m2)
        except (ValidationError, ValueError) as e:
            err = str(e)
    return DetectionResult(ef, split, deco, err)
