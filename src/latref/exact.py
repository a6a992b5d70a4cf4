"""Exact integer linear algebra primitives.

Everything here is exact: integers are Python ints.  No floating point is
used anywhere.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

IntVector = Tuple[int, ...]


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class RankError(ValueError):
    """A matrix does not have the rank an operation requires.

    ``index`` is the 0-based offending row or column when one can be named.
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


def extended_gcd(m1: int, m2: int) -> Tuple[int, int, int]:
    """Return (g, q1, q2) with g = gcd(m1, m2) and q1*m1 + q2*m2 = g.

    Both arguments must be positive.  The Bezout pair is not unique; it is
    pinned by reducing q1 modulo m2//g into the half-open window
    -m2/(2g) < q1 <= m2/(2g), which makes the result deterministic and,
    for coprime inputs, puts q1 in (-m2/2, m2/2].
    """
    if m1 <= 0 or m2 <= 0:
        raise DomainError("extended_gcd needs positive arguments, got (%d, %d)" % (m1, m2))
    g, q1, q2 = _bezout(m1, m2)
    step = m2 // g
    q1 %= step
    if 2 * q1 > step:
        q1 -= step
    q2 = (g - m1 * q1) // m2
    return g, q1, q2


def _bezout(a: int, b: int) -> Tuple[int, int, int]:
    """Unnormalized extended Euclid for any integers: g >= 0, u*a + v*b = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def vec(entries) -> IntVector:
    """Coerce an iterable of ints to an IntVector, rejecting non-integers."""
    out = tuple(entries)
    for e in out:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError("integer vector entries must be int, got %r" % (e,))
    return out


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionError("dot of length %d against %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def norm_sq(u: Sequence):
    return sum(a * a for a in u)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples.

    Zero rows or columns are allowed; several reformulation steps produce
    genuinely empty blocks and the algebra goes through unchanged.
    """

    rows: int
    cols: int
    data: Tuple[IntVector, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(self.data) != self.rows:
            raise DimensionError("row count mismatch")
        for r in self.data:
            if len(r) != self.cols:
                raise DimensionError("ragged rows in matrix data")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int = None) -> "IntMatrix":
        data = tuple(vec(r) for r in rows)
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        return IntMatrix(len(data), width, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: int = None) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        if cols:
            height = len(cols[0])
        elif rows is not None:
            height = rows
        else:
            height = 0
        return IntMatrix.from_rows([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    def row(self, i: int) -> IntVector:
        return self.data[i]

    def col(self, j: int) -> IntVector:
        return tuple(r[j] for r in self.data)

    def col_list(self) -> List[IntVector]:
        return [self.col(j) for j in range(self.cols)]

    def __repr__(self):
        return "IntMatrix(%dx%d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows([a.col(j) for j in range(a.cols)], cols=a.rows)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise DimensionError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    bcols = [b.col(j) for j in range(b.cols)]
    return IntMatrix.from_rows(
        [[dot(r, c) for c in bcols] for r in a.data], cols=b.cols
    )


def mat_vec(a: IntMatrix, x: Sequence[int]) -> IntVector:
    if a.cols != len(x):
        raise DimensionError("matrix is %dx%d, vector has length %d" % (a.rows, a.cols, len(x)))
    return tuple(dot(r, x) for r in a.data)
