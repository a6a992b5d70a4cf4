"""Two-generator knapsack analysis.

A positive coprime row a is written as a = m1*p1 + m2*p2 with coprime
positive multipliers.  From that decomposition the module computes the
exact interval bounds for the aggregated branching variable, the integer
width of that interval at a given right-hand side, a closed-form lower
bound on the Frobenius number of a, and (independently) the exact
Frobenius number by a residue-table shortest path.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import List, NamedTuple, Optional, Tuple

from .exact import DomainError, IntMatrix, IntVector, extended_gcd, identity, vec
from .lattice import forward_substitute, hnf


class ValidationError(ValueError):
    """A decomposition ingredient violates a stated assumption."""


class FrobeniusUndefinedError(ValueError):
    """The Frobenius number does not exist (entries not coprime)."""


class ResourceLimitError(RuntimeError):
    """Instance exceeds a tractability guard."""


FROBENIUS_STATE_GUARD = 10**6


@dataclass(frozen=True)
class Decomposition:
    """a = m1*p1 + m2*p2 with the bookkeeping needed by the width formulas.

    q1, q2 satisfy m1*q1 + m2*q2 = 1 with -m2/2 < q1 <= m2/2.  Records are
    plain; use make_decomposition to construct a validated one.
    """

    a: IntVector
    p1: IntVector
    p2: IntVector
    m1: int
    m2: int
    q1: int
    q2: int


def _neg(v):
    return tuple(-e for e in v)


def make_decomposition(a, p1, p2, m1: int, m2: int) -> Decomposition:
    """Validate ingredients and build a canonical Decomposition.

    Checks positivity and coprimality of a, the recomposition identity,
    and that the stacked rows (p1; p2) generate all of Z^2 columnwise;
    when their Hermite form is (D|0) with D != I the rows are rescaled by
    D^{-1} and m1, m2 are recomputed, as required for the width formulas
    to apply.  Raises ValidationError (or RankError for dependent rows)
    naming the violated assumption.
    """
    a, p1, p2 = vec(a), vec(p1), vec(p2)
    n = len(a)
    if len(p1) != n or len(p2) != n:
        raise ValidationError("a, p1, p2 must have equal length")
    if any(e <= 0 for e in a):
        raise ValidationError("entries of a must be positive")
    if gcd(*a) != 1:
        raise ValidationError("entries of a must be coprime (gcd %d)" % gcd(*a))
    if m1 == 0 or m2 == 0:
        raise ValidationError("multipliers must be nonzero")
    if m1 < 0:
        m1, p1 = -m1, _neg(p1)
    if m2 < 0:
        m2, p2 = -m2, _neg(p2)
    if tuple(m1 * x + m2 * y for x, y in zip(p1, p2)) != a:
        raise ValidationError("recomposition mismatch: a != m1*p1 + m2*p2")

    res = hnf(IntMatrix.from_rows([p1, p2]))  # RankError if the rows are dependent
    if res.d.data != identity(2).data:
        d = res.d.data
        # left-multiply (p1; p2) by D^{-1}, column by column; integrality is
        # guaranteed because every column of the stacked rows lies in the
        # lattice D generates
        cols = [forward_substitute(d, col) for col in zip(p1, p2)]
        if None in cols:
            raise ValidationError("Hermite rescaling produced non-integers (broken input)")
        p1, p2 = zip(*cols)
        # m1, m2 > 0 here and d00, d11 > 0, d10 >= 0, so both stay positive
        m1, m2 = m1 * d[0][0] + m2 * d[1][0], m2 * d[1][1]
        if tuple(m1 * x + m2 * y for x, y in zip(p1, p2)) != a:
            raise ValidationError("recomposition mismatch after Hermite rescaling")

    if gcd(m1, m2) != 1:
        raise ValidationError("multipliers must be coprime")
    _, q1, q2 = extended_gcd(m1, m2)
    return Decomposition(a, p1, p2, m1, m2, q1, q2)


class WidthValue(NamedTuple):
    floor_part: int  # floor(b * zbar)
    ceil_part: int   # ceil(b * zlower)
    raw: int         # floor_part - ceil_part + 1, may be <= 0
    clamped: int     # max(raw, 0), the reported width


@dataclass(frozen=True)
class WidthAnalysis:
    """Exact interval [zlower, zbar] for the aggregated variable at b = 1.

    k maximizes p1[i]/a[i], j minimizes it (ties to the lowest index).
    """

    j: int
    k: int
    zbar: Fraction
    zlower: Fraction


def _argminmax(d: Decomposition) -> Tuple[int, int]:
    ratios = [Fraction(p, q) for p, q in zip(d.p1, d.a)]
    best_j = best_k = 0
    for i in range(1, len(ratios)):
        if ratios[i] < ratios[best_j]:
            best_j = i
        if ratios[i] > ratios[best_k]:
            best_k = i
    return best_j, best_k


def width_bounds(d: Decomposition) -> WidthAnalysis:
    """Interval endpoints zbar >= zlower for the aggregated variable."""
    j, k = _argminmax(d)
    zbar = Fraction(d.p1[k], d.m2 * d.a[k]) - Fraction(d.q1, d.m2)
    zlower = Fraction(d.p1[j], d.m2 * d.a[j]) - Fraction(d.q1, d.m2)
    return WidthAnalysis(j, k, zbar, zlower)


def integer_width(d: Decomposition, b: int) -> WidthValue:
    """Number of integers in [b*zlower, b*zbar], with the raw signed count.

    A raw value <= 0 certifies that the knapsack a.x = b has no solution
    over the nonnegative integers (the aggregated variable has no integer
    value available).
    """
    if b < 0:
        raise DomainError("right-hand side must be nonnegative, got %d" % b)
    w = width_bounds(d)
    fl = floor(b * w.zbar)
    ce = ceil(b * w.zlower)
    raw = fl - ce + 1
    return WidthValue(fl, ce, raw, max(raw, 0))


@dataclass(frozen=True)
class FrobeniusBound:
    """Closed-form lower bound on the Frobenius number of a.

    value is the exact rational bound (None when an assumption fails);
    case_tag records which sign case of q1 applied, failed_assumptions
    the names of hypotheses that did not hold.
    """

    value: Optional[Fraction]
    case_tag: str
    assumptions_ok: bool
    failed_assumptions: Tuple[str, ...]

    @property
    def value_floor(self) -> Optional[int]:
        return None if self.value is None else floor(self.value)


def frobenius_lower_bound(d: Decomposition) -> FrobeniusBound:
    """Lower bound on F(a) from the decomposition, when the hypotheses hold.

    Dispatches on the sign of q1; the two cases have mirrored hypotheses
    (named 1a/2a/3a and 1b/2b/3b in reports) and mirrored bound
    expressions.  Assumption failures are reported by name, never raised.
    """
    w = width_bounds(d)
    j, k = w.j, w.k
    aj, ak = d.a[j], d.a[k]
    pj, pk = d.p1[j], d.p1[k]
    m2, q1 = d.m2, d.q1
    case = "nonpositive_q1" if q1 <= 0 else "positive_q1"

    if w.zbar == w.zlower:
        return FrobeniusBound(None, case, False, ("degenerate_interval",))

    failed = []
    if q1 <= 0:
        if not Fraction(pj, aj) > q1:
            failed.append("1a")
        if not Fraction(pk, ak) < m2 + q1:
            failed.append("2a")
        if (((1 - w.zbar) / (w.zbar - w.zlower)) * w.zlower).denominator == 1:
            failed.append("3a")
        if failed:
            return FrobeniusBound(None, case, False, tuple(failed))
        value = (
            Fraction(aj * ak * (m2 + q1) - pk * aj, pk * aj - pj * ak)
            - Fraction(m2 * aj, pj - q1 * aj)
        )
    else:
        if not Fraction(pj, aj) > q1 - m2:
            failed.append("1b")
        if not Fraction(pk, ak) < q1:
            failed.append("2b")
        if (((1 + w.zlower) / (w.zbar - w.zlower)) * w.zbar).denominator == 1:
            failed.append("3b")
        if failed:
            return FrobeniusBound(None, case, False, tuple(failed))
        value = (
            Fraction(aj * ak * (m2 - q1) + pj * ak, pk * aj - pj * ak)
            + Fraction(m2 * ak, pk - q1 * ak)
        )
    return FrobeniusBound(value, case, True, ())


def _validate_generators(a) -> IntVector:
    a = vec(a)
    if len(a) < 2:
        raise DomainError("need at least two generators")
    if any(e <= 0 for e in a):
        raise DomainError("generators must be positive")
    if gcd(*a) != 1:
        raise FrobeniusUndefinedError("generators share the factor %d" % gcd(*a))
    if min(a) > FROBENIUS_STATE_GUARD:
        raise ResourceLimitError(
            "min(a) = %d exceeds the %d-state guard" % (min(a), FROBENIUS_STATE_GUARD)
        )
    return a


def _residue_minima(a: IntVector) -> List[int]:
    """dist[r] = least nonnegative-combination value congruent to r mod min(a)."""
    amin = min(a)
    steps = sorted(set(e for e in a if e % amin != 0))
    dist = [None] * amin
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        v, r = heapq.heappop(heap)
        if v > dist[r]:
            continue
        for s in steps:
            r2 = (r + s) % amin
            v2 = v + s
            if dist[r2] is None or v2 < dist[r2]:
                dist[r2] = v2
                heapq.heappush(heap, (v2, r2))
    return dist


def frobenius_exact(a) -> int:
    """Exact Frobenius number of a coprime positive vector.

    Shortest-path dynamic program over residues modulo min(a): for each
    residue class the least representable value is found by relaxation
    over at most min(a) states, and the answer is the largest of those
    minima minus min(a).  Guarded at min(a) <= 10^6.
    """
    a = _validate_generators(a)
    return max(_residue_minima(a)) - min(a)


def representable_table(a) -> List[int]:
    """Residue table for membership tests.

    With t = representable_table(a), a right-hand side b >= 0 has a
    nonnegative integer solution of a.x = b iff t[b % min(a)] <= b.
    """
    return _residue_minima(_validate_generators(a))
