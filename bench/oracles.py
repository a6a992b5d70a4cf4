"""Reference computations the benchmark checks latref against.

Everything here is plain Python integers and independent of latref: the
market-split truth comes from enumeration or meet-in-the-middle instead of
branch and bound, Frobenius numbers from the round-robin algorithm of
Boecker and Liptak (2007) instead of latref's shortest-path residue DP,
and certificates are re-checked by direct arithmetic.  Each function
returns a list of error strings (empty when the check holds) or a plain
value, so callers can attribute a failure to the operation that caused it.
"""

import itertools
from fractions import Fraction
from math import gcd

# Published Frobenius number of CUWW1 = (12223, 12224, 36674, 61119, 85569)
# (Cornuejols, Urbaniak, Weismantel, Wolsey 1997; Aardal and Lenstra 2004).
CUWW1 = (12223, 12224, 36674, 61119, 85569)
CUWW1_FROBENIUS = 89_643_481


def dot(row, x):
    return sum(r * v for r, v in zip(row, x))


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# binary feasibility truth


def binary_solution_enumerate(rows, rhs):
    """First x in {0,1}^n with rows . x = rhs, by full enumeration; or None."""
    n = len(rows[0])
    target = tuple(rhs)
    for x in itertools.product((0, 1), repeat=n):
        if tuple(dot(row, x) for row in rows) == target:
            return x
    return None


def _half_sums(rows, lo, hi):
    """{row sums over columns lo..hi-1 : one 0/1 assignment} for every subset."""
    out = {}
    for bits in itertools.product((0, 1), repeat=hi - lo):
        key = tuple(sum(row[lo + j] * bits[j] for j in range(hi - lo)) for row in rows)
        out.setdefault(key, bits)
    return out


def binary_solution_mitm(rows, rhs):
    """Same answer as binary_solution_enumerate, by meet in the middle:
    tabulate the row sums of every assignment of the first half, then look
    up rhs minus each second-half sum.  2^(n/2) work per side."""
    n = len(rows[0])
    half = n // 2
    left = _half_sums(rows, 0, half)
    for bits in itertools.product((0, 1), repeat=n - half):
        key = tuple(
            r - sum(row[half + j] * bits[j] for j in range(n - half))
            for row, r in zip(rows, rhs)
        )
        hit = left.get(key)
        if hit is not None:
            return hit + bits
    return None


# ---------------------------------------------------------------------------
# Frobenius numbers


def frobenius_round_robin(a):
    """Frobenius number of coprime positive a by the round-robin algorithm.

    Keeps, for each residue r modulo a1 = min(a), the least representable
    value congruent to r.  Each further generator ai is folded in by walking
    each of the gcd(a1, ai) residue cycles once, starting from the cycle's
    current minimum (Boecker and Liptak 2007).
    """
    a = sorted(a)
    a1 = a[0]
    best = [None] * a1
    best[0] = 0
    for ai in a[1:]:
        d = gcd(a1, ai)
        for r in range(d):
            vals = [best[q] for q in range(r, a1, d) if best[q] is not None]
            if not vals:
                continue
            cur = min(vals)
            for _ in range(a1 // d - 1):
                cur += ai
                p = cur % a1
                if best[p] is not None and best[p] < cur:
                    cur = best[p]
                best[p] = cur
    if any(v is None for v in best):
        raise ValueError("generators are not coprime")
    return max(best) - a1


# ---------------------------------------------------------------------------
# certificate checks (each returns a list of problems)


def check_solution(rows, rhs, x, lower=None, upper=None):
    errs = []
    if x is None:
        return ["no certificate"]
    if len(x) != len(rows[0]):
        return ["certificate has %d entries for %d columns" % (len(x), len(rows[0]))]
    if any(dot(row, x) != r for row, r in zip(rows, rhs)):
        errs.append("A x != b")
    lower = [0] * len(x) if lower is None else lower
    for j, v in enumerate(x):
        if lower[j] is not None and v < lower[j]:
            errs.append("x%d = %d below its bound" % (j, v))
        if upper is not None and upper[j] is not None and v > upper[j]:
            errs.append("x%d = %d above its bound" % (j, v))
    return errs


def check_extended_point(p, t, px0, x, mu):
    """P x = P x0 + T mu, all in integers."""
    if mu is None or len(mu) != len(t[0]):
        return ["mu missing or of the wrong length"]
    lhs = [dot(row, x) for row in p]
    rhs = [c + dot(trow, mu) for c, trow in zip(px0, t)]
    return [] if lhs == rhs else ["P x != P x0 + T mu"]


def check_formulation(a, b, p, m_mat, t, x0, px0, s):
    """A = M P, M T = 0, A x0 = b, P x0 = px0, T has s columns; for s = 1
    the single column of T is primitive (gcd of its entries is 1)."""
    errs = []
    if mat_mul(m_mat, p) != [list(r) for r in a]:
        errs.append("A != M P")
    if t and t[0] and any(any(v != 0 for v in row) for row in mat_mul(m_mat, t)):
        errs.append("M T != 0")
    if [dot(row, x0) for row in a] != list(b):
        errs.append("A x0 != b")
    if [dot(row, x0) for row in p] != list(px0):
        errs.append("P x0 != px0")
    if len(t) != len(p) or any(len(row) != s for row in t):
        errs.append("T is not (m+s) x s")
    elif s == 1 and gcd(*(row[0] for row in t)) != 1:
        errs.append("T is not primitive")
    return errs


def check_decomposition(a, m1, m2, q1, q2, p1, p2):
    """m1 p1 + m2 p2 = a and m1 q1 + m2 q2 = 1."""
    errs = []
    if [m1 * u + m2 * v for u, v in zip(p1, p2)] != list(a):
        errs.append("m1 p1 + m2 p2 != a")
    if m1 * q1 + m2 * q2 != 1:
        errs.append("m1 q1 + m2 q2 != 1")
    return errs


def parse_rational(text):
    """CLI JSON writes rationals as ints or "p/q" strings."""
    return Fraction(text) if isinstance(text, str) else Fraction(int(text))


def ints(values):
    """CLI JSON writes long integers as decimal strings."""
    return [int(v) for v in values]


def int_matrix(rows):
    return [ints(row) for row in rows]
