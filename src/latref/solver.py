"""Exact LP-based feasibility testing for the original and reformulated systems.

Everything here runs in exact integer arithmetic: the simplex solver keeps
a dense fraction-free integer tableau over one common denominator
(Bareiss pivoting), basic values included, and uses Bland's rule, so it
terminates without tolerances, and every answer carries a certificate
that is re-verified in integers before it is returned.  Each tableau row
is packed into one Python int at a slot width derived from Hadamard's
bound (Kronecker substitution), so a row update is one big-integer
expression instead of a loop over its entries.  An LpResult holds
those integers and their denominator.  Branch and bound is the simplex's
only caller and reads the integers alone: phase 1 is each node's
feasibility LP, and two probes from its feasible basis maximize and
minimize the chosen branching variable.

Variables are addressed by name: "x0", "x1", ... for the structural columns
and "mu0", "mu1", ... for the multipliers of an extended formulation.
"""

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import DomainError, IntMatrix, mat_vec
from .knapsack import ResourceLimitError
from .lattice import kernel_and_solution
from .reformulate import (
    EqualitySystem,
    ExtendedFormulation,
    FixedSplit,
    IntegerInfeasibleError,
    build_extended,
    split_basis,
)

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3


@dataclass(frozen=True)
class LpResult:
    """One simplex answer as integers over the tableau's denominator den:
    the true value is scaled_value / den, and so is every entry of
    scaled_point, scaled_dual, scaled_farkas and scaled_ray."""

    status: str  # "optimal" | "infeasible" | "unbounded"; "feasible" after phase 1
    den: int = 1
    scaled_value: Optional[int] = None
    scaled_point: Optional[Tuple[int, ...]] = None
    scaled_dual: Optional[Tuple[int, ...]] = None
    scaled_farkas: Optional[Tuple[int, ...]] = None
    scaled_ray: Optional[Tuple[int, ...]] = None


class _LpRows:
    """The integer rows and rhs of an LP, with what every tableau over them
    shares: the columns of the rows, which the certificate checks read; per
    row |row_i| and ||row_i||^2 + 1, from which a tableau derives its slot
    width; and, per slot width, the packed starting rows (see layout)."""

    def __init__(self, rows: Sequence[Sequence[int]], rhs: Sequence[int]):
        self.rows, self.rhs = rows, rhs
        self.cols = tuple(zip(*rows))
        self.abs_rows = [[abs(a) for a in row] for row in rows]
        self.norms = [sum(a * a for a in row) + 1 for row in rows]
        self._layouts: Dict[int, Tuple[List[Tuple[int, int]], int]] = {}

    def layout(self, w: int) -> Tuple[List[Tuple[int, int]], int]:
        """(starts, offset) at slot width w.  starts holds per row i the two
        signed starting rows [0 | row_i | e_i] and [0 | -row_i | e_i],
        packed; a new tableau takes the one whose sign matches row i's
        residual and adds the residual's size into slot 0.  offset holds
        half a slot in every slot of a row, which makes each slot
        nonnegative for decoding.  Both are built once per run and width."""
        lay = self._layouts.get(w)
        if lay is None:
            m, n = len(self.rows), len(self.cols)
            starts = []
            for i, row in enumerate(self.rows):
                unit = 1 << (w * (n + 1 + i))
                plus = _pack((0,) + tuple(row), w)
                starts.append((plus + unit, unit - plus))
            offset = _pack([1 << (w - 1)] * (n + m + 1), w)
            lay = self._layouts[w] = (starts, offset)
        return lay


def _pack(values: Sequence[int], w: int) -> int:
    """The one int sum(v_k * 2^(w k)) that holds values[k] in slot k; every
    |v_k| must be below 2^(w-1)."""
    p = 0
    for k, v in enumerate(values):
        if v:
            p += v << (w * k)
    return p


def _width(bound_sq: int) -> int:
    """Slot width for integers of size at most sqrt(bound_sq): their bit
    length plus a sign bit."""
    return (bound_sq.bit_length() + 1) // 2 + 1


class _Simplex:
    """Bounded-variable two-phase simplex on a fraction-free integer tableau.

    The inputs are an _LpRows of integer rows and rhs, and one (lower,
    upper) pair per column of ints or None, lower <= upper when both are
    ints.  They are kept as given and
    the certificate checks read them directly.  A nonbasic column always
    sits at one of its bounds, or at 0 when it is free, so every nonbasic
    value is an integer; val holds it, and fixed marks the columns with
    lower == upper, both kept in step with status.

    The tableau B^-1 [A | I], with the basic values x_B as one more
    column, is held in integers over one common denominator den > 0: the
    true entry is T[i][j] / den, and den is |det B|.  So the extra column
    is beta = den * x_B.  Each row is one Python int, the value at X = 2^w
    of the polynomial whose coefficients are the row: slot 0 holds beta
    and slot j + 1 holds column j, each a signed w-bit integer.  Every
    entry is, up to sign, an m x m minor of [A | S | r], where S holds the
    artificial columns and r is a residual b - A x_N, so by Hadamard's
    bound it is at most H = prod_i ||(a_i, 1, R_i)||, with R_i = |b_i| +
    sum_j |a_ij| max(|lo_j|, |hi_j|) over the finite bounds.  The
    reduced-cost row rc = den * (c - c_B B^-1 [A | I]) is packed the same
    way with slot 0 kept at zero; its entries are (m+1)-minors that take in
    the cost row, at most H ||c||.  The widest cost is phase 1's, with
    ||c||^2 = m, as a probe's has norm 1, so w = bitlength(H sqrt(max(1,
    m))) + 1, fixed at construction, holds every decoded value.  Values in
    between, such as piv*row, need not fit a slot: the packed identities
    are exact for any integers.

    A pivot on (i, j) is the Bareiss update T'[k] = (piv*T[k] -
    T[k][j]*T[i]) // den, one big-integer expression per row, whose
    division is exact in every slot; den then becomes |piv|.  Before it,
    beta is rewritten for the new nonbasic set: the entering column's value
    is folded in and the leaving column moves to the bound its ratio
    named, each one addition to the packed row.  A bound flip subtracts
    column * step from beta the same way.  rc is built once per
    optimisation and rides along under the same update.  Ratios are
    compared as integer cross-products, so nothing is ever divided.

    phase1 finds a feasible basis or a Farkas certificate; probe then
    maximizes dire * x_j for any number of columns j and signs dire in
    turn from the current basis.  The artificial columns are kept for the
    whole solve; after phase 1 they are fixed to zero, which both blocks
    re-entry and keeps B^-1 readable off the tableau for the dual and
    Farkas certificates.  Every certificate is checked on den-scaled
    integers against the original rows and den * rhs, and the LpResult
    carries those integers.
    """

    def __init__(self, lp: _LpRows, bounds: Sequence[Tuple[Optional[int], Optional[int]]]):
        self.rows, self.rhs, self.cols, self.bounds = lp.rows, lp.rhs, lp.cols, bounds
        m = self.m = len(lp.rows)
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
        # H^2 by Hadamard, from the largest residual each row can reach;
        # reach is max(|lo|, |hi|) over the finite bounds, as lo <= hi
        reach = [
            (hi if hi >= -lo else -lo) if lo is not None and hi is not None else abs(lo or hi or 0)
            for lo, hi in bounds
        ]
        h_sq = 1
        for absrow, norm, r in zip(lp.abs_rows, lp.norms, lp.rhs):
            resid = abs(r) + sum(map(mul, absrow, reach))
            h_sq *= norm + resid * resid
        # the widest cost is phase 1's, with ||c||^2 = m
        w = self.w = _width(h_sq * max(1, m))
        self.half = 1 << (w - 1)
        self.mask = (1 << w) - 1
        self.wide = (1 << (w + 1)) - 1
        self.top = (1 << w) + 1
        starts, self.offset = lp.layout(w)
        # tab = den [B^-1 [A | S] | x_B] with B the (signed) artificial
        # columns S, so den starts at 1 and beta at the residuals |b - A x_N|
        self.den = 1
        self.art_sign = []
        self.tab: List[int] = []
        for row, r, (plus, minus) in zip(lp.rows, lp.rhs, starts):
            resid = r - sum(map(mul, row, self.val))
            if resid >= 0:
                self.art_sign.append(1)
                self.tab.append(plus + resid)
            else:
                self.art_sign.append(-1)
                self.tab.append(minus - resid)
        self.rc = 0
        self.col: List[int] = []  # the entering column: _step reads it, _pivot uses it
        self.basis = list(range(n, self.ncols))

    # -- packed rows -------------------------------------------------------

    def slot(self, p: int, k: int) -> int:
        """Slot k of the packed row p, read as ((p + half) mod 2^w) - half
        for k = 0.  For k > 0, p / 2^(w k) is first rounded to the nearest
        integer, which drops the slots below k exactly, since together they
        are less than half of 2^(w k) in size: with u the low w + 1 bits of
        p >> (w k - 1), that integer is (u + 1) >> 1 modulo 2^w, and the
        half slot folds into the same shift."""
        if k:
            p = ((p >> (self.w * k - 1)) & self.wide) + self.top >> 1
        else:
            p += self.half
        return (p & self.mask) - self.half

    # -- certificates read off the tableau ---------------------------------

    def _scaled_values(self) -> List[int]:
        """den * x for every column."""
        den, half, mask = self.den, self.half, self.mask
        x = [den * v for v in self.val]
        for row, b in zip(self.tab, self.basis):
            x[b] = ((row + half) & mask) - half  # slot 0 is beta
        return x

    def _dual(self, cost: Sequence[int]) -> List[int]:
        """den * y with y = c_B B^-1, read off the artificial block of the
        final reduced costs: for column n+i, which is sign_i e_i, rc is
        den * cost - sign_i den y_i."""
        n, den, rc, slot = self.n, self.den, self.rc, self.slot
        return [
            sign * (den * cost[n + i] - slot(rc, n + i + 1))
            for i, sign in enumerate(self.art_sign)
        ]

    # -- core iteration ----------------------------------------------------

    def _reduced_costs(self, cost: Sequence[int]) -> int:
        """den * (c - c_B B^-1 [A | I]) for an integer cost vector, packed,
        with slot 0 cleared."""
        rc = self.den * (_pack(cost, self.w) << self.w)
        for row, b in zip(self.tab, self.basis):
            cb = cost[b]
            if cb:
                rc -= cb * row
        half = self.half
        return rc - (((rc + half) & self.mask) - half)  # slot 0 cleared

    def _entering(self) -> Optional[Tuple[int, int]]:
        """Bland's rule: the lowest column whose move improves.  Every such
        column has a nonzero reduced cost.  Only the reduced costs of
        nonbasic columns that are not fixed are decoded, in column order up
        to the first that improves."""
        # slot 0 of rc is zero, so rc >> w holds the columns alone
        w, mask, half, fixed = self.w, self.mask, self.half, self.fixed
        q = (self.rc >> w) + self.offset
        for j, st in enumerate(self.status):
            if st == _BASIC or fixed[j]:
                continue  # a basic column's rc is 0; a fixed column never improves
            dj = ((q >> (w * j)) & mask) - half
            if st == _AT_LOWER:
                if dj > 0:
                    return j, 1
            elif st == _AT_UPPER:
                if dj < 0:
                    return j, -1
            elif dj:
                return j, (1 if dj > 0 else -1)
        return None

    def _step(self, j: int, dire: int) -> Optional[int]:
        """One ratio-test move for entering column j.  Returns the pivot row,
        None when the move was a bound flip, or -1 when nothing bounds the
        move (an unbounded direction; the caller decides)."""
        den, tab, basis, lo, hi, val = self.den, self.tab, self.basis, self.lo, self.hi, self.val
        status, half, mask = self.status, self.half, self.mask
        # slot(row, j + 1) of every row
        sh, wide, top = self.w * (j + 1) - 1, self.wide, self.top
        col = self.col = [((((row >> sh) & wide) + top >> 1) & mask) - half for row in tab]
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
                t = ((tab[i] + half) & mask) - half - den * lo[b]  # slot 0 is beta
            else:
                if hi[b] is None:
                    continue
                t, r = den * hi[b] - (((tab[i] + half) & mask) - half), -r
            if num is None or t * q < num * r or (t * q == num * r and b < leave_var):
                num, q, leave_var, leave_row = t, r, b, i
        if num is None:
            return -1  # unbounded direction
        if leave_var == j:  # bound flip, basis unchanged
            step = bound - val[j]
            for k, c in enumerate(col):
                if c:
                    tab[k] -= c * step
            status[j] = _AT_UPPER if dire > 0 else _AT_LOWER
            val[j] = bound
            return None
        i = leave_row
        v = val[j]
        if v:
            for k, c in enumerate(col):
                if c:
                    tab[k] += c * v
        b = basis[i]
        if dire * col[i] > 0:
            status[b], val[b] = _AT_LOWER, lo[b]
        else:
            status[b], val[b] = _AT_UPPER, hi[b]
        tab[i] -= den * val[b]
        status[j], val[j] = _BASIC, 0
        basis[i] = j
        self._pivot(i, j)
        return i

    def _pivot(self, i: int, j: int):
        """Bareiss update of every other row and of rc on entering column j,
        whose entries _step left in col; den becomes |piv|."""
        tab, col, den, half = self.tab, self.col, self.den, self.half
        prow = tab[i]
        piv = col[i]
        if piv < 0:  # negating the pivot row negates the whole update
            prow = tab[i] = -prow
            piv = -piv
        for k, (row, f) in enumerate(zip(tab, col)):
            if k != i:
                tab[k] = _bareiss_row(row, prow, f, piv, den)
        # rc's slot 0 stays zero against the pivot row without its beta
        beta = ((prow + half) & self.mask) - half
        self.rc = _bareiss_row(self.rc, prow - beta, self.slot(self.rc, j + 1), piv, den)
        self.den = piv

    def _optimize(self, cost: Sequence[int]):
        """Run to optimality for max cost.x with an integer cost vector;
        returns ("optimal",) or ("unbounded", j, dire) for the escaping
        column."""
        self.rc = self._reduced_costs(cost)
        while True:
            pick = self._entering()
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
            for row, b in zip(self.tab, self.basis):
                ray[b] = -d * self.slot(row, k + 1)
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
    # Every argument is den times the true vector, in integers.

    def _check_primal(self, x: Sequence[int]):
        den = self.den
        for i, (row, r) in enumerate(zip(self.rows, self.rhs)):
            if sum(map(mul, row, x)) != den * r:
                raise ArithmeticError("primal point violates equality row %d" % i)
        for j, (v, (lo, hi)) in enumerate(zip(x, self.bounds)):
            if (lo is not None and v < den * lo) or (hi is not None and v > den * hi):
                raise ArithmeticError("primal point violates bounds on column %d" % j)

    def _check_optimal(self, x, value, y, cost):
        self._check_primal(x)
        den, status, fixed, val = self.den, self.status, self.fixed, self.val
        total = sum(map(mul, y, self.rhs))
        for j, col in enumerate(self.cols):
            dj = den * cost[j] - sum(map(mul, y, col))
            st = status[j]
            if st == _BASIC:
                if dj != 0:
                    raise ArithmeticError("nonzero reduced cost on a basic column")
            elif not fixed[j]:
                if st == _AT_LOWER and dj > 0:
                    raise ArithmeticError("improving column left at lower bound")
                if st == _AT_UPPER and dj < 0:
                    raise ArithmeticError("improving column left at upper bound")
                if st == _FREE and dj != 0:
                    raise ArithmeticError("nonzero reduced cost on a free column")
            total += dj * val[j]  # val is 0 on a basic column
        if total != value:
            raise ArithmeticError("duality gap in verified optimum")

    def _check_farkas(self, y: Sequence[int]):
        """sup over the bound box of y.Ax must fall strictly below y.b."""
        cap = 0
        for col, (lo, hi) in zip(self.cols, self.bounds):
            g = sum(map(mul, y, col))
            if g == 0:
                continue
            if g > 0:
                if hi is None:
                    raise ArithmeticError("Farkas vector unbounded above")
                cap += g * hi
            else:
                if lo is None:
                    raise ArithmeticError("Farkas vector unbounded below")
                cap += g * lo
        if not cap < sum(map(mul, y, self.rhs)):
            raise ArithmeticError("Farkas certificate failed verification")

    def _check_ray(self, ray: Sequence[int], cost: Sequence[int]):
        for row in self.rows:
            if sum(map(mul, row, ray)) != 0:
                raise ArithmeticError("unbounded ray leaves the equality space")
        if not sum(map(mul, cost, ray)) > 0:
            raise ArithmeticError("unbounded ray does not improve the objective")
        for r, (lo, hi) in zip(ray, self.bounds):
            if (r > 0 and hi is not None) or (r < 0 and lo is not None):
                raise ArithmeticError("unbounded ray escapes a finite bound")


def _bareiss_row(row: int, prow: int, f: int, piv: int, den: int) -> int:
    """Eliminate column j of the packed row against the packed pivot row
    prow, where f is the row's entry in column j: (piv*row - f*prow) // den
    for every slot at once.  By Sylvester's identity each slot of the
    result is, up to sign, a minor of [A | I | r] for the integer vector r
    whose image beta is, so each slot's division is exact, and with it the
    division of the whole packed row."""
    if f == 0:
        return row if piv == den else row * piv // den
    return (piv * row - f * prow) // den


# ---------------------------------------------------------------------------
# branch and bound


@dataclass(frozen=True)
class BnbConfig:
    """branch_priority is a tuple of variable names tried in order; None
    selects the default (mu by descending kernel-column norm, then x by
    index).  node_limit caps the nodes of one search.  The search itself is
    always depth-first, floor child first."""

    branch_priority: Optional[Tuple[str, ...]] = None
    node_limit: int = 1_000_000

    def __post_init__(self):
        if self.node_limit < 1:
            raise DomainError("node_limit must be at least 1")
        if self.branch_priority is not None:
            object.__setattr__(self, "branch_priority", tuple(self.branch_priority))


@dataclass(frozen=True)
class BnbResult:
    status: str  # "feasible" | "infeasible" | "node_limit"
    nodes: int
    proof_depth: int
    x: Optional[Tuple[int, ...]] = None
    mu: Optional[Tuple[int, ...]] = None


class _BnbSpace:
    """Column layout, base bounds and integer re-verification for one run.

    The LP data stay the integers they arrive as: rows and rhs are A and b,
    or [P | -T] and P x0, and every bound is an int or None.  They are
    wrapped once per run in the _LpRows that every node's tableau starts
    from.  Absent x bounds default to the nonnegative orthant, the native
    domain of every problem treated here; the mu columns are free.
    """

    def __init__(self, sys: EqualitySystem, ef: Optional[ExtendedFormulation]):
        self.sys = sys
        self.ef = ef
        n = sys.n
        lower = sys.var_lower if sys.var_lower is not None else (0,) * n
        upper = sys.var_upper if sys.var_upper is not None else (None,) * n
        self.xbounds = list(zip(lower, upper))
        xnames = ["x%d" % j for j in range(n)]
        if ef is None:
            self.names = xnames
            self.lp = _LpRows(sys.a.data, sys.b)
            self.base = self.xbounds
        else:
            self.names = xnames + ["mu%d" % j for j in range(ef.s)]
            rows = tuple(
                ef.p.row(i) + tuple(-v for v in ef.t.row(i)) for i in range(ef.p.rows)
            )
            self.lp = _LpRows(rows, ef.px0)
            self.base = self.xbounds + [(None, None)] * ef.s
        self.index = {name: j for j, name in enumerate(self.names)}

    def default_priority(self) -> Tuple[str, ...]:
        if self.ef is None:
            return tuple(self.names)
        mus = ["mu%d" % j for j in reversed(range(self.ef.s))]
        xs = ["x%d" % j for j in range(self.sys.n)]
        return tuple(mus + xs)

    def verify_integral(
        self, scaled: Sequence[int], den: int
    ) -> Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]:
        """The integer point scaled / den, checked against the system, its
        bounds and, for an extended formulation, P x = P x0 + T mu."""
        if any(v % den for v in scaled):
            raise ArithmeticError("claimed integral point has a fraction")
        ints = [v // den for v in scaled]
        x = tuple(ints[: self.sys.n])
        if mat_vec(self.sys.a, x) != tuple(self.sys.b):
            raise ArithmeticError("integer certificate violates A x = b")
        for xi, (lo, hi) in zip(x, self.xbounds):
            if (lo is not None and xi < lo) or (hi is not None and xi > hi):
                raise ArithmeticError("integer certificate violates bounds")
        if self.ef is None:
            return x, None
        mu = tuple(ints[self.sys.n :])
        lhs = mat_vec(self.ef.p, x)
        rhs = tuple(
            self.ef.px0[i] + sum(self.ef.t.data[i][k] * mu[k] for k in range(self.ef.s))
            for i in range(self.ef.p.rows)
        )
        if lhs != rhs:
            raise ArithmeticError("integer certificate violates P x = P x0 + T mu")
        return x, mu


IntBounds = Tuple[Optional[int], Optional[int]]


def _meet(a: IntBounds, b: IntBounds) -> Optional[IntBounds]:
    """Intersection of two integer intervals, None standing for an open
    end; None when the intersection is empty."""
    lo = max((v for v in (a[0], b[0]) if v is not None), default=None)
    hi = min((v for v in (a[1], b[1]) if v is not None), default=None)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def bnb_feasibility(
    sys: EqualitySystem,
    ef: Optional[ExtendedFormulation] = None,
    cfg: Optional[BnbConfig] = None,
) -> BnbResult:
    """Depth-first feasibility search; every variable is integer-constrained.

    The LP rows, their columns and the signed starting tableau rows are
    built once per run; a node differs from the root only in its integer
    bounds, and the search reads the den-scaled integers of each LpResult,
    never a Fraction.  Each node's feasibility LP is simplex phase 1.  If
    its point is fractional on some priority variable, that variable's
    exact integer range inside the node is probed by maximizing and
    minimizing it from the same basis (charged to the same node); an empty
    range prunes immediately, which is what lets width-0 instances die at
    the root.  Children fix v <= floor and v >= ceil of the LP value within
    that range, floor side explored first.  Each child's bound lies inside
    the parent's exact LP range, so its LP is feasible: only the root can
    be pruned by an infeasible phase 1.
    """
    cfg = cfg or BnbConfig()
    space = _BnbSpace(sys, ef)
    priority = cfg.branch_priority or space.default_priority()
    for name in priority:
        if name not in space.index:
            raise DomainError("unknown variable %r in branch_priority" % name)
    prio_cols = [space.index[name] for name in priority]
    # names never listed still need integrality; scan them after the list
    listed = set(prio_cols)
    order = prio_cols + [j for j in range(len(space.names)) if j not in listed]

    stack: List[Tuple[int, Dict[int, IntBounds]]] = [(0, {})]
    nodes = 0
    max_depth = 0
    while stack:
        if nodes >= cfg.node_limit:
            return BnbResult(status="node_limit", nodes=nodes, proof_depth=max_depth)
        depth, over = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        bounds = list(space.base)
        for j, bb in over.items():
            bounds[j] = bb
        sx = _Simplex(space.lp, bounds)
        res = sx.phase1()
        if res.status == "infeasible":
            continue
        # the LP point is point[j] / den; every floor and ceiling below is
        # integer floor division
        den, point = res.den, res.scaled_point
        branch = next((j for j in order if point[j] % den), None)
        if branch is None:
            x, mu = space.verify_integral(point, den)
            return BnbResult(
                status="feasible", nodes=nodes, proof_depth=depth, x=x, mu=mu
            )

        # probe the exact LP range of the branch variable, reusing the
        # node's feasible basis for both directions
        hi_lp = sx.probe(branch, 1)
        lo_lp = sx.probe(branch, -1)
        probe = (
            -(lo_lp.scaled_value // lo_lp.den) if lo_lp.status == "optimal" else None,
            hi_lp.scaled_value // hi_lp.den if hi_lp.status == "optimal" else None,
        )
        rng = _meet(bounds[branch], probe)
        if rng is None:
            continue  # no integer value available for this variable
        v = point[branch]
        # floor child pushed last: popped first
        for child_bounds in (_meet(rng, (-(-v // den), None)), _meet(rng, (None, v // den))):
            if child_bounds is not None:
                child = dict(over)
                child[branch] = child_bounds
                stack.append((depth + 1, child))
    return BnbResult(status="infeasible", nodes=nodes, proof_depth=max_depth)


# ---------------------------------------------------------------------------
# market split instances

_MASK64 = (1 << 64) - 1
MARKET_SPLIT_ENTRY_GUARD = 10**6


def _splitmix64(seed: int):
    """splitmix64 stream: state += 0x9E3779B97F4A7C15, output mixed with
    the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB multiply-xorshift pair."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def gen_market_split(m: int, seed: int) -> EqualitySystem:
    """Binary equality system with m rows, n = 10(m-1) columns, entries
    uniform on [0, 99] and each rhs half its row sum (rounded down).

    The stream is splitmix64 on the given seed, consumed row-major, so the
    same seed reproduces the same instance everywhere.  More than
    MARKET_SPLIT_ENTRY_GUARD entries (m > 316) raise ResourceLimitError
    before any entry is drawn.
    """
    if m < 2:
        raise DomainError("market split needs at least two rows")
    n = 10 * (m - 1)
    if m * n > MARKET_SPLIT_ENTRY_GUARD:
        raise ResourceLimitError(
            "m = %d needs %d entries, over the %d-entry guard"
            % (m, m * n, MARKET_SPLIT_ENTRY_GUARD)
        )
    gen = _splitmix64(seed)
    rows = [[next(gen) % 100 for _ in range(n)] for _ in range(m)]
    b = tuple(sum(row) // 2 for row in rows)
    return EqualitySystem(
        IntMatrix.from_rows(rows), b, var_lower=(0,) * n, var_upper=(1,) * n
    )


# ---------------------------------------------------------------------------
# formulation comparison


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    status: str
    nodes: int
    proof_depth: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: Tuple[ComparisonRow, ...]

    def to_json_obj(self):
        return {
            "rows": [
                {
                    "formulation": r.label,
                    "status": r.status,
                    "nodes": r.nodes,
                    "proof_depth": r.proof_depth,
                }
                for r in self.rows
            ]
        }

    def to_text(self) -> str:
        head = ("formulation", "status", "nodes", "proof_depth")
        table = [head] + [
            (r.label, r.status, str(r.nodes), str(r.proof_depth)) for r in self.rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table
        ]
        return "\n".join(lines)


def compare_formulations(
    sys: EqualitySystem,
    s_values: Sequence[int],
    cfg: Optional[BnbConfig] = None,
) -> ComparisonTable:
    """Run the same feasibility question through the original system, the
    full substitution (s = n - m, so x follows from the multipliers), and
    one extended formulation per requested s, all built on one kernel basis
    reduced at LLL's default delta 3/4.  Each distinct s is searched once:
    s = n - m is the full substitution, so its row repeats the ahl search.
    Decided statuses must agree; node-limited rows are reported as-is.
    """
    cfg = cfg or BnbConfig()
    ks = kernel_and_solution(sys.a, sys.b)
    if not ks.feasible:
        raise IntegerInfeasibleError(ks.scale_k, ks.x0)

    def search(s: int) -> BnbResult:
        ef = build_extended(sys, split_basis(ks.q, FixedSplit(s)), ks.q, ks.x0)
        return bnb_feasibility(sys, ef, cfg)

    d = sys.n - sys.m
    rows = [_row("original", bnb_feasibility(sys, None, cfg))]
    done = {d: search(d)}
    rows.append(_row("ahl", done[d]))
    for s in s_values:
        if s not in done:
            done[s] = search(s)
        rows.append(_row("ext s=%d" % s, done[s]))

    decided = {r.status for r in rows if r.status != "node_limit"}
    if len(decided) > 1:
        raise ArithmeticError(
            "formulations disagree on feasibility: %s"
            % ", ".join("%s=%s" % (r.label, r.status) for r in rows)
        )
    return ComparisonTable(tuple(rows))


def _row(label: str, res: BnbResult) -> ComparisonRow:
    return ComparisonRow(
        label=label, status=res.status, nodes=res.nodes, proof_depth=res.proof_depth
    )
