"""Exact LP-based feasibility testing for the original and reformulated systems.

Everything here runs in exact integer arithmetic: the simplex solver keeps
a dense fraction-free integer tableau over one common denominator
(Bareiss pivoting), basic values included, and uses Bland's rule, so it
terminates without tolerances, and every answer carries a certificate
that is re-verified in integers before it is returned.  Each tableau row
is packed into one Python int (Kronecker substitution), so a row update
is one big-integer expression instead of a loop over its entries.  The
slot width comes from Hadamard's bound on the LP rows alone, so one
width serves a whole search whatever its bounds; the basic values, which
grow with the bounds, are held apart as plain ints.  An LpResult holds
those integers and their denominator.  Branch and bound is the simplex's
only caller and reads the integers alone: phase 1 is the root's
feasibility LP, two probes from a node's feasible basis maximize and
minimize the chosen branching variable, and each child starts from the
basis of the probe toward its side, which a bounded dual simplex repairs
after the one bound that changed (the reoptimisation of exact LP codes:
QSopt_ex, Applegate, Cook, Dash and Espinoza 2007; Koberstein 2005 for
bounded variables).

Variables are addressed by name: "x0", "x1", ... for the structural columns
and "mu0", "mu1", ... for the multipliers of an extended formulation.
"""

from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence, Tuple

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
    shares: the columns of the rows, which the certificate checks read; the
    slot width w (_slot_width); per row i the two signed starting rows [0 |
    row_i | e_i] and [0 | -row_i | e_i], packed, of which a new tableau
    takes the one whose sign matches row i's residual; and offset, half a
    slot in every slot of a row, which makes each slot nonnegative for
    decoding.  All are built once per run."""

    def __init__(self, rows: Sequence[Sequence[int]], rhs: Sequence[int]):
        self.rows, self.rhs = rows, rhs
        self.cols = tuple(zip(*rows))
        m, n = len(rows), len(self.cols)
        w = self.w = _slot_width(rows)
        self.starts = []
        for i, row in enumerate(rows):
            unit = 1 << (w * (n + 1 + i))
            plus = _pack((0,) + tuple(row), w)
            self.starts.append((plus + unit, unit - plus))
        self.offset = _pack([1 << (w - 1)] * (n + m + 1), w)


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


def _slot_width(rows: Sequence[Sequence[int]]) -> int:
    """The slot width every tableau over rows needs (see _Simplex): H^2 =
    prod_i (||row_i||^2 + 1) by Hadamard, times the widest cost's norm^2,
    phase 1's m."""
    h_sq = max(1, len(rows))
    for row in rows:
        h_sq *= sum(a * a for a in row) + 1
    return _width(h_sq)


class _Simplex:
    """Bounded-variable two-phase simplex on a fraction-free integer tableau.

    The inputs are an _LpRows of integer rows and rhs, and one (lower,
    upper) pair per column of ints or None, lower <= upper when both are
    ints.  They are kept as given and
    the certificate checks read them directly.  A nonbasic column always
    sits at one of its bounds, or at 0 when it is free, so every nonbasic
    value is an integer; val holds it, and fixed marks the columns with
    lower == upper, both kept in step with status.

    The tableau B^-1 [A | S], where S holds the artificial columns, is held
    in integers over one common denominator den > 0: the true entry is
    T[i][j] / den, and den is |det B|.  Each row is one Python int, the
    value at X = 2^w of the polynomial whose coefficients are the row: slot
    j + 1 holds column j, a signed w-bit integer, and slot 0 stays zero, so
    every column decodes by the same shift.  Every entry is, up to sign, an
    m x m minor of [A | S], so by Hadamard's bound it is at most H =
    prod_i ||(a_i, 1)||.  The reduced-cost row rc = den * (c - c_B B^-1 [A
    | S]) is packed the same way; its entries are (m+1)-minors that take in
    the cost row, at most H ||c||.  The widest cost is phase 1's, with
    ||c||^2 = m, as a probe's has norm 1, so w = bitlength(H sqrt(max(1,
    m))) + 1 holds every decoded value.  w comes from the rows alone, so it
    holds whatever the bounds, and one width serves a whole search.  Values
    in between, such as piv*row, need not fit a slot: the packed identities
    are exact for any integers.  The basic values, which grow with the
    bounds, are held apart as the list of ints beta = den * x_B.

    A pivot on (i, j) is the Bareiss update T'[k] = (piv*T[k] -
    T[k][j]*T[i]) // den, one big-integer expression per row, and the same
    step on beta; every division is exact, and den then becomes |piv|.
    Before it, beta is rewritten for the new nonbasic set: the entering
    column's value is folded in and the leaving column moves to the bound
    its ratio named.  A bound flip subtracts column * step from beta the
    same way.  rc is built once per optimisation and rides along under the
    same update.  Ratios are compared as integer cross-products, so nothing
    is ever divided.

    phase1 finds a feasible basis or a Farkas certificate; probe then
    maximizes dire * x_j for any number of columns j and signs dire in
    turn from the current basis.  tighten narrows one column's bounds and
    repairs the basis by a zero-cost dual simplex, ending in a feasible
    basis for further probes or in a Farkas certificate; fork copies a
    tableau so that two children can start from it.  The artificial
    columns are kept for the whole solve; after phase 1 they are fixed to
    zero, which both blocks re-entry and keeps B^-1 readable off the
    tableau for the dual and Farkas certificates.  Every certificate is
    checked on den-scaled integers against the original rows and den *
    rhs, and the LpResult carries those integers.
    """

    def __init__(self, lp: _LpRows, bounds: Sequence[Tuple[Optional[int], Optional[int]]]):
        self.bounds = bounds
        self.rows, self.rhs, self.cols = lp.rows, lp.rhs, lp.cols
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
        w = self.w = lp.w
        self.half = 1 << (w - 1)
        self.mask = (1 << w) - 1
        self.wide = (1 << (w + 1)) - 1
        self.top = (1 << w) + 1
        self.offset = lp.offset
        # tab = den B^-1 [A | S] with B the (signed) artificial columns S,
        # so den starts at 1 and beta at the residuals |b - A x_N|
        self.den = 1
        self.art_sign, self.tab, self.beta = [], [], []
        for row, r, (plus, minus) in zip(lp.rows, lp.rhs, lp.starts):
            resid = r - sum(map(mul, row, self.val))
            sign = 1 if resid >= 0 else -1
            self.art_sign.append(sign)
            self.tab.append(plus if sign > 0 else minus)
            self.beta.append(sign * resid)
        self.rc = 0
        self.col: List[int] = []  # the entering column: _step reads it, _pivot uses it
        self.basis = list(range(n, self.ncols))

    # -- packed rows -------------------------------------------------------

    def slot(self, p: int, k: int) -> int:
        """Slot k > 0 of the packed row p.  p / 2^(w k) is first rounded to
        the nearest integer, which drops the slots below k exactly, since
        together they are less than half of 2^(w k) in size: with u the low
        w + 1 bits of p >> (w k - 1), that integer is (u + 1) >> 1 modulo
        2^w, and the half slot folds into the same shift."""
        p = ((p >> (self.w * k - 1)) & self.wide) + self.top >> 1
        return (p & self.mask) - self.half

    # -- certificates read off the tableau ---------------------------------

    def _scaled_values(self) -> List[int]:
        """den * x for every column."""
        x = [self.den * v for v in self.val]
        for beta, b in zip(self.beta, self.basis):
            x[b] = beta
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
        """den * (c - c_B B^-1 [A | S]) for an integer cost vector, packed
        like the rows."""
        rc = self.den * (_pack(cost, self.w) << self.w)
        for row, b in zip(self.tab, self.basis):
            cb = cost[b]
            if cb:
                rc -= cb * row
        return rc

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

    def _column(self, j: int) -> List[int]:
        """Decode column j, slot j + 1 of every row, into col, where _move,
        _exchange and _pivot read it."""
        sh, wide, top, mask, half = self.w * (j + 1) - 1, self.wide, self.top, self.mask, self.half
        col = self.col = [((((row >> sh) & wide) + top >> 1) & mask) - half for row in self.tab]
        return col

    def _step(self, j: int, dire: int) -> Optional[int]:
        """One ratio-test move for entering column j.  Returns the pivot row,
        None when the move was a bound flip, or -1 when nothing bounds the
        move (an unbounded direction; the caller decides)."""
        den, beta, basis, lo, hi, val = self.den, self.beta, self.basis, self.lo, self.hi, self.val
        col = self._column(j)
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
                t = beta[i] - den * lo[b]
            else:
                if hi[b] is None:
                    continue
                t, r = den * hi[b] - beta[i], -r
            if num is None or t * q < num * r or (t * q == num * r and b < leave_var):
                num, q, leave_var, leave_row = t, r, b, i
        if num is None:
            return -1  # unbounded direction
        if leave_var == j:  # bound flip, basis unchanged
            self.status[j] = _AT_UPPER if dire > 0 else _AT_LOWER
            self._move(j, bound)
            return None
        self._exchange(leave_row, j, dire * col[leave_row] > 0)
        return leave_row

    def _move(self, j: int, v: int):
        """Set nonbasic column j, decoded in col, to the value v: beta falls
        by the column times the step."""
        step = v - self.val[j]
        if step:
            beta = self.beta
            for k, c in enumerate(self.col):
                if c:
                    beta[k] -= c * step
        self.val[j] = v

    def _exchange(self, i: int, j: int, to_lower: bool):
        """Column j, decoded in col, enters the basis in row i, and the
        column basic there leaves at its lower bound if to_lower, else at
        its upper.  Both moves are folded into beta before the pivot: the
        entering value (a basic column's val is 0) and the leaving bound."""
        self._move(j, 0)
        status, val, basis = self.status, self.val, self.basis
        b = basis[i]
        if to_lower:
            status[b], val[b] = _AT_LOWER, self.lo[b]
        else:
            status[b], val[b] = _AT_UPPER, self.hi[b]
        self.beta[i] -= self.den * val[b]
        status[j] = _BASIC
        basis[i] = j
        self._pivot(i, j)

    def _pivot(self, i: int, j: int):
        """Bareiss update of every other row, its beta and rc on entering
        column j, whose entries _step left in col; den becomes |piv|."""
        tab, beta, col, den = self.tab, self.beta, self.col, self.den
        prow, pbeta, piv = tab[i], beta[i], col[i]
        if piv < 0:  # negating the pivot row negates the whole update
            prow, pbeta, piv = -prow, -pbeta, -piv
            tab[i], beta[i] = prow, pbeta
        for k, f in enumerate(col):
            if k != i:
                tab[k] = _bareiss_row(tab[k], prow, f, piv, den)
                beta[k] = _bareiss_row(beta[k], pbeta, f, piv, den)
        self.rc = _bareiss_row(self.rc, prow, self.slot(self.rc, j + 1), piv, den)
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

    def fork(self) -> "_Simplex":
        """A tableau that evolves apart from this one: the rows, the basis
        and every per-column list are copied, the rest is shared."""
        twin = _Simplex.__new__(_Simplex)
        twin.__dict__.update(self.__dict__)
        twin.tab, twin.beta, twin.basis = self.tab[:], self.beta[:], self.basis[:]
        twin.status = self.status[:]
        twin.val, twin.lo, twin.hi, twin.fixed = self.val[:], self.lo[:], self.hi[:], self.fixed[:]
        return twin

    def tighten(self, j: int, bounds: Sequence[Tuple[Optional[int], Optional[int]]]) -> LpResult:
        """Restrict column j to bounds[j], an interval inside its current
        bounds, and repair the basis by a zero-cost bounded dual simplex:
        an "infeasible" result with a checked Farkas vector, or a
        "feasible" one with a primal-checked point, after which probe may
        run.  bounds replaces the bounds the checks read; it must differ
        from them in column j alone.  Only valid after a feasible phase1 or
        tighten.

        A nonbasic j moves to its bound on the side it sat at.  Then, by
        Bland's rule, the lowest basic column outside its bounds leaves at
        the bound it broke, and the lowest nonbasic, unfixed column whose
        move pushes it toward that bound enters; with zero cost every
        column is dual feasible, so any such column may enter.  When none
        can, the leaving column's row of B^-1 is a Farkas vector."""
        self.bounds = bounds
        lo, hi, status = self.lo, self.hi, self.status
        lo[j], hi[j] = bounds[j]
        self.fixed[j] = lo[j] is not None and lo[j] == hi[j]
        st = status[j]
        if st == _FREE:
            st = _AT_LOWER if lo[j] is not None else _AT_UPPER if hi[j] is not None else _FREE
        if st != _BASIC:
            status[j] = st
            self._column(j)
            self._move(j, lo[j] if st == _AT_LOWER else hi[j] if st == _AT_UPPER else 0)
        self.rc = 0
        w, half, mask, fixed = self.w, self.half, self.mask, self.fixed
        while True:
            den, tab = self.den, self.tab
            leave = None
            for i, (beta, b) in enumerate(zip(self.beta, self.basis)):
                if leave is not None and b > leave[0]:
                    continue
                if lo[b] is not None and beta < den * lo[b]:
                    leave = b, i, 1
                elif hi[b] is not None and beta > den * hi[b]:
                    leave = b, i, -1
            if leave is None:
                x = tuple(self._scaled_values()[: self.n])
                self._check_primal(x)
                return LpResult(status="feasible", den=den, scaled_point=x)
            _, i, rise = leave
            # column k moves x_b by -tab[i][k] / den per unit; it may enter
            # if it can move the way that takes x_b back toward its bound
            q = (tab[i] >> w) + self.offset
            enter = None
            for k, st in enumerate(status):
                if st == _BASIC or fixed[k]:
                    continue
                a = rise * (((q >> (w * k)) & mask) - half)
                if (a < 0 and st != _AT_UPPER) or (a > 0 and st != _AT_LOWER):
                    enter = k
                    break
            if enter is None:
                n, row = self.n, tab[i]
                farkas = tuple(
                    -rise * sign * self.slot(row, n + r + 1)
                    for r, sign in enumerate(self.art_sign)
                )
                self._check_farkas(farkas)
                return LpResult(status="infeasible", den=den, scaled_farkas=farkas)
            self._column(enter)
            self._exchange(i, enter, rise > 0)

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
    result is, up to sign, a minor of [A | S], so each slot's division is
    exact, and with it the division of the whole packed row.  The same
    step on a basic value and the pivot row's gives a minor of [A | S | r],
    r the residual b - A x_N, exactly as well."""
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
    built once per run; a node differs from its parent only in the integer
    bounds of one variable, and the search reads the den-scaled integers
    of each LpResult, never a Fraction.  The root's feasibility LP is
    simplex phase 1.  If a node's point is fractional on some priority
    variable, that variable's exact integer range inside the node is
    probed by maximizing and then minimizing it from the same basis
    (charged to the same node); an empty range prunes immediately, which
    is what lets width-0 instances die at the root.  Children fix v <=
    floor and v >= ceil of the LP value within that range, floor side
    explored first.  The floor child goes on with the live tableau, left
    at the minimizing probe's basis, and the ceiling child with a fork
    taken at the maximizing probe's basis, only when the maximum leaves
    that child non-empty; each tightens its one bound and
    repairs the basis by the dual simplex (_Simplex.tighten).  The slot
    width comes from the LP rows alone, so every child's bounds, however
    far they reach, fit the root's tableau.  Each child's bound lies inside
    the parent's exact LP range, so its LP is feasible: only the root can
    be pruned by an infeasible LP.
    """
    cfg = cfg or BnbConfig()
    space = _BnbSpace(sys, ef)
    priority = space.default_priority() if cfg.branch_priority is None else cfg.branch_priority
    for name in priority:
        if name not in space.index:
            raise DomainError("unknown variable %r in branch_priority" % name)
    prio_cols = [space.index[name] for name in priority]
    # names never listed still need integrality; scan them after the list
    listed = set(prio_cols)
    order = prio_cols + [j for j in range(len(space.names)) if j not in listed]

    # (depth, bounds, the parent's tableau, branched column or -1 at the root)
    stack: List[Tuple[int, List[IntBounds], _Simplex, int]] = [
        (0, list(space.base), _Simplex(space.lp, space.base), -1)
    ]
    nodes = 0
    max_depth = 0
    while stack:
        if nodes >= cfg.node_limit:
            return BnbResult(status="node_limit", nodes=nodes, proof_depth=max_depth)
        depth, bounds, sx, j = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        res = sx.phase1() if j < 0 else sx.tighten(j, bounds)
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
        # node's feasible basis for both directions; each child starts from
        # the vertex of the probe toward its side.  The maximum alone
        # decides whether the ceiling child is empty, so the tableau is
        # copied for it only when it is not.
        v = point[branch]
        hi_lp = sx.probe(branch, 1)
        top = hi_lp.scaled_value // hi_lp.den if hi_lp.status == "optimal" else None
        ceiling = _meet(bounds[branch], (-(-v // den), top))
        up = sx.fork() if ceiling is not None else None
        lo_lp = sx.probe(branch, -1)
        bottom = -(lo_lp.scaled_value // lo_lp.den) if lo_lp.status == "optimal" else None
        rng = _meet(bounds[branch], (bottom, top))
        if rng is None:
            continue  # no integer value available for this variable
        # floor child pushed last: popped first.  The LP minimum is at or
        # below the point, so bottom cannot cut the ceiling child.
        for child_bounds, start in ((ceiling, up), (_meet(rng, (None, v // den)), sx)):
            if child_bounds is not None:
                child = list(bounds)
                child[branch] = child_bounds
                stack.append((depth + 1, child, start, branch))
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
