import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latref import (
    BnbConfig,
    bnb_feasibility,
    compare_formulations,
    gen_market_split,
    make_decomposition,
    width_bounds,
)
from latref import solver
from latref.exact import DomainError, IntMatrix, mat_mul, mat_vec, transpose
from latref.knapsack import ResourceLimitError, frobenius_exact
from latref.lattice import kernel_and_solution, lll_reduce
from latref.reformulate import (
    EqualitySystem,
    FixedSplit,
    build_extended,
    detect_decomposition,
    dual_kernel,
    split_basis,
)
from support import (
    ListSimplex,
    box_vertices,
    full_row_rank,
    lp_solve,
    random_decomposition,
    unpack,
)

CUWW1 = (12223, 12224, 36674, 61119, 85569)
CUWW1_F = 89643481


def knapsack_system(a, b):
    return EqualitySystem(IntMatrix.from_rows([a]), (b,))


def scaled_width_lp(d):
    n = len(d.a)
    rows = (tuple(d.p1) + (-d.m2,), tuple(d.p2) + (d.m1,))
    bounds = tuple((0, None) for _ in range(n)) + ((None, None),)
    return (0,) * n + (1,), rows, (d.q1, d.q2), bounds


def enumerate_binary_feasible(sys_):
    n = sys_.n
    for bits in itertools.product((0, 1), repeat=n):
        if mat_vec(sys_.a, bits) == tuple(sys_.b):
            return bits
    return None


def test_lp_fixed_value():
    r = lp_solve((1,), ((1,),), (5,), ((0, None),))
    assert r.status == "optimal" and r.value == 5


def test_lp_infeasible_farkas():
    r = lp_solve((0,), ((1,),), (-1,), ((0, None),))
    assert r.status == "infeasible"
    y = r.farkas[0]
    # y certifies: y*(row) dominated on x >= 0 yet y*b exceeds it
    assert y <= 0 and y * (-1) > 0


def test_lp_unbounded():
    r = lp_solve((1,), ((0,),), (0,), ((0, None),))
    assert r.status == "unbounded"
    assert r.ray is not None


def test_lp_bounded_box():
    lp = ((1, 1, 0), ((1, 1, 1),), (4,), ((0, 3), (0, 3), (0, None)))
    assert lp_solve(*lp).value == 4
    assert lp_solve(*lp, "min").value == 0


def test_lp_matches_width_closed_form():
    """Simplex vs the closed-form interval ends, 50 random decompositions."""
    rng = random.Random(83)
    for _ in range(50):
        d = random_decomposition(rng)
        lp = scaled_width_lp(d)
        wa = width_bounds(d)
        assert lp_solve(*lp).value == wa.zbar
        assert lp_solve(*lp, "min").value == wa.zlower


def test_lp_cuww1_scaled_polytope():
    d = make_decomposition(CUWW1, (-1, 0, 2, -1, 1), (2, 1, 1, 6, 6), 12225, 12224)
    lp = scaled_width_lp(d)
    wa = width_bounds(d)
    assert lp_solve(*lp).value == wa.zbar
    assert lp_solve(*lp, "min").value == wa.zlower


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def column_sums(rows, y):
    return [dot(y, col) for col in zip(*rows)]


def assert_box_farkas(rows, rhs, box, y):
    """On the box, y.A x never reaches y.b."""
    cap = sum(max(g * lo, g * hi) for g, (lo, hi) in zip(column_sums(rows, y), box))
    assert cap < dot(y, rhs)


def assert_box_optimum(obj, rows, rhs, box, r, sense, best):
    assert r.status == "optimal" and r.value == best
    assert dot(obj, r.point) == best
    for row, b in zip(rows, rhs):
        assert dot(row, r.point) == b
    assert all(lo <= v <= hi for v, (lo, hi) in zip(r.point, box))
    # y.b plus the best the reduced costs can add on the box is the optimum
    pick = max if sense == "max" else min
    red = [c - g for c, g in zip(obj, column_sums(rows, r.dual))]
    assert dot(r.dual, rhs) + sum(
        pick(d * lo, d * hi) for d, (lo, hi) in zip(red, box)
    ) == best


@st.composite
def box_lps(draw):
    """A full row rank integer system on a finite integer box, with an
    integer objective."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 5))
    small = st.integers(-6, 6)
    rows = draw(
        st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m)
        .filter(full_row_rank)
    )
    box = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 6)), min_size=n, max_size=n))
    box = tuple((lo, lo + w) for lo, w in box)
    obj = draw(st.lists(small, min_size=n, max_size=n))
    rhs = draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m))
    return tuple(obj), tuple(map(tuple, rows)), tuple(rhs), box


@settings(max_examples=150, deadline=None)
@given(box_lps(), st.sampled_from(("max", "min")))
def test_lp_rational_box_vs_vertex_enumeration(lp, sense):
    """The optimum is the best of all basic feasible points, with a dual
    that proves it; when there is no such point, a Farkas vector."""
    obj, rows, rhs, box = lp
    vertices = list(box_vertices(rows, rhs, box))
    r = lp_solve(obj, rows, rhs, box, sense)
    if not vertices:
        assert r.status == "infeasible"
        assert_box_farkas(rows, rhs, box, r.farkas)
        return
    values = [dot(obj, v) for v in vertices]
    best = max(values) if sense == "max" else min(values)
    assert_box_optimum(obj, rows, rhs, box, r, sense, best)


def test_lp_rational_unbounded_ray():
    # x2 has no lower bound, so x0 and x1 can grow without end
    obj, rows, rhs = (2, 1, 0), ((6, -8, 12),), (15,)
    box = ((1, None), (0, None), (None, 4))
    r = lp_solve(obj, rows, rhs, box, "max")
    assert r.status == "unbounded"
    assert dot(rows[0], r.ray) == 0
    assert dot(obj, r.ray) > 0
    for v, (lo, hi) in zip(r.ray, box):
        assert not (v > 0 and hi is not None) and not (v < 0 and lo is not None)
    low = lp_solve(obj, rows, rhs, box, "min")
    assert low.status == "optimal" and low.value == 2
    assert low.point == (1, 0, F(3, 4))


# ---------------------------------------------------------------------------
# the packed tableau against the list-row reference


def recording(cls, decode):
    """A subclass of the simplex class cls that logs each pivot as (i, j,
    den after it, every row decoded as beta then the columns), and the
    log."""
    log = []

    class Recording(cls):
        def _pivot(self, i, j):
            super()._pivot(i, j)
            log.append((i, j, self.den, decode(self)))

    return Recording, log


def packed_rows(sx):
    return [[beta] + unpack(sx, row) for beta, row in zip(sx.beta, sx.tab)]


def list_rows(sx):
    return [row[-1:] + row[:-1] for row in sx.tab]


def solve_both(objective, rows, rhs, bounds, sense="max"):
    """lp_solve by the packed simplex and by the list-row reference: the
    two results and the two pivot logs."""
    packed, packed_log = recording(solver._Simplex, packed_rows)
    listed, listed_log = recording(ListSimplex, list_rows)
    got = lp_solve(objective, rows, rhs, bounds, sense,
                   lambda r, b, bb: packed(solver._LpRows(r, b), bb))
    ref = lp_solve(objective, rows, rhs, bounds, sense, listed)
    return got, packed_log, ref, listed_log


@st.composite
def wide_lps(draw):
    """Up to 12 rows and 16 columns with entries up to 10^30, finite,
    one-sided and free bounds, and an objective with entries up to 10^20.
    The rhs is the image of a point inside the bounds, or arbitrary."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 16))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    bounds, point = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(("box", "lower", "upper", "free")))
        end = draw(st.one_of(st.integers(-5, 5), st.integers(-10**30, 10**30)))
        width = draw(st.integers(0, 6))
        offset = draw(st.integers(0, width))
        if kind == "box":
            bounds.append((end, end + width))
            point.append(end + offset)
        elif kind == "lower":
            bounds.append((end, None))
            point.append(end + offset)
        elif kind == "upper":
            bounds.append((None, end))
            point.append(end - offset)
        else:
            bounds.append((None, None))
            point.append(offset - width // 2)
    if draw(st.booleans()):
        rhs = [dot(row, point) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    coef = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))
    objective = draw(st.lists(coef, min_size=n, max_size=n))
    return objective, rows, rhs, bounds


@settings(max_examples=60, deadline=None)
@given(wide_lps(), st.sampled_from(("max", "min")))
def test_packed_simplex_matches_list_rows(lp, sense):
    """The packed tableau takes the same pivots as the list-row one, with
    the same den and the same decoded rows after each, and returns an
    equal LpResult."""
    got, packed_log, ref, listed_log = solve_both(*lp, sense)
    assert [e[:3] for e in packed_log] == [e[:3] for e in listed_log]
    assert packed_log == listed_log
    assert got == ref


def sylvester(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("scale", [1, 10**12])
def test_slots_hold_a_hadamard_determinant(order, scale):
    """A Sylvester-Hadamard matrix meets Hadamard's bound: |det| is
    order^(order/2).  Phase 1 makes every column basic, so den ends at
    |det|, a few bits below the top of a slot, whatever the size of the
    rhs: the slots are derived from the rows alone.  Every row decodes to
    the list-row reference after every pivot, and so do the probes of x_0
    that follow."""
    h = sylvester(order)
    rhs = [scale * row[0] for row in h]
    bounds = [(None, None)] * order
    packed, packed_log = recording(solver._Simplex, packed_rows)
    listed, listed_log = recording(ListSimplex, list_rows)
    sx, ref = packed(solver._LpRows(h, rhs), bounds), listed(h, rhs, bounds)
    got = sx.phase1()
    assert got == ref.phase1() and got.status == "feasible"
    assert packed_log == listed_log
    det = order ** (order // 2)
    assert packed_log[-1][2] == got.den == det
    assert got.scaled_point == (scale * det,) + (0,) * (order - 1)
    assert sx.w - det.bit_length() <= 5
    for dire in (1, -1):
        r = sx.probe(0, dire)
        assert r == ref.probe(0, dire) and r.scaled_value == dire * scale * det
    assert packed_log == listed_log
    assert lp_solve(list(range(order)), h, rhs, bounds).point == (scale,) + (0,) * (order - 1)


# two rows of 100-bit entries, whose slots are 202 bits wide
WIDE_ROWS = ((10**30 + 7, 3 * 10**29 - 1, -(10**30), 5), (2, -(10**30) + 11, 10**29, 10**30))
WIDE_RHS = tuple(dot(row, (1, 2, 0, 1)) for row in WIDE_ROWS)


@pytest.mark.parametrize("width", [16, 64, 128, 190])
def test_too_narrow_slots_end_in_a_certificate_error(width, monkeypatch):
    """Slots narrower than the derived width (202 bits here) wrap the
    large entries; phase 1 and the probes of every column must then fail
    a certificate check, not answer."""
    bounds = ((0, 3), (0, 3), (0, 3), (0, 3))
    assert solver._Simplex(solver._LpRows(WIDE_ROWS, WIDE_RHS), bounds).w == 202
    monkeypatch.setattr(solver, "_width", lambda bound_sq: width)
    sx = solver._Simplex(solver._LpRows(WIDE_ROWS, WIDE_RHS), bounds)
    with pytest.raises(ArithmeticError, match="primal point violates|Farkas certificate"):
        sx.phase1()
        for j in range(len(bounds)):
            sx.probe(j, 1)
            sx.probe(j, -1)


def test_slot_width_ignores_the_bounds():
    """The slot width comes from the rows alone: bounds at 10^40 give the
    root bounds' width, although the starting basic values are far wider
    than a slot, and the tableau still answers as the list-row reference."""
    lp = solver._LpRows(WIDE_ROWS, WIDE_RHS)
    far = ((-(10**40), 3), (0, 10**40), (None, 10**40), (-(10**40), None))
    sx = solver._Simplex(lp, far)
    assert solver._Simplex(lp, ((0, 3),) * 4).w == sx.w == 202
    assert max(abs(b) for b in sx.beta).bit_length() > sx.w
    ref = ListSimplex(WIDE_ROWS, WIDE_RHS, far)
    assert sx.phase1() == ref.phase1()
    for j in range(len(far)):
        for dire in (1, -1):
            assert sx.probe(j, dire) == ref.probe(j, dire)


def test_lp_negative_pivot(monkeypatch):
    """x1 leaves at its upper bound, so the tableau pivots on a negative
    entry and the integer rows change sign."""
    signs = []
    real = solver._Simplex._pivot

    def spy(self, i, j):
        signs.append(self.slot(self.tab[i], j + 1) < 0)
        real(self, i, j)

    monkeypatch.setattr(solver._Simplex, "_pivot", spy)
    obj, rows, rhs, box = (1, -2), ((-3, 8),), (0,), ((0, 9), (0, 3))
    r = lp_solve(obj, rows, rhs, box)
    assert any(signs)
    assert r.value == 2 and r.point == (8, 3)
    values = [dot(obj, v) for v in box_vertices(rows, rhs, box)]
    assert_box_optimum(obj, rows, rhs, box, r, "max", max(values))


# ---------------------------------------------------------------------------
# warm starts: a tighter bound on one column, repaired by the dual simplex


def test_tighten_beyond_the_probed_range_is_farkas_infeasible():
    """x0 ranges over [1, 5/2] in the LP; cut to [0, 0], the repaired
    basis has no column that can lift x0 back, and the leaving row of B^-1
    is a Farkas vector, which the check accepts only as it stands."""
    rows, rhs = ((1, 1, 1, 0), (2, -1, 0, 1)), (7, 2)
    bounds = [(0, 3)] * 4
    sx = solver._Simplex(solver._LpRows(rows, rhs), bounds)
    assert sx.phase1().status == "feasible"
    up, down = sx.probe(0, 1), sx.probe(0, -1)
    assert (F(up.scaled_value, up.den), F(-down.scaled_value, down.den)) == (F(5, 2), 1)
    child = list(bounds)
    child[0] = (0, 0)
    r = sx.tighten(0, child)
    assert r.status == "infeasible" and r.scaled_farkas == (1, 0)
    assert_box_farkas(rows, rhs, child, r.scaled_farkas)
    for i in range(2):
        bent = list(r.scaled_farkas)
        bent[i] -= 1
        with pytest.raises(ArithmeticError, match="Farkas"):
            sx._check_farkas(bent)


@st.composite
def tightenings(draw):
    """An LP of box_lps or wide_lps, a few probes that move its basis, and
    one column with the side and the depth of a cut through its value at
    the basis the probes leave.  The depth reaches 10^30 either way, so a
    free or one-sided column can get an end far beyond every value the
    tableau has held."""
    _, rows, rhs, bounds = draw(st.one_of(box_lps(), wide_lps()))
    n = len(bounds)
    probes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
                           max_size=3))
    depth = draw(st.one_of(st.integers(-1, 2), st.integers(-10**30, 10**30)))
    return rows, rhs, bounds, probes, draw(st.integers(0, n - 1)), depth


@settings(max_examples=100, deadline=None)
@given(tightenings(), st.booleans())
def test_tighten_agrees_with_a_cold_phase1(case, up):
    """A repaired basis answers as phase 1 from scratch does on the tighter
    bounds: the same status, and then the same range for the tightened
    column and every probed one.  The cut lies depth units beyond the
    column's value (behind it when depth < 0), on the side up names.  Both
    tableaus have the same slot width, however far the cut reaches."""
    rows, rhs, bounds, probes, j, depth = case
    lp = solver._LpRows(rows, rhs)
    sx = solver._Simplex(lp, bounds)
    assume(sx.phase1().status == "feasible")
    for k, dire in probes:
        sx.probe(k, dire)
    v, den = sx._scaled_values()[j], sx.den
    cut = (v // den + 1 + depth, None) if up else (None, -(-v // den) - 1 - depth)
    sub = solver._meet(bounds[j], cut)
    assume(sub is not None)
    child = list(bounds)
    child[j] = sub
    cold = solver._Simplex(lp, child)
    assert cold.w == sx.w
    warm = sx.tighten(j, child)
    assert warm.status == cold.phase1().status
    if warm.status == "infeasible":
        return
    for k in sorted({j} | {k for k, _ in probes}):
        for dire in (1, -1):
            a, b = sx.probe(k, dire), cold.probe(k, dire)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.scaled_value * b.den == b.scaled_value * a.den


def test_bnb_cuww1_root_prune():
    sys_ = knapsack_system(CUWW1, CUWW1_F)
    ef = detect_decomposition(sys_, FixedSplit(1)).formulation
    r = bnb_feasibility(sys_, ef)
    assert r.status == "infeasible"
    assert r.nodes == 1


def test_bnb_small_knapsacks():
    r7 = bnb_feasibility(knapsack_system((3, 5), 7))
    assert r7.status == "infeasible"
    r8 = bnb_feasibility(knapsack_system((3, 5), 8))
    assert r8.status == "feasible"
    assert r8.x == (1, 1)


def test_bnb_certificates_verify():
    rng = random.Random(89)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = tuple(rng.randint(2, 9) for _ in range(n))
        b = rng.randint(0, 30)
        sys_ = knapsack_system(a, b)
        r = bnb_feasibility(sys_, None, BnbConfig(node_limit=50000))
        ranges = [range(b // ai + 1) for ai in a]
        brute = any(
            sum(ai * xi for ai, xi in zip(a, xs)) == b
            for xs in itertools.product(*ranges)
        )
        if r.status == "feasible":
            assert sum(ai * xi for ai, xi in zip(a, r.x)) == b
            assert all(xi >= 0 for xi in r.x)
            assert brute
        elif r.status == "infeasible":
            assert not brute


def test_bnb_node_limit():
    ms = gen_market_split(2, 1)
    r = bnb_feasibility(ms, None, BnbConfig(node_limit=3))
    assert r.status == "node_limit"
    assert r.nodes == 3


def test_bnb_empty_priority_is_index_order():
    """branch_priority=() lists no variable, so the search scans every
    column in index order, as the explicit index-order tuple does; only
    None selects the default priority (mu first)."""
    sys_ = gen_market_split(2, 3)
    ks = kernel_and_solution(sys_.a, sys_.b)
    ef = build_extended(sys_, split_basis(ks.q, FixedSplit(1)), ks.q, ks.x0)
    index_order = tuple("x%d" % j for j in range(sys_.n)) + ("mu0",)
    nodes = {
        p: bnb_feasibility(sys_, ef, BnbConfig(branch_priority=p)).nodes
        for p in ((), index_order, None)
    }
    assert nodes == {(): 132, index_order: 132, None: 59}


def test_bnb_determinism():
    ms = gen_market_split(2, 2)
    a = bnb_feasibility(ms)
    b = bnb_feasibility(ms)
    assert (a.status, a.nodes, a.proof_depth) == (b.status, b.nodes, b.proof_depth)


# (formulation, status, nodes, proof depth) per seed of gen_market_split(2,
# seed), and the tableau pivots of the whole comparison.  Every LP vertex
# depends on the whole simplex pivot sequence, so a change to the tableau
# arithmetic that moves a pivot moves these counts.  So can another row
# basis of the same P lattice (LLL settles on one of several when rows tie
# in norm): the root's phase 1 starts from artificial columns tied to the
# rows of [P | -T], so a new basis can take another pivot path to the same
# LP answers, and every child starts from a probe vertex of its parent.
# The ext s=8 row reuses the ahl search (s = n - m = 8), so its pivots
# count once.
PINNED_M2 = {
    1: (("original", "infeasible", 85, 8), ("ext s=1", "infeasible", 1, 0), 277),
    2: (("original", "infeasible", 64, 8), ("ext s=1", "infeasible", 1, 0), 334),
    3: (("original", "infeasible", 117, 8), ("ext s=1", "infeasible", 59, 8), 533),
    4: (("original", "infeasible", 98, 8), ("ext s=1", "infeasible", 1, 0), 318),
    5: (("original", "infeasible", 95, 8), ("ext s=1", "infeasible", 1, 0), 320),
}


def count_pivots(monkeypatch):
    count = [0]
    real = solver._Simplex._pivot

    def spy(self, i, j):
        count[0] += 1
        real(self, i, j)

    monkeypatch.setattr(solver._Simplex, "_pivot", spy)
    return count


@pytest.mark.parametrize("seed", sorted(PINNED_M2))
def test_bnb_pinned_node_counts_m2(seed, monkeypatch):
    pivots = count_pivots(monkeypatch)
    tab = compare_formulations(gen_market_split(2, seed), (1, 4, 8))
    got = [(r.label, r.status, r.nodes, r.proof_depth) for r in tab.rows]
    original, s1, npivots = PINNED_M2[seed]
    root = ("infeasible", 1, 0)
    assert got == [
        original,
        ("ahl",) + root,
        s1,
        ("ext s=4",) + root,
        ("ext s=8",) + root,
    ]
    assert pivots[0] == npivots


def test_bnb_pinned_node_limit_m3(monkeypatch):
    pivots = count_pivots(monkeypatch)
    r = bnb_feasibility(gen_market_split(3, 1), None, BnbConfig(node_limit=100))
    assert (r.status, r.nodes, r.proof_depth) == ("node_limit", 100, 17)
    assert pivots[0] == 415


@pytest.mark.parametrize("form", ["original", "extended"])
def test_bnb_lp_values_stay_exact(form, monkeypatch):
    """Integer rows and bounds go into the simplex as ints.  Its tableau,
    denominator and basic values stay ints through a whole search, and
    every LP value and point entry it returns is an int over an int
    den > 0, never a float."""
    results = []
    tableaus = []
    real_phase1 = solver._Simplex.phase1
    real_tighten = solver._Simplex.tighten
    real = solver._Simplex.probe

    def phase1_spy(self):
        r = real_phase1(self)
        results.append(r)
        tableaus.append(self)
        return r

    def tighten_spy(self, j, bounds):
        r = real_tighten(self, j, bounds)
        results.append(r)
        tableaus.append(self)
        return r

    def spy(self, j, dire):
        r = real(self, j, dire)
        results.append(r)
        return r

    monkeypatch.setattr(solver._Simplex, "phase1", phase1_spy)
    monkeypatch.setattr(solver._Simplex, "tighten", tighten_spy)
    monkeypatch.setattr(solver._Simplex, "probe", spy)
    if form == "original":
        bnb_feasibility(gen_market_split(2, 1))
    else:
        sys_ = knapsack_system(CUWW1, CUWW1_F + 1)
        bnb_feasibility(sys_, detect_decomposition(sys_, FixedSplit(1)).formulation)
    optimal = [r for r in results if r.status == "optimal"]
    feasible = [r for r in results if r.status == "feasible"]
    assert optimal and feasible
    for r in optimal + feasible:
        assert type(r.den) is int and r.den > 0
        assert all(type(v) is int for v in r.scaled_point)
    for r in optimal:
        assert type(r.scaled_value) is int
    for sx in tableaus:
        assert type(sx.den) is int and sx.den > 0
        rows = [unpack(sx, row) for row in sx.tab]
        assert all(type(v) is int for row in rows + [sx.beta] for v in row)
        # one slot per column, and beta = den * x_B, one int per row
        assert all(len(row) == sx.ncols for row in rows) and len(sx.beta) == sx.m
        # B^-1 B = I: a basic column reads den in its own row, else 0
        for i, b in enumerate(sx.basis):
            assert [row[b] for row in rows] == [sx.den * (k == i) for k in range(sx.m)]


def spy_node_lps(monkeypatch):
    """Log every node LP as ("phase1" or "tighten", tableau, status), every
    probe as ("probe", tableau, column, direction) and every fork as
    ("fork", parent, twin), in call order."""
    events = []
    real_phase1 = solver._Simplex.phase1
    real_tighten = solver._Simplex.tighten
    real_probe = solver._Simplex.probe
    real_fork = solver._Simplex.fork

    def phase1_spy(self):
        r = real_phase1(self)
        events.append(("phase1", self, r.status))
        return r

    def tighten_spy(self, j, bounds):
        r = real_tighten(self, j, bounds)
        events.append(("tighten", self, r.status))
        return r

    def probe_spy(self, j, dire):
        events.append(("probe", self, j, dire))
        return real_probe(self, j, dire)

    def fork_spy(self):
        twin = real_fork(self)
        events.append(("fork", self, twin))
        return twin

    monkeypatch.setattr(solver._Simplex, "phase1", phase1_spy)
    monkeypatch.setattr(solver._Simplex, "tighten", tighten_spy)
    monkeypatch.setattr(solver._Simplex, "probe", probe_spy)
    monkeypatch.setattr(solver._Simplex, "fork", fork_spy)
    return events


def test_bnb_root_runs_phase1_children_repair(monkeypatch):
    """Only the root runs phase 1: every other node is its parent's
    tableau, repaired by tighten, and ends feasible.  A branching node
    probes its branch column up, forks the tableau when the ceiling child
    is not empty, then probes down; the floor child goes on with the live
    tableau.  probe runs for nothing else, and every fork is some child's
    tableau."""
    events = spy_node_lps(monkeypatch)
    r = bnb_feasibility(gen_market_split(2, 1))
    assert r.status == "infeasible"
    # the search found no integer point, so every feasible node point was
    # fractional and its node branched; on binaries no slot is too narrow
    nodes = []
    it = iter(events)
    for lp in it:
        up = next(it)
        fork = next(it)
        down = next(it) if fork[0] == "fork" else fork
        nodes.append((lp, up, fork if fork is not down else None, down))
    assert len(nodes) == r.nodes
    assert nodes[0][0][0] == "phase1"
    assert all(lp[0] == "tighten" for lp, _, _, _ in nodes[1:])
    assert {lp[2] for lp, _, _, _ in nodes} == {"feasible"}
    live, forks, used = set(), set(), set()
    for k, (lp, up, fork, down) in enumerate(nodes):
        sx = lp[1]
        assert k == 0 or id(sx) in live or id(sx) in forks
        if id(sx) in forks:
            used.add(id(sx))
        assert (up[0], down[0]) == ("probe", "probe")
        assert up[1] is down[1] is sx
        assert up[2] == down[2] and (up[3], down[3]) == (1, -1)
        live.add(id(sx))
        if fork is not None:
            assert fork[1] is sx
            forks.add(id(fork[2]))
    # the search ran to the end, so every ceiling child was popped
    assert forks and used == forks


@pytest.mark.parametrize("form", ["original", "extended"])
def test_bnb_prunes_infeasible_root_lp(form, monkeypatch):
    """x0 + x1 + x2 = 5 over binaries has no LP point: the root's phase 1
    returns a checked Farkas vector and the search ends after one node."""
    farkas = []
    real = solver._Simplex._check_farkas

    def spy(self, y):
        farkas.append(y)
        real(self, y)

    monkeypatch.setattr(solver._Simplex, "_check_farkas", spy)
    sys_ = EqualitySystem(IntMatrix.from_rows([(1, 1, 1)]), (5,),
                          var_lower=(0, 0, 0), var_upper=(1, 1, 1))
    ef = None
    if form == "extended":
        ks = kernel_and_solution(sys_.a, sys_.b)
        ef = build_extended(sys_, split_basis(ks.q, FixedSplit(1)), ks.q, ks.x0)
    r = bnb_feasibility(sys_, ef)
    assert (r.status, r.nodes) == ("infeasible", 1)
    assert len(farkas) == 1


@pytest.mark.parametrize("seed", sorted(PINNED_M2))
def test_bnb_child_lps_stay_feasible_m2(seed, monkeypatch):
    """Children are cut inside the parent's exact probe range, so their
    repaired LP is feasible; on these instances the roots are LP-feasible
    too, and each search runs phase 1 at its root alone."""
    events = spy_node_lps(monkeypatch)
    tab = compare_formulations(gen_market_split(2, seed), (1, 4, 8))
    # ext s=8 is the ahl formulation (s = n - m), whose search runs once
    searched = [r for r in tab.rows if r.label != "ext s=8"]
    lps = [e for e in events if e[0] in ("phase1", "tighten")]
    assert len(lps) == sum(r.nodes for r in searched)
    assert [e[0] for e in lps].count("phase1") == len(searched)
    assert {e[2] for e in lps} == {"feasible"}


def test_bnb_builds_no_fraction(monkeypatch):
    """A search reads the simplex's integers alone: with both ways of
    building a Fraction made to raise, in any module, the pinned searches
    still end the same.  The constructor runs __new__; from Python 3.12 on,
    Fraction arithmetic builds its results by _from_coprime_ints instead."""
    m2, m3 = gen_market_split(2, 1), gen_market_split(3, 1)
    sys_ = knapsack_system(CUWW1, CUWW1_F + 1)
    ef = detect_decomposition(sys_, FixedSplit(1)).formulation

    def refuse(cls, *args, **kwargs):
        raise AssertionError("branch and bound built a Fraction")

    monkeypatch.setattr(F, "__new__", refuse)
    if hasattr(F, "_from_coprime_ints"):
        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(refuse))
    r = bnb_feasibility(m2)
    assert (r.status, r.nodes) == ("infeasible", 85)
    r = bnb_feasibility(m3, None, BnbConfig(node_limit=100))
    assert (r.status, r.nodes, r.proof_depth) == ("node_limit", 100, 17)
    r = bnb_feasibility(sys_, ef)
    assert r.status == "feasible" and sum(a * x for a, x in zip(CUWW1, r.x)) == CUWW1_F + 1


def test_bnb_checks_every_certificate(monkeypatch):
    """Each feasible node LP, phase 1 at the root and a repair below it, is
    primal-checked, and each of a branching node's two probes gets its
    optimality or ray check, which primal-checks its own point too."""
    counts = {"feasible": 0, "_check_primal": 0, "_check_optimal": 0, "_check_ray": 0}

    def node_lp(name):
        real = getattr(solver._Simplex, name)

        def spy(self, *args):
            r = real(self, *args)
            counts["feasible"] += r.status == "feasible"
            return r

        return spy

    def counting(name):
        real = getattr(solver._Simplex, name)

        def spy(self, *args):
            counts[name] += 1
            return real(self, *args)

        return spy

    for name in ("phase1", "tighten"):
        monkeypatch.setattr(solver._Simplex, name, node_lp(name))
    for name in ("_check_primal", "_check_optimal", "_check_ray"):
        monkeypatch.setattr(solver._Simplex, name, counting(name))
    r = bnb_feasibility(gen_market_split(2, 1))
    # no integer point was found, so every LP-feasible node branched
    assert (r.status, r.nodes, counts["feasible"]) == ("infeasible", 85, 85)
    probes = counts["_check_optimal"] + counts["_check_ray"]
    assert probes == 2 * 85
    assert counts["_check_primal"] == 85 + counts["_check_optimal"]


# a = (M + 1) p1 + M p2 with M = 13188, p1 = (0, 2, 1, 2, -1) and p2 = (4,
# 1, 3, 6, 5): a CUWW-shape row from the benchmark's seed-1 draw, and its
# Frobenius number
RESTART_ROW = (52752, 39566, 52753, 105506, 52751)
RESTART_ROW_F = 189864044


def test_bnb_children_never_restart(monkeypatch):
    """In the s=1 extended form of RESTART_ROW the multiplier is free, and
    children close its open ends at bounds its parent never reached.  The
    slot width comes from the rows alone, so each search runs phase 1 once,
    at the root, and every other node, a popped fork included, is repaired
    by tighten.  The search proves F unrepresentable, and at F + 1 returns
    a point that the row checks."""
    assert frobenius_exact(RESTART_ROW) == RESTART_ROW_F
    events = spy_node_lps(monkeypatch)

    def search(rhs):
        """The result, the node LPs and the forks of one search."""
        start = len(events)
        sys_ = knapsack_system(RESTART_ROW, rhs)
        r = bnb_feasibility(sys_, detect_decomposition(sys_, FixedSplit(1)).formulation)
        lps = [e for e in events[start:] if e[0] in ("phase1", "tighten")]
        assert [e[0] for e in lps] == ["phase1"] + ["tighten"] * (r.nodes - 1)
        return r, lps, {id(e[2]) for e in events[start:] if e[0] == "fork"}

    r, lps, forks = search(RESTART_ROW_F)
    assert (r.status, r.nodes) == ("infeasible", 39)
    assert forks and forks <= {id(e[1]) for e in lps[1:]}
    r, _, _ = search(RESTART_ROW_F + 1)
    assert r.status == "feasible"
    assert min(r.x) >= 0 and dot(RESTART_ROW, r.x) == RESTART_ROW_F + 1


def test_gen_market_split_shape():
    ms = gen_market_split(3, 9)
    assert ms.m == 3 and ms.n == 20
    for i in range(ms.m):
        row = ms.a.row(i)
        assert all(0 <= v <= 99 for v in row)
        assert ms.b[i] == sum(row) // 2
    assert ms.var_lower == (0,) * 20
    assert ms.var_upper == (1,) * 20


def test_gen_market_split_deterministic():
    one = gen_market_split(2, 5)
    two = gen_market_split(2, 5)
    assert one.a.data == two.a.data and one.b == two.b
    other = gen_market_split(2, 6)
    assert other.a.data != one.a.data


def test_gen_market_split_domain():
    with pytest.raises(DomainError):
        gen_market_split(1, 1)


def test_gen_market_split_memory_guard(monkeypatch):
    """m = 316 is the last size within 10^6 entries; m = 317 is refused
    before a single entry is drawn."""
    assert 316 * 10 * 315 <= solver.MARKET_SPLIT_ENTRY_GUARD < 317 * 10 * 316

    def no_stream(seed):
        raise AssertionError("an entry was drawn")

    monkeypatch.setattr(solver, "_splitmix64", no_stream)
    with pytest.raises(ResourceLimitError, match="317"):
        gen_market_split(317, 1)


def test_market_split_vs_enumeration():
    for seed in (1, 2, 35):
        ms = gen_market_split(2, seed)
        r = bnb_feasibility(ms)
        witness = enumerate_binary_feasible(ms)
        assert (r.status == "feasible") == (witness is not None)
        if r.status == "feasible":
            assert mat_vec(ms.a, r.x) == tuple(ms.b)
            assert all(v in (0, 1) for v in r.x)


@st.composite
def bounded_systems(draw):
    """A full row rank system on a small nonnegative box; half the draws
    take b from a box point, so both answers come up."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(m + 1, 6))
    rows = draw(
        st.lists(st.lists(st.integers(-5, 9), min_size=n, max_size=n), min_size=m, max_size=m)
        .filter(full_row_rank)
    )
    upper = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        x = [draw(st.integers(0, u)) for u in upper]
        b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        b = draw(st.lists(st.integers(-10, 40), min_size=m, max_size=m))
    return EqualitySystem(
        IntMatrix.from_rows(rows), tuple(b), var_lower=(0,) * n, var_upper=tuple(upper)
    )


@settings(max_examples=80, deadline=None)
@given(bounded_systems())
def test_bnb_matches_brute_force(sys_):
    """original, ext s=1 and ahl against every point of the box."""
    box = itertools.product(*(range(u + 1) for u in sys_.var_upper))
    points = {x for x in box if mat_vec(sys_.a, x) == tuple(sys_.b)}
    forms = {"original": None}
    ks = kernel_and_solution(sys_.a, sys_.b)
    if ks.feasible:
        for label, s in (("ext s=1", 1), ("ahl", sys_.n - sys_.m)):
            forms[label] = build_extended(sys_, split_basis(ks.q, FixedSplit(s)), ks.q, ks.x0)
    else:
        assert not points
    for label, ef in forms.items():
        r = bnb_feasibility(sys_, ef)
        assert r.status == ("feasible" if points else "infeasible"), label
        if not points:
            continue
        assert r.x in points, label
        if ef is not None:
            assert mat_vec(ef.p, r.x) == tuple(
                p + t for p, t in zip(ef.px0, mat_vec(ef.t, r.mu))
            )


def test_extended_mu_range_matches_projection():
    """Max/min of the aggregated variable agree between the projected
    two-row form and the full kernel form, on random s=1 knapsacks."""
    rng = random.Random(97)
    for _ in range(12):
        n = rng.randint(3, 5)
        a = tuple(rng.randint(2, 30) for _ in range(n))
        b = rng.randint(10, 120)
        sys_ = knapsack_system(a, b)
        try:
            ks = kernel_and_solution(sys_.a, sys_.b)
        except Exception:
            continue
        if not ks.feasible:
            continue
        red = lll_reduce(ks.q)
        sp = split_basis(red, FixedSplit(1))
        p = transpose(dual_kernel(sp.short))
        t = mat_mul(p, sp.long)
        x0 = ks.x0
        px0 = mat_vec(p, x0)
        bounds = tuple((0, None) for _ in range(n)) + ((None, None),)
        rows_p = [tuple(p.row(i)) + (-t.row(i)[0],) for i in range(p.rows)]
        lp_p = ((0,) * n + (1,), tuple(rows_p), px0, bounds)
        r_cols, s_cols = sp.short.col_list(), sp.long.col_list()
        rows_q = [
            tuple(1 if t2 == i else 0 for t2 in range(n))
            + tuple(-c[i] for c in s_cols)
            + tuple(-c[i] for c in r_cols)
            for i in range(n)
        ]
        nb = tuple((0, None) for _ in range(n)) + tuple(
            (None, None) for _ in range(1 + len(r_cols))
        )
        lp_q = ((0,) * n + (1,) + (0,) * len(r_cols), tuple(rows_q), x0, nb)
        for sense in ("max", "min"):
            rp = lp_solve(*lp_p, sense)
            rq = lp_solve(*lp_q, sense)
            assert rp.status == rq.status
            if rp.status == "optimal":
                assert rp.value == rq.value


def test_compare_formulations_searches_each_s_once(monkeypatch):
    """ext s=8 is the ahl formulation at m=2 (s = n - m), and a repeated s
    is the same search: only original, ahl and ext s=1 run."""
    calls = []
    real = solver.bnb_feasibility

    def spy(sys_, ef=None, cfg=None):
        calls.append(None if ef is None else ef.s)
        return real(sys_, ef, cfg)

    monkeypatch.setattr(solver, "bnb_feasibility", spy)
    tab = compare_formulations(gen_market_split(2, 1), (8, 1, 8))
    assert calls == [None, 8, 1]
    assert [r.label for r in tab.rows] == ["original", "ahl", "ext s=8", "ext s=1", "ext s=8"]
    assert tab.rows[2] == tab.rows[4] == replace(tab.rows[1], label="ext s=8")


def test_compare_formulations_cuww1():
    # The untransformed system needs far more nodes than any reformulation;
    # cap it so the original row exits as node_limit while the rest decide.
    sys_ = knapsack_system(CUWW1, CUWW1_F)
    tab = compare_formulations(sys_, (1, 4), cfg=BnbConfig(node_limit=2000))
    by_label = {r.label: r for r in tab.rows}
    assert set(by_label) == {"original", "ahl", "ext s=1", "ext s=4"}
    decided = [r for r in tab.rows if r.status != "node_limit"]
    assert decided and all(r.status == "infeasible" for r in decided)
    assert by_label["ext s=1"].nodes <= by_label["ahl"].nodes + 5


def test_compare_formulations_market_split():
    tab = compare_formulations(gen_market_split(2, 3), (1,))
    statuses = {r.status for r in tab.rows if r.status != "node_limit"}
    assert len(statuses) == 1


def test_compare_formulations_trivial():
    sys_ = EqualitySystem(IntMatrix.from_rows([(1,)]), (1,))
    tab = compare_formulations(sys_, (0,))
    for row in tab.rows:
        assert row.status == "feasible"
        assert row.nodes == 1


def test_compare_formulations_table_output():
    tab = compare_formulations(knapsack_system((2, 3), 7), (1,))
    txt = tab.to_text()
    assert "original" in txt and "ahl" in txt
    obj = tab.to_json_obj()
    assert all(set(r) == {"formulation", "status", "nodes", "proof_depth"} for r in obj["rows"])
