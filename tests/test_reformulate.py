import dataclasses
import math
import random
from fractions import Fraction

import pytest

from latref.exact import (
    DomainError,
    IntMatrix,
    RankError,
    identity,
    mat_mul,
    mat_vec,
    norm_sq,
    transpose,
)
from latref.lattice import kernel_and_solution, kernel_basis, lll_reduce
from latref.reformulate import (
    EqualitySystem,
    FixedSplit,
    IntegerInfeasibleError,
    IntegralityError,
    RatioSplit,
    build_extended,
    detect_decomposition,
    dual_kernel,
    project_affine,
    solve_multipliers,
    split_basis,
)
from latref.solver import gen_market_split
from support import full_row_rank, is_lll_reduced, lattice_hnf, verify_formulation_equivalence

TWOROW_A = IntMatrix.from_rows([(1, -5, -4, 11, 5), (-13, -2, -12, -11, 1)])
TWOROW_B = (8, -37)  # A applied to the all-ones point

CUWW1 = (12223, 12224, 36674, 61119, 85569)
CUWW1_KERNEL_COLS = (
    (0, 1, -1, -1, 1),
    (-3, 1, -1, 1, 0),
    (-1, -3, -1, 0, 1),
    (2059, 157, -3336, 2687, -806),
)
CUWW1_PT_COLS = ((-1, 0, 2, -1, 1), (2, 1, 1, 6, 6))


def rational_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_feasible_system(rng, m, n, span=8):
    """Full-row-rank system with a known small nonnegative solution."""
    while True:
        a = IntMatrix.from_rows(
            [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)], cols=n
        )
        x = tuple(rng.randint(0, 4) for _ in range(n))
        try:
            return EqualitySystem(a, mat_vec(a, x)), x
        except Exception:
            continue


def test_project_affine_identity_d():
    c = IntMatrix.from_rows([(1, 2), (3, 4)])
    pc, pb = project_affine(c, identity(2), (5, 6))
    assert pc.rows == 0 and pb == ()


def test_project_affine_zero_d():
    c = IntMatrix.from_rows([(1, 2), (3, 4)])
    pc, pb = project_affine(c, IntMatrix.from_rows([(0,), (0,)]), (5, 6))
    # same solution set as the input system
    assert rational_rank([list(r) for r in pc.data]) == 2
    assert rational_rank(
        [list(r) + [x] for r, x in zip(pc.data, pb)]
        + [list(r) + [x] for r, x in zip(c.data, (5, 6))]
    ) == 2


def test_project_affine_elimination():
    c = identity(2)
    d = IntMatrix.from_cols([(1, 1)])
    pc, pb = project_affine(c, d, (3, 5))
    assert pc.rows == 1
    row, rhs = pc.row(0), pb[0]
    # x1 - x2 = -2 up to integer scaling
    assert row[0] == -row[1] != 0
    assert rhs * row[1] == 2 * row[1] * row[1]


def test_split_basis_policies():
    q = lll_reduce(kernel_basis(IntMatrix.from_rows([CUWW1])))
    sp = split_basis(q, RatioSplit(100))
    assert sp.s == 1 and sp.r == 3
    assert norm_sq(sp.long.col(0)) > 10**6

    sp_all = split_basis(q, FixedSplit(4))
    assert sp_all.r == 0 and sp_all.s == 4

    flat = IntMatrix.from_cols([(1, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 1), (0, 0, 2, 0)])
    assert split_basis(flat, RatioSplit(100)).s == 4

    with pytest.raises(DomainError):
        split_basis(q, FixedSplit(5))
    with pytest.raises(DomainError):
        split_basis(q, FixedSplit(-1))


def test_dual_kernel_fixtures():
    r = IntMatrix.from_cols([c for c in CUWW1_KERNEL_COLS[:3]])
    pt = dual_kernel(r)
    assert lattice_hnf(pt).data == lattice_hnf(IntMatrix.from_cols(CUWW1_PT_COLS)).data

    assert dual_kernel(IntMatrix.from_cols([], rows=4)).data == identity(4).data
    assert dual_kernel(IntMatrix.from_cols([(1, 0)])).col_list() == [(0, 1)]


def _dual_kernel_cases():
    """Random full-column-rank R with n <= 7, then the s=1 and s=4 short
    blocks of market split m=2 and m=3."""
    rng = random.Random(23)
    cases = []
    while len(cases) < 40:
        n = rng.randint(2, 7)
        cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(rng.randint(1, n))]
        if full_row_rank(cols):
            cases.append(IntMatrix.from_cols(cols, rows=n))
    for m in (2, 3):
        sys_ = gen_market_split(m, 1)
        q = kernel_and_solution(sys_.a, sys_.b).q
        cases += [split_basis(q, FixedSplit(s)).short for s in (1, 4)]
    return cases


def test_dual_kernel_matches_echelon_transform():
    """The embedding kernel spans the lattice of the echelon route's kernel
    basis, is LLL-reduced, and annihilates R, on random full-column-rank R
    and on short blocks of market split."""
    for r in _dual_kernel_cases():
        y, rt = dual_kernel(r), transpose(r)
        assert y.cols == r.rows - r.cols
        assert lattice_hnf(y).data == lattice_hnf(kernel_basis(rt)).data
        assert is_lll_reduced(y)
        assert all(not any(mat_vec(rt, c)) for c in y.col_list())


def test_dual_kernel_rejects_repeated_column():
    r = IntMatrix.from_cols([(1, 2, 0, 3), (0, 1, 1, 1), (1, 2, 0, 3)])
    with pytest.raises(RankError):
        dual_kernel(r)


def test_dual_kernel_entries_stay_small_at_m6():
    """At m=6 the unreduced echelon kernel basis of R^T has about a
    million bits per entry and takes half a minute to build; the P of
    the pipeline must stay small."""
    p = detect_decomposition(gen_market_split(6, 1), FixedSplit(1)).formulation.p
    assert max(abs(e).bit_length() for row in p.data for e in row) <= 16


def test_solve_multipliers_fixtures():
    p = IntMatrix.from_rows([(1, 0, 1, 1, 0), (1, 1, -1, 1, 0), (0, -1, -1, 2, 1)])
    m = solve_multipliers(p, TWOROW_A)
    assert m.data == ((1, 0, 5), (-12, -1, 1))

    mc = solve_multipliers(IntMatrix.from_rows(CUWW1_PT_COLS), IntMatrix.from_rows([CUWW1]))
    assert mc.data == ((12225, 12224),)

    a = IntMatrix.from_rows([(3, 5, 7)])
    assert solve_multipliers(identity(3), a).data == a.data


def test_solve_multipliers_needs_primitive_p():
    """M is read off the Hermite form of P, so P must generate Z^k."""
    with pytest.raises(IntegralityError, match="Hermite form is not I"):
        solve_multipliers(IntMatrix.from_rows([(2, 0), (0, 2)]), IntMatrix.from_rows([(2, 4)]))
    e12 = IntMatrix.from_rows([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(IntegralityError, match="row 0 of A is not an integer combination"):
        solve_multipliers(e12, IntMatrix.from_rows([(0, 0, 1)]))
    assert solve_multipliers(e12, IntMatrix.from_rows([(4, -7, 0)])).data == ((4, -7),)


def test_build_extended_two_row():
    sys_ = EqualitySystem(TWOROW_A, TWOROW_B)
    det = detect_decomposition(sys_, FixedSplit(1))
    ef = det.formulation
    assert ef.s == 1
    assert lattice_hnf(ef.t).data == lattice_hnf(IntMatrix.from_cols([(-5, 61, 1)])).data
    assert mat_mul(ef.m_mat, ef.p).data == TWOROW_A.data
    assert mat_mul(ef.m_mat, ef.t).data == ((0,), (0,))


def test_build_extended_ahl_and_degenerate():
    sys_ = EqualitySystem(IntMatrix.from_rows([(2, 3)]), (7,))
    ahl = detect_decomposition(sys_, FixedSplit(1)).formulation
    assert ahl.p.data == identity(2).data
    # s = 0 folds everything back into the original row
    flat = detect_decomposition(sys_, FixedSplit(0)).formulation
    assert flat.s == 0
    assert flat.t.cols == 0
    assert rational_rank([list(flat.p.row(0))]) == 1
    assert mat_mul(flat.m_mat, flat.p).data == sys_.a.data


def _tworow_split(edit, s):
    """The two-row system with its kernel basis edited in place by edit."""
    sys_ = EqualitySystem(TWOROW_A, TWOROW_B)
    ks = kernel_and_solution(sys_.a, sys_.b)
    cols = ks.q.col_list()
    edit(cols)
    q = IntMatrix.from_cols(cols, rows=sys_.n)
    return sys_, split_basis(q, FixedSplit(s)), q, ks.x0


def test_build_extended_rejects_kernel_sublattice():
    """A q with one column doubled spans a sublattice of the kernel, so
    |det [R | S | V0]| = 2: reported, not rescaled away, wherever the
    doubled column lands."""
    for j in range(3):
        for s in (1, 2):

            def double(cols):
                cols[j] = tuple(2 * x for x in cols[j])

            with pytest.raises(IntegralityError, match="sublattice"):
                build_extended(*_tworow_split(double, s))


def test_build_extended_rejects_dependent_kernel():
    """A q with a repeated column makes [R | S | V0] singular."""

    def repeat(cols):
        cols[1] = cols[0]

    for s in (1, 2):
        with pytest.raises(RankError):
            build_extended(*_tworow_split(repeat, s))


def planted_knapsack(rng, n=5):
    """A coprime row in the shape of CUWW1 = 12225 p1 + 12224 p2: (M + 1) p1
    + M p2 with M in [10^4, 1.4 10^4], p1 in [-1, 2]^n, p2 in [1, 6]^n."""
    while True:
        m = rng.randint(10_000, 14_000)
        p1 = [rng.randint(-1, 2) for _ in range(n)]
        p2 = [rng.randint(1, 6) for _ in range(n)]
        a = [(m + 1) * u + m * v for u, v in zip(p1, p2)]
        if min(a) > 0 and math.gcd(*a) == 1 and len(set(a)) == n:
            return a


def _orthogonal_lattice_cases():
    """(system, s): market split m=2..4 at s = 1, d//2 and d-1, CUWW1 and
    20 planted knapsacks at s = 1."""
    for m in (2, 3, 4):
        sys_ = gen_market_split(m, 1)
        d = sys_.n - m
        for s in (1, d // 2, d - 1):
            yield sys_, s
    yield EqualitySystem(IntMatrix.from_rows([CUWW1]), (89643481,)), 1
    rng = random.Random(4242)
    for _ in range(20):
        a = planted_knapsack(rng)
        yield EqualitySystem(IntMatrix.from_rows([a]), (sum(a),)), 1


def test_build_extended_p_matches_dual_kernel():
    """P read off the completed kernel basis spans the lattice that
    dual_kernel's second LLL embedding gives, annihilates R and is
    LLL-reduced."""
    for sys_, s in _orthogonal_lattice_cases():
        ks = kernel_and_solution(sys_.a, sys_.b)
        split = split_basis(ks.q, FixedSplit(s))
        p = build_extended(sys_, split, ks.q, ks.x0).p
        pt = transpose(p)
        assert p.rows == sys_.m + s
        assert lattice_hnf(pt).data == lattice_hnf(dual_kernel(split.short)).data
        assert not any(e for row in mat_mul(p, split.short).data for e in row)
        assert is_lll_reduced(pt)


def test_equivalence_small_ahl():
    sys_ = EqualitySystem(IntMatrix.from_rows([(2, 3)]), (7,))
    ef = detect_decomposition(sys_, FixedSplit(1)).formulation
    rep = verify_formulation_equivalence(sys_, ef, (0, 0), (10, 10))
    assert rep.points_checked == 121
    assert rep.missing == () and rep.extra == ()


def test_equivalence_doubled_t_has_witness():
    """Doubling T keeps a sublattice, not a basis: some x in X get lost."""
    sys_ = EqualitySystem(IntMatrix.from_rows([(1, 2)]), (8,))
    ef = detect_decomposition(sys_, FixedSplit(1)).formulation
    assert lattice_hnf(ef.p).data == identity(ef.p.rows).data
    bad = dataclasses.replace(ef, t=IntMatrix.from_rows([[2 * x for x in r] for r in ef.t.data]))
    good = verify_formulation_equivalence(sys_, ef, (0, 0), (10, 10))
    assert good.missing == () and good.extra == ()
    rep = verify_formulation_equivalence(sys_, bad, (0, 0), (10, 10))
    assert len(rep.missing) >= 1
    for x in rep.missing:
        assert mat_vec(sys_.a, x) == tuple(sys_.b)


def test_detect_cuww1():
    sys_ = EqualitySystem(IntMatrix.from_rows([CUWW1]), (89643481,))
    det = detect_decomposition(sys_, FixedSplit(1))
    d = det.decomposition
    assert d is not None
    assert (d.m1, d.m2) == (12225, 12224)
    assert all(-6 <= v <= 6 for v in d.p1 + d.p2)
    recomposed = tuple(d.m1 * u + d.m2 * v for u, v in zip(d.p1, d.p2))
    assert recomposed == CUWW1


def test_detect_small_knapsack():
    sys_ = EqualitySystem(IntMatrix.from_rows([(3, 5)]), (22,))
    d = detect_decomposition(sys_, FixedSplit(1)).decomposition
    assert tuple(d.m1 * u + d.m2 * v for u, v in zip(d.p1, d.p2)) == (3, 5)


def test_detect_structureless_ratio():
    rng = random.Random(11)
    a = tuple(sorted(rng.randrange(10**4, 15 * 10**4) for _ in range(10)))
    sys_ = EqualitySystem(IntMatrix.from_rows([a]), (sum(a),))
    det = detect_decomposition(sys_)
    assert det.formulation.s == sys_.n - 1


def test_detect_integer_infeasible():
    sys_ = EqualitySystem(IntMatrix.from_rows([(2, 4)]), (3,))
    with pytest.raises(IntegerInfeasibleError) as ei:
        detect_decomposition(sys_, FixedSplit(1))
    assert ei.value.scale_k == 2


def test_formulation_invariants_random():
    """A = M P, M T = 0, and T spans exactly the kernel lattice of M."""
    rng = random.Random(37)
    for _ in range(25):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 5)
        sys_, _ = random_feasible_system(rng, m, n)
        s = rng.randint(0, n - m)
        ef = detect_decomposition(sys_, FixedSplit(s)).formulation
        assert ef.s == s
        assert mat_mul(ef.m_mat, ef.p).data == sys_.a.data
        if s:
            zero = tuple(tuple(0 for _ in range(s)) for _ in range(m))
            assert mat_mul(ef.m_mat, ef.t).data == zero
            km = kernel_basis(ef.m_mat)
            assert lattice_hnf(ef.t).data == lattice_hnf(km).data
        assert mat_vec(ef.p, ef.x0) == tuple(ef.px0)


def test_real_relaxation_row_equivalence():
    """Eliminating mu from P x - T mu = P x0 lands back on a system with
    the same real solution set as A x = b."""
    rng = random.Random(41)
    for _ in range(15):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 5)
        sys_, _ = random_feasible_system(rng, m, n)
        s = rng.randint(0, n - m)
        ef = detect_decomposition(sys_, FixedSplit(s)).formulation
        neg_t = IntMatrix.from_rows([[-x for x in r] for r in ef.t.data], cols=ef.t.cols)
        pc, pb = project_affine(ef.p, neg_t, ef.px0)
        orig = [list(r) + [x] for r, x in zip(sys_.a.data, sys_.b)]
        proj = [list(r) + [x] for r, x in zip(pc.data, pb)]
        ra = rational_rank(orig)
        assert rational_rank(proj) == ra
        assert rational_rank(orig + proj) == ra


def test_equivalence_random_sweep():
    rng = random.Random(43)
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 5)
        sys_, _ = random_feasible_system(rng, m, n, span=12)
        s = rng.randint(0, n - m)
        ef = detect_decomposition(sys_, FixedSplit(s)).formulation
        radius = 6 if n <= 3 else 2
        lo = tuple(v - radius for v in ef.x0)
        hi = tuple(v + radius for v in ef.x0)
        rep = verify_formulation_equivalence(sys_, ef, lo, hi)
        assert rep.missing == () and rep.extra == ()


@pytest.mark.parametrize("bad", [0.5, True, Fraction(1)])
def test_equality_system_rejects_non_int_bounds(bad):
    a = IntMatrix.from_rows([(1, 2)])
    with pytest.raises(TypeError):
        EqualitySystem(a, (3,), var_lower=(0, bad))
    with pytest.raises(TypeError):
        EqualitySystem(a, (3,), var_upper=(bad, None))
    EqualitySystem(a, (3,), var_lower=(0, None), var_upper=(None, 4))
