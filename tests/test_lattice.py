import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latref.exact import IntMatrix, RankError, identity, mat_vec, norm_sq, transpose
from latref.lattice import (
    LLLParams,
    forward_substitute,
    hnf,
    inverse_rows,
    kernel_and_solution,
    kernel_basis,
    lll_reduce,
)
from latref.reformulate import FixedSplit, split_basis
from latref.solver import gen_market_split
from support import (
    IntegerSolver,
    det,
    full_row_rank,
    hnf_oracle,
    is_lll_reduced,
    lattice_hnf,
    lll_reduce_reference,
    solve_integer,
)

CUWW1 = (12223, 12224, 36674, 61119, 85569)

# known-good reduced kernel basis for CUWW1; only the lattice it spans
# is canonical, so tests compare HNFs
CUWW1_KERNEL_COLS = (
    (0, 1, -1, -1, 1),
    (-3, 1, -1, 1, 0),
    (-1, -3, -1, 0, 1),
    (2059, 157, -3336, 2687, -806),
)


def shortest_sq_2d(b1, b2, span=25):
    """Brute-force shortest nonzero vector in the lattice of two 2D columns."""
    best = None
    for u in range(-span, span + 1):
        for v in range(-span, span + 1):
            if u == 0 and v == 0:
                continue
            w = (u * b1[0] + v * b2[0], u * b1[1] + v * b2[1])
            ns = norm_sq(w)
            if best is None or ns < best:
                best = ns
    return best


def rand_full_col_rank(rng, rows, cols, span):
    while True:
        m = IntMatrix.from_rows(
            [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        try:
            hnf_cols_independent(m)
        except ValueError:
            continue
        return m


def hnf_cols_independent(m):
    # cheap column-rank probe: Gram matrix determinant
    from latref.exact import mat_mul, transpose

    g = mat_mul(transpose(m), m)
    if det(g) == 0:
        raise ValueError("dependent")


def test_lll_identity_fixed_point():
    assert lll_reduce(identity(3)).data == identity(3).data


def test_lll_two_dim_example():
    basis = IntMatrix.from_cols([(1, 0), (10, 1)])
    red = lll_reduce(basis)
    norms = [norm_sq(c) for c in red.col_list()]
    assert max(norms) <= 2
    # shortest reduced vector must match the brute-force shortest
    assert min(norms) == shortest_sq_2d((1, 0), (10, 1))
    assert lattice_hnf(red).data == lattice_hnf(basis).data


def test_lll_cuww1_kernel_shape():
    q = lll_reduce(kernel_basis(IntMatrix.from_rows([CUWW1])))
    norms = sorted(norm_sq(c) for c in q.col_list())
    assert q.cols == 4
    assert norms[2] <= 12
    assert norms[3] > 10**6
    paper = IntMatrix.from_cols(CUWW1_KERNEL_COLS)
    assert lattice_hnf(q).data == lattice_hnf(paper).data


def test_lll_rejects_dependent():
    with pytest.raises(RankError):
        lll_reduce(IntMatrix.from_cols([(1, 2), (2, 4)]))


def test_lll_params_domain():
    LLLParams(Fraction(1))  # delta = 1 is allowed and still terminates
    LLLParams(Fraction(26, 100))
    with pytest.raises(ValueError):
        LLLParams(Fraction(1, 4))
    with pytest.raises(ValueError):
        LLLParams(Fraction(5, 4))
    assert LLLParams(1).delta == Fraction(1)
    for inexact in (0.99, 1.0, True, "3/4"):  # the exchange test needs delta's exact p/q
        with pytest.raises(TypeError):
            LLLParams(inexact)


def _outcome(reduce, basis, params):
    try:
        return reduce(basis, params)
    except RankError as e:
        return ("RankError", str(e), e.index)


DELTAS = (Fraction(51, 100), Fraction(3, 4), Fraction(99, 100), Fraction(1))


@st.composite
def lll_inputs(draw):
    """Bases of up to 8 columns with entries up to 2^200; fewer rows than
    columns, or a column replaced by a combination of the others, makes
    them dependent."""
    n = draw(st.integers(0, 8))
    rows = draw(st.integers(max(n - 1, 0), n + 3))
    bits = draw(st.sampled_from((1, 2, 8, 64, 200)))
    entry = st.integers(-(2**bits), 2**bits)
    cols = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        j = draw(st.integers(1, n - 1))
        coef = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        coef[j] = 0
        cols[j] = [sum(c * col[i] for c, col in zip(coef, cols)) for i in range(rows)]
    return IntMatrix.from_cols(cols, rows=rows), LLLParams(draw(st.sampled_from(DELTAS)))


@settings(max_examples=300, deadline=None)
@given(lll_inputs())
@example((IntMatrix.from_cols([(1, 1), (-1, -2)]), LLLParams()))  # mu = -3/2 rounds to -2
def test_lll_matches_rational_reference(case):
    basis, params = case
    assert _outcome(lll_reduce, basis, params) == _outcome(lll_reduce_reference, basis, params)


@pytest.mark.parametrize("rows", [0, 3])
def test_lll_empty_and_zero_column(rows):
    empty = IntMatrix.from_cols([], rows=rows)
    assert lll_reduce(empty) == lll_reduce_reference(empty) == empty
    zero = IntMatrix.from_cols([(0,) * rows], rows=rows)
    expected = ("RankError", "column 0 is linearly dependent on earlier columns", 0)
    assert _outcome(lll_reduce, zero, LLLParams()) == expected
    assert _outcome(lll_reduce_reference, zero, LLLParams()) == expected


@pytest.mark.parametrize("m", [4, 5])
def test_lll_matches_reference_on_dual_kernel_input(m, monkeypatch):
    """An LLL stress input: the unreduced echelon kernel basis of R^T for
    the s=1 short block of market split, with 4,719-bit entries at m=4 and
    146,728-bit ones at m=5.  The integral LLL gets through it without
    building a single Fraction."""
    sys_ = gen_market_split(m, 1)
    short = split_basis(kernel_and_solution(sys_.a, sys_.b).q, FixedSplit(1)).short
    kern = kernel_basis(transpose(short))
    params = LLLParams()
    expected = lll_reduce_reference(kern, params)

    def refuse(*args, **kwargs):
        raise AssertionError("lll_reduce built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert lll_reduce(kern, params) == expected


def test_lll_random_sweep():
    """Reduction preserves the lattice and the checker accepts the output."""
    rng = random.Random(19)
    for trial in range(60):
        n = rng.randint(1, 4)
        rows = n + rng.randint(0, 2)
        m = rand_full_col_rank(rng, rows, n, span=25)
        delta = Fraction(3, 4) if trial % 3 else Fraction(1)
        red = lll_reduce(m, LLLParams(delta))
        assert is_lll_reduced(red, LLLParams(delta))
        assert lattice_hnf(red).data == lattice_hnf(m).data


def test_lll_deterministic():
    m = IntMatrix.from_cols([(7, 3, -2), (4, -6, 1), (11, 0, 5)])
    assert lll_reduce(m).data == lll_reduce(m).data


def test_hnf_fixtures():
    one = hnf(IntMatrix.from_rows([CUWW1]))
    assert one.d.data == ((1,),)
    ident = hnf(identity(3))
    assert ident.d.data == identity(3).data
    assert ident.u.data == identity(3).data
    small = hnf(IntMatrix.from_rows([(4, 6)]))
    assert small.d.data == ((2,),)
    kcol = small.u.col(1)
    assert kcol in ((3, -2), (-3, 2))
    assert abs(det(small.u)) == 1


def test_hnf_rank_deficient():
    with pytest.raises(RankError):
        hnf(IntMatrix.from_rows([(1, 2), (2, 4)]))


def test_hnf_property_sweep():
    rng = random.Random(23)
    done = 0
    while done < 120:
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], cols=n
        )
        try:
            res = hnf(a)
        except RankError:
            continue
        done += 1
        d, u = res.d, res.u
        assert abs(det(u)) == 1
        # A U = (D | 0)
        from latref.exact import mat_mul

        au = mat_mul(a, u)
        for i in range(m):
            for j in range(n):
                expect = d.row(i)[j] if j < m else 0
                assert au.row(i)[j] == expect
        for i in range(m):
            assert d.row(i)[i] > 0
            for j in range(m):
                if j > i:
                    assert d.row(i)[j] == 0
                elif j < i:
                    assert 0 <= d.row(i)[j] < d.row(i)[i]
        # canonical: an independently coded elimination reaches the same D
        ora = hnf_oracle(a)
        for i in range(m):
            assert tuple(ora.row(i)[:m]) == tuple(d.row(i))
            assert all(x == 0 for x in ora.row(i)[m:])


def test_kernel_and_solution_small():
    ks = kernel_and_solution(IntMatrix.from_rows([(2, 3)]), (7,))
    assert ks.feasible and ks.scale_k == 1
    assert ks.q.col_list()[0] in ((3, -2), (-3, 2))
    assert 2 * ks.x0[0] + 3 * ks.x0[1] == 7


def test_kernel_and_solution_infeasible():
    ks = kernel_and_solution(IntMatrix.from_rows([(2, 4)]), (3,))
    assert not ks.feasible
    assert ks.scale_k == 2
    # returned point witnesses solvability of the scaled system
    assert 2 * ks.x0[0] + 4 * ks.x0[1] == ks.scale_k * 3


def test_kernel_and_solution_cuww1():
    a = IntMatrix.from_rows([CUWW1])
    for b in (89643481, 10**6, 1):
        ks = kernel_and_solution(a, (b,))
        assert ks.feasible
        assert ks.q.cols == 4
        for c in ks.q.col_list():
            assert sum(x * y for x, y in zip(CUWW1, c)) == 0
        assert sum(x * y for x, y in zip(CUWW1, ks.x0)) == b
        paper = IntMatrix.from_cols(CUWW1_KERNEL_COLS)
        assert lattice_hnf(ks.q).data == lattice_hnf(paper).data


def test_kernel_strategies_cross_check():
    rng = random.Random(29)
    done = 0
    while done < 100:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-15, 15) for _ in range(n)] for _ in range(m)], cols=n
        )
        b = tuple(rng.randint(-40, 40) for _ in range(m))
        try:
            emb = kernel_and_solution(a, b, strategy="embedding")
        except RankError:
            continue
        hn = kernel_and_solution(a, b, strategy="hnf")
        done += 1
        assert lattice_hnf(emb.q).data == lattice_hnf(hn.q).data
        assert (emb.feasible, emb.scale_k) == (hn.feasible, hn.scale_k)
        for ks in (emb, hn):
            for c in ks.q.col_list():
                assert mat_vec(a, c) == (0,) * m
            assert mat_vec(a, ks.x0) == tuple(ks.scale_k * e for e in b)


huge_entries = st.builds(
    lambda sign, v: sign * v, st.sampled_from((-1, 1)), st.integers(10**30, 10**36)
)


@st.composite
def kernel_inputs(draw):
    """A full row rank A with m <= n <= 6 (m = n included), small entries
    mixed with at least one of magnitude 10^30 or more, and some rows
    negated whole; b is small or huge too."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    entry = st.one_of(st.integers(-9, 9), huge_entries)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(huge_entries)
    flips = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    rows = [[-v for v in row] if flip else row for row, flip in zip(rows, flips)]
    assume(full_row_rank(rows))
    b = draw(st.lists(st.one_of(st.integers(-50, 50), huge_entries), min_size=m, max_size=m))
    return IntMatrix.from_rows(rows, cols=n), tuple(b)


@settings(max_examples=80, deadline=None)
@given(kernel_inputs())
@example((IntMatrix.from_rows([(10**30, 10**30 + 1), (-7, 3)]), (10**31, 5)))
def test_kernel_and_solution_property(case):
    """A x0 = scale_k b, A Q = 0 with n - m columns, and the same kernel
    lattice and scale_k as the HNF strategy, which serves as the oracle."""
    a, b = case
    m, n = a.rows, a.cols
    ks = kernel_and_solution(a, b)
    assert (ks.q.rows, ks.q.cols) == (n, n - m)
    assert mat_vec(a, ks.x0) == tuple(ks.scale_k * e for e in b)
    for c in ks.q.col_list():
        assert mat_vec(a, c) == (0,) * m
    oracle = kernel_and_solution(a, b, strategy="hnf")
    assert (ks.feasible, ks.scale_k) == (oracle.feasible, oracle.scale_k)
    assert lattice_hnf(ks.q).data == lattice_hnf(oracle.q).data


def test_forward_substitute():
    d = ((2, 99), (1, 3))  # the entry right of the diagonal is never read
    assert forward_substitute(d, (4, 5)) == [2, 1]
    assert forward_substitute(d, (-4, -11)) == [-2, -3]
    assert forward_substitute(d, (3, 5)) is None
    assert forward_substitute(d, (4, 4)) is None
    assert forward_substitute((), ()) == []


def random_unimodular(rng, n, steps=40):
    """Identity scrambled by row swaps and row additions: det = ±1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            f = rng.randint(-3, 3)
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, cols=n)


def test_inverse_rows():
    """Rows of U^-1 solve y U = e_i; a singular U raises RankError naming
    the first row that depends on earlier rows, and |det U| != 1 returns
    None."""
    rng = random.Random(61)
    for trial in range(40):
        n = rng.randint(1, 7)
        u = random_unimodular(rng, n)
        idx = sorted(rng.sample(range(n), rng.randint(0, n)))
        rows = inverse_rows(u, idx)
        assert len(rows) == len(idx)
        for i, y in zip(idx, rows):
            assert mat_vec(transpose(u), y) == tuple(1 if k == i else 0 for k in range(n))
    assert inverse_rows(IntMatrix.from_rows([(2, 1), (1, 2)]), [0]) is None  # det 3
    assert inverse_rows(IntMatrix.from_rows([(0, 1), (1, 0)]), [0, 1]) == [(0, 1), (1, 0)]
    with pytest.raises(RankError) as ei:
        inverse_rows(IntMatrix.from_cols([(1, 2, 0), (0, 1, 1), (1, 2, 0)]), [0])
    assert ei.value.index == 2


def test_solve_integer():
    assert solve_integer(IntMatrix.from_rows([(2, 4)]), (3,)) is None
    x = solve_integer(IntMatrix.from_rows([(2, 3)]), (7,))
    assert 2 * x[0] + 3 * x[1] == 7
    solver = IntegerSolver(IntMatrix.from_rows([(2, 3)]))
    for rhs in range(-5, 6):
        x = solver.solve((rhs,))
        assert 2 * x[0] + 3 * x[1] == rhs
