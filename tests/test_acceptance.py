"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints `ACCEPTANCE <n>: PASS` or `FAIL` before asserting, so a
plain pytest run doubles as a checklist.  The market-split comparison in
criterion 9 runs the deliberately slow untransformed searches and takes
several minutes; everything else finishes in seconds.
"""

import itertools
import math
import random
import time
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction

import pytest

from latref import (
    BnbConfig,
    bnb_feasibility,
    compare_formulations,
    frobenius_exact,
    frobenius_lower_bound,
    gen_market_split,
    integer_width,
    width_bounds,
)
from latref.exact import IntMatrix, mat_mul, mat_vec, transpose
from latref.lattice import hnf, kernel_and_solution, lll_reduce
from latref.reformulate import (
    EqualitySystem,
    FixedSplit,
    build_extended,
    detect_decomposition,
    split_basis,
)
from support import (
    det,
    gram_schmidt,
    hnf_oracle,
    lattice_hnf,
    lp_solve,
    random_decomposition,
    representable_sieve,
    verify_formulation_equivalence,
)

CUWW1 = (12223, 12224, 36674, 61119, 85569)
CUWW1_F = 89643481

# reference generator pair for CUWW1: a = 12225 * P1 + 12224 * P2
CUWW1_P_ROWS = ((-1, 0, 2, -1, 1), (2, 1, 1, 6, 6))

TWOROW_A = ((1, -5, -4, 11, 5), (-13, -2, -12, -11, 1))
TWOROW_B = (8, -37)
TWOROW_T_COL = (-5, 61, 1)


def report(num: int, problems) -> None:
    ok = not problems
    print("ACCEPTANCE %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok, "; ".join(str(p) for p in problems)


def knapsack(a, b):
    return EqualitySystem(IntMatrix.from_rows([a]), (b,))


SweepItem = namedtuple("SweepItem", "a det frob sieve x0_unit")


@pytest.fixture(scope="session")
def sweep():
    """200 knapsack rows with planted two-generator structure, each run
    through the full detection pipeline; exact Frobenius data attached."""
    rng = random.Random(20260819)
    items = []
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        a = random_decomposition(rng, n).a
        assert all(1 <= v <= 60 for v in a) and math.gcd(*a) == 1
        det_ = detect_decomposition(knapsack(a, 1), FixedSplit(1))
        assert det_.decomposition is not None, (a, det_.decomposition_error)
        frob = frobenius_exact(a)
        sieve = representable_sieve(a, frob + min(a))
        x0_unit = kernel_and_solution(IntMatrix.from_rows([a]), (1,)).x0
        items.append(SweepItem(a, det_, frob, sieve, x0_unit))
    return items


@pytest.fixture(scope="session")
def width_zero_pairs(sweep):
    """Every (instance, b) with certified width 0 for b up to F(a) + min(a)."""
    pairs = []
    for item in sweep:
        d = item.det.decomposition
        for b in range(item.frob + min(item.a) + 1):
            if integer_width(d, b).clamped == 0:
                pairs.append((item, b))
    return pairs


def test_01_hard_knapsack_width_zero():
    t0 = time.monotonic()
    det_ = detect_decomposition(knapsack(CUWW1, CUWW1_F))
    wv = integer_width(det_.decomposition, CUWW1_F)
    elapsed = time.monotonic() - t0
    problems = []
    if (wv.floor_part, wv.ceil_part) != (-7334, -7333):
        problems.append("bracket %r" % ((wv.floor_part, wv.ceil_part),))
    if wv.raw != 0 or wv.clamped != 0:
        problems.append("width %d/%d" % (wv.raw, wv.clamped))
    if elapsed >= 1.0:
        problems.append("too slow: %.2fs" % elapsed)
    report(1, problems)


def test_02_hard_knapsack_frobenius_exact():
    t0 = time.monotonic()
    value = frobenius_exact(CUWW1)
    elapsed = time.monotonic() - t0
    problems = []
    if value != CUWW1_F:
        problems.append("frobenius %d" % value)
    if elapsed >= 10.0:
        problems.append("too slow: %.2fs" % elapsed)
    report(2, problems)


def test_03_hard_knapsack_multiplier_recovery():
    det_ = detect_decomposition(knapsack(CUWW1, CUWW1_F), FixedSplit(1))
    ef = det_.formulation
    d = det_.decomposition
    problems = []
    if ef.m_mat.data != ((12225, 12224),):
        problems.append("multipliers %r" % (ef.m_mat.data,))
    got = lattice_hnf(transpose(ef.p))
    want = lattice_hnf(IntMatrix.from_cols(CUWW1_P_ROWS))
    if got.data != want.data:
        problems.append("generator row lattice differs")
    recombined = tuple(d.m1 * u + d.m2 * v for u, v in zip(d.p1, d.p2))
    if recombined != CUWW1:
        problems.append("recombination %r" % (recombined,))
    report(3, problems)


def test_04_two_row_roundtrip_and_perturbation_witness():
    sys_ = EqualitySystem(IntMatrix.from_rows(TWOROW_A), TWOROW_B)
    det_ = detect_decomposition(sys_, FixedSplit(1))
    ef = det_.formulation
    problems = []
    if lattice_hnf(ef.t).data != lattice_hnf(IntMatrix.from_cols([TWOROW_T_COL])).data:
        problems.append("kernel image lattice differs")

    lo = tuple(v - 6 for v in ef.x0)
    hi = tuple(v + 6 for v in ef.x0)
    rep = verify_formulation_equivalence(sys_, ef, lo, hi)
    if rep.points_checked != 13 ** 5:
        problems.append("box size %d" % rep.points_checked)
    if rep.missing or rep.extra:
        problems.append("discrepancies %d/%d" % (len(rep.missing), len(rep.extra)))

    # doubling the image basis halves the reachable sublattice; a solution
    # one long-step away from x0 must become unrepresentable
    doubled = IntMatrix.from_rows([[2 * v for v in row] for row in ef.t.data])
    step = det_.split.long.col(0)
    center = tuple(x + s for x, s in zip(ef.x0, step))
    rep2 = verify_formulation_equivalence(
        sys_, replace(ef, t=doubled),
        tuple(v - 6 for v in center), tuple(v + 6 for v in center),
    )
    if not rep2.missing:
        problems.append("no witness after doubling")
    report(4, problems)


def test_05_width_zero_implies_infeasible(sweep, width_zero_pairs):
    bad = [
        (item.a, b)
        for item, b in width_zero_pairs
        if item.sieve[b]
    ]
    problems = []
    if len(sweep) != 200:
        problems.append("sweep size %d" % len(sweep))
    if not width_zero_pairs:
        problems.append("no width-0 pairs sampled")
    if bad:
        problems.append("%d false certificates, first %r" % (len(bad), bad[0]))
    report(5, problems)


def test_06_frobenius_bound_soundness(sweep):
    problems = []
    checked = 0
    for item in sweep:
        fb = frobenius_lower_bound(item.det.decomposition)
        if not fb.assumptions_ok:
            continue
        checked += 1
        if not fb.value <= item.frob:
            problems.append("bound %s > F %d for %r" % (fb.value, item.frob, item.a))
    if checked == 0:
        problems.append("assumptions never held")

    # unit-multiplier specialization: the closed form collapses to a
    # two-term expression in the extreme coordinates
    rng = random.Random(1303)
    done = 0
    while done < 20:
        d = random_decomposition(rng)
        if d.m2 != 1:
            continue
        assert d.q1 == 0
        fb = frobenius_lower_bound(d)
        if not fb.assumptions_ok:
            continue
        wa = width_bounds(d)
        j, k = wa.j, wa.k
        reduced = (
            Fraction(d.a[j] * d.a[k] - d.p1[k] * d.a[j],
                     d.p1[k] * d.a[j] - d.p1[j] * d.a[k])
            - Fraction(d.a[j], d.p1[j])
        )
        if fb.value != reduced:
            problems.append("reduced form mismatch for %r" % (d.a,))
        done += 1
    report(6, problems)


def test_07_reduction_and_hnf_invariants():
    rng = random.Random(77003)
    half = Fraction(1, 2)
    delta = Fraction(3, 4)
    problems = []
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        while True:
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            try:
                h = hnf(a)
                break
            except Exception:
                continue

        # reduction: size condition and the exchange condition, checked
        # against a fresh exact orthogonalization of the output
        basis = transpose(a)
        red = lll_reduce(basis)
        g = gram_schmidt(red)
        for i in range(1, red.cols):
            for j in range(i):
                if abs(g.mu[i][j]) > half:
                    problems.append("size reduction fails")
            lhs = g.norms_sq[i]
            if lhs < (delta - g.mu[i][i - 1] ** 2) * g.norms_sq[i - 1]:
                problems.append("exchange condition fails")
        if lattice_hnf(red).data != lattice_hnf(basis).data:
            problems.append("reduction changed the lattice")

        # triangular shape with strict row-maximum diagonal, unimodular
        # transform, and agreement with an independent elimination
        au = mat_mul(a, h.u)
        for i in range(m):
            for j in range(m, n):
                if au.data[i][j] != 0:
                    problems.append("right block not cleared")
            if h.d.data[i][i] <= 0:
                problems.append("diagonal not positive")
            for j in range(i):
                if not 0 <= h.d.data[i][j] < h.d.data[i][i]:
                    problems.append("row reduction incomplete")
            for j in range(i + 1, m):
                if h.d.data[i][j] != 0:
                    problems.append("not lower triangular")
            if au.data[i][:m] != h.d.data[i]:
                problems.append("transform does not reproduce the form")
        if abs(det(h.u)) != 1:
            problems.append("transform not unimodular")
        oracle = hnf_oracle(a)
        if tuple(r[:m] for r in oracle.data) != h.d.data:
            problems.append("independent elimination disagrees")
        if problems:
            break
    report(7, problems)


def test_08_width_zero_root_infeasibility(width_zero_pairs):
    problems = []
    for item, b in width_zero_pairs:
        ef = item.det.formulation
        x0 = tuple(v * b for v in item.x0_unit)
        efb = replace(ef, x0=x0, px0=mat_vec(ef.p, x0))
        r = bnb_feasibility(knapsack(item.a, b), efb, BnbConfig(node_limit=50))
        if r.status != "infeasible" or r.nodes != 1:
            problems.append("(%r, b=%d) -> %s in %d nodes" % (item.a, b, r.status, r.nodes))
            break
    report(8, problems)


def test_09_market_split_formulation_agreement():
    cfg = BnbConfig(node_limit=400_000)
    problems = []

    for seed in (1, 2, 3, 4, 5):
        sys_ = gen_market_split(2, seed)
        truth = any(
            mat_vec(sys_.a, bits) == tuple(sys_.b)
            for bits in itertools.product((0, 1), repeat=sys_.n)
        )
        want = "feasible" if truth else "infeasible"
        tab = compare_formulations(sys_, (1, 4, 8), cfg)
        for row in tab.rows:
            if row.status != want:
                problems.append("m=2 seed %d %s: %s" % (seed, row.label, row.status))

    ahl_wins = 0
    seeds3 = (1, 2, 3)
    for seed in seeds3:
        sys_ = gen_market_split(3, seed)
        tab = compare_formulations(sys_, (1, 9, 17), cfg)
        statuses = {row.status for row in tab.rows}
        if len(statuses) != 1 or "node_limit" in statuses:
            problems.append("m=3 seed %d statuses %r" % (seed, statuses))
            continue
        nodes = {row.label: row.nodes for row in tab.rows}
        if nodes["ahl"] <= nodes["original"]:
            ahl_wins += 1
    if ahl_wins / len(seeds3) < 0.8:
        problems.append("substituted search won only %d/%d" % (ahl_wins, len(seeds3)))
    report(9, problems)


def test_10_projected_range_equality():
    rng = random.Random(1009)
    problems = []
    done = 0
    while done < 50:
        m = rng.choice((1, 1, 2))
        n = rng.randint(m + 2, 6)
        rows = [[rng.randint(-6, 9) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(0, 4) for _ in range(n)]
        b = tuple(sum(r[i] * x[i] for i in range(n)) for r in rows)
        try:
            sys_ = EqualitySystem(IntMatrix.from_rows(rows), b)
            ks = kernel_and_solution(sys_.a, sys_.b)
            if not ks.feasible or ks.q.cols < 2:
                continue
            red = lll_reduce(ks.q)
            sp = split_basis(red, FixedSplit(1))
            ef = build_extended(sys_, sp, red, ks.x0)
        except Exception:
            continue
        done += 1

        # full-substitution polytope x = x0 + Q mu >= 0, objective on the
        # lone long coordinate (last), realized with x as slack variables
        d_free = red.cols
        qcols = sp.short.col_list() + sp.long.col_list()
        rows_iq = []
        for i in range(n):
            row = [0] * (n + d_free)
            row[i] = 1
            for k, c in enumerate(qcols):
                row[n + k] = -c[i]
            rows_iq.append(tuple(row))
        free = ((None, None),)
        lp_iq = (
            (0,) * (n + d_free - 1) + (1,),
            tuple(rows_iq),
            tuple(ks.x0),
            tuple((0, None) for _ in range(n)) + free * d_free,
        )

        # projected polytope P x = P x0 + T mu, same objective coordinate
        rows_p = [
            tuple(ef.p.row(i)) + (-ef.t.data[i][0],) for i in range(ef.p.rows)
        ]
        lp_p = (
            (0,) * n + (1,),
            tuple(rows_p),
            tuple(ef.px0),
            tuple((0, None) for _ in range(n)) + free,
        )

        for sense in ("max", "min"):
            r1 = lp_solve(*lp_iq, sense)
            r2 = lp_solve(*lp_p, sense)
            if r1.status != r2.status:
                problems.append("status split %r %s" % (rows, sense))
            elif r1.status == "optimal" and r1.value != r2.value:
                problems.append("range split %r %s" % (rows, sense))
    report(10, problems)
