"""The benchmark's oracles against brute force on tiny inputs.

Run with `python3 -m pytest bench/test_oracles.py`.
"""

import itertools
import random
from math import gcd

import oracles

# CUWW1 = 12225 * P1 + 12224 * P2, the reference decomposition
P1 = (-1, 0, 2, -1, 1)
P2 = (2, 1, 1, 6, 6)


def brute_binary_feasible(rows, rhs):
    return any(
        all(sum(r * v for r, v in zip(row, x)) == b for row, b in zip(rows, rhs))
        for x in itertools.product((0, 1), repeat=len(rows[0]))
    )


def frobenius_sieve(a, limit):
    """Largest value <= limit with no nonnegative representation, by a
    reachability table; right whenever the true answer is below
    limit - max(a)."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for v in range(1, limit + 1):
        reach[v] = any(v >= e and reach[v - e] for e in a)
    return max(v for v in range(limit + 1) if not reach[v])


def test_enumerate_small_cases():
    assert oracles.binary_solution_enumerate([[1, 2, 3]], [5]) == (0, 1, 1)
    assert oracles.binary_solution_enumerate([[1, 2, 3]], [7]) is None
    assert oracles.binary_solution_enumerate([[1, 1], [1, 0]], [1, 0]) == (0, 1)


def test_mitm_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.choice((1, 2)), rng.randint(2, 7)
        rows = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
        rhs = [sum(row) // 2 + rng.randint(-1, 1) for row in rows]
        want = brute_binary_feasible(rows, rhs)
        for solve in (oracles.binary_solution_enumerate, oracles.binary_solution_mitm):
            x = solve(rows, rhs)
            assert (x is not None) == want
            if x is not None:
                assert oracles.check_solution(rows, rhs, x, [0] * n, [1] * n) == []


def test_round_robin_matches_sieve():
    rng = random.Random(11)
    done = 0
    while done < 150:
        a = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
        if gcd(*a) != 1:
            continue
        done += 1
        assert oracles.frobenius_round_robin(a) == frobenius_sieve(a, 1000)


def test_round_robin_known_values():
    assert oracles.frobenius_round_robin([3, 5]) == 7
    assert oracles.frobenius_round_robin([6, 9, 20]) == 43
    assert oracles.frobenius_round_robin(oracles.CUWW1) == oracles.CUWW1_FROBENIUS


def test_certificate_checks_accept_and_reject():
    a = [list(oracles.CUWW1)]
    b = [oracles.CUWW1[0]]
    x0 = [1, 0, 0, 0, 0]
    p = [list(P1), list(P2)]
    m_mat = [[12225, 12224]]
    t = [[-12224], [12225]]
    px0 = [oracles.dot(row, x0) for row in p]
    assert oracles.check_formulation(a, b, p, m_mat, t, x0, px0, 1) == []
    assert oracles.check_formulation(a, b, p, [[12225, 12223]], t, x0, px0, 1)
    assert oracles.check_formulation(a, b, p, m_mat, [[-2 * 12224], [2 * 12225]], x0, px0, 1)
    assert oracles.check_formulation(a, b, p, m_mat, t, [0, 1, 0, 0, 0], px0, 1)

    assert oracles.check_solution(a, b, x0) == []
    assert oracles.check_solution(a, b, [0, 1, 0, 0, 0])
    assert oracles.check_solution([[1, -1]], [0], [-1, -1])  # below the default lower bound 0

    # x0 itself is the point mu = 0; x0 plus a kernel vector is another
    assert oracles.check_extended_point(p, t, px0, x0, [0]) == []
    kern = [12224, -12223, 0, 0, 0]
    x1 = [u + v for u, v in zip(x0, kern)]
    mu1 = [(oracles.dot(P1, x1) - px0[0]) // -12224]
    assert oracles.check_extended_point(p, t, px0, x1, mu1) == []
    assert oracles.check_extended_point(p, t, px0, x1, [mu1[0] + 1])

    assert oracles.check_decomposition(oracles.CUWW1, 12225, 12224, 1, -1, P1, P2) == []
    assert oracles.check_decomposition(oracles.CUWW1, 12225, 12224, 2, -1, P1, P2)
    assert oracles.check_decomposition(oracles.CUWW1, 12224, 12225, 1, -1, P1, P2)
