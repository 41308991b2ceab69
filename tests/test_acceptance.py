"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s``); all randomness is seeded.
"""
import random
from contextlib import contextmanager
from itertools import combinations_with_replacement, permutations

from stripconcave import (
    BoundarySpec,
    boundary,
    boundary_of_flow,
    build_trapezoid,
    build_triangular,
    check_trapezoid,
    count_scaled_points,
    deficits,
    derivative,
    enumerate_vertices,
    facet_count,
    facets,
    gamma,
    gamma_inv,
    generator_array,
    integrate,
    kostka,
    nu_of_flow,
    path_decompose,
    pattern_to_tableau,
    reduce_to_triangle,
    swap_flow,
    validate_array,
)
from stripconcave.fixtures import hexagon_array, trapezoid_array

from oracles import (
    admissibility_violation,
    enumerate_patterns,
    enumerate_tableaux,
    exhaustive_feasible,
    pattern_nu,
    random_pattern,
    tight_system_rank,
)
from worked_examples import SKEW_TABLEAU, SWAPPED_FLOW, TRAPEZOID_FLOW, TRAPEZOID_PATTERN


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({name}): PASS", flush=True)


def decreasing_tuples(length, top):
    """All weakly decreasing tuples of the given length with entries 0..top."""
    return [
        tuple(c)
        for c in combinations_with_replacement(range(top, -1, -1), length)
    ]


def test_criterion_1_fixture_fidelity():
    with report(1, "fixture fidelity"):
        assert boundary(hexagon_array()) == BoundarySpec(
            (3, 0), (2, 1), (2, -2, 5), (1, 0, 4)
        )
        assert boundary(trapezoid_array()) == BoundarySpec(
            (6, 4, 3, 1, 1), (5, 2), (1, -7, -2), (4, -5, 1)
        )
        assert derivative(trapezoid_array()).rows == TRAPEZOID_PATTERN.rows
        t = pattern_to_tableau(TRAPEZOID_PATTERN)
        assert t == SKEW_TABLEAU
        from stripconcave import content

        assert content(t) == (3, 2, 3)
        assert swap_flow(TRAPEZOID_FLOW, 2) == SWAPPED_FLOW


def test_criterion_2_feasibility_oracle_equivalence():
    with report(2, "feasibility oracle equivalence"):
        # exhaustive grid: n <= 2, m <= 2, lam entries 0..4, mu = 0
        for n in (1, 2):
            for m in (0, 1, 2):
                for lam in decreasing_tuples(n + m, 4):
                    for bar in decreasing_tuples(m, 4):
                        achievable = {
                            pattern_nu(rows)
                            for rows in enumerate_patterns(lam, bar)
                        }
                        total = sum(lam) - sum(bar)
                        span = sum(lam) + 1
                        heads = (
                            [()]
                            if n == 1
                            else [(v,) for v in range(-span, span + 1)]
                        )
                        for head in heads:
                            nu = head + (total - sum(head),)
                            spec = BoundarySpec(lam, bar, (0,) * n, nu)
                            got = check_trapezoid(spec, n, m).feasible
                            assert got == (nu in achievable), (lam, bar, nu)
        # shortcut vs full bitmask sweep on random larger instances
        rng = random.Random(20260825)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            m = rng.randint(0, 3)
            lam = tuple(sorted((rng.randint(-5, 9) for _ in range(n + m)), reverse=True))
            bar = tuple(sorted((rng.randint(-5, 9) for _ in range(m)), reverse=True))
            mu = tuple(rng.randint(-4, 4) for _ in range(n))
            nu = [rng.randint(-6, 6) for _ in range(n - 1)]
            nu.append(sum(lam) - sum(bar) + sum(mu) - sum(nu))
            nu = tuple(nu)
            got = check_trapezoid(BoundarySpec(lam, bar, mu, nu), n, m).feasible
            assert got == exhaustive_feasible(lam, bar, mu, nu), (lam, bar, mu, nu)


def test_criterion_3_construction_soundness():
    with report(3, "construction soundness and integrality"):
        rng = random.Random(3)
        for _ in range(1000):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            p = random_pattern(rng, n, m, 0, 10)
            lam, bar, nu = p.rows[-1], p.rows[0], pattern_nu(p.rows)
            x = build_trapezoid(lam, bar, nu)
            assert validate_array(x)
            assert boundary(x) == BoundarySpec(lam, bar, (0,) * n, nu)
            assert all(isinstance(v, int) for row in x.rows for v in row)
        for _ in range(200):
            n = rng.randint(1, 4)
            p = random_pattern(rng, n, 0, 0, 10)
            lam, nu = p.rows[-1], pattern_nu(p.rows)
            x = build_triangular(lam, nu)
            assert validate_array(x)
            assert boundary(x) == BoundarySpec(lam, (), (0,) * n, nu)
            rank, free = tight_system_rank(derivative(x), fixed_nu=True)
            assert rank == free


def test_criterion_4_flow_bijection():
    with report(4, "flow bijection"):
        rng = random.Random(4)
        for _ in range(1000):
            n = rng.randint(1, 4)
            m = rng.randint(0, 3)
            p = random_pattern(rng, n, m, 0, 8)
            x = integrate(p)
            g = gamma(x)
            lam, bar = boundary_of_flow(g)
            assert (lam, bar) == (p.rows[-1], p.rows[0])
            assert admissibility_violation(g, lam, bar) is None
            assert nu_of_flow(g) == pattern_nu(p.rows)
            y = gamma_inv(g)
            assert y.rows == x.rows
            assert gamma(y) == g


def test_criterion_5_vertex_enumeration():
    with report(5, "vertex enumeration"):
        for total in range(1, 6):
            for lam in decreasing_tuples(total, 3):
                for m in range(total):
                    for bar in decreasing_tuples(m, 3):
                        pts = [
                            tuple(v for row in rows for v in row)
                            for rows in enumerate_patterns(lam, bar)
                        ]
                        pts_set = set(pts)
                        extreme = set()
                        for v in pts:
                            if not any(
                                a != v
                                and tuple(2 * x - y for x, y in zip(v, a)) in pts_set
                                and tuple(2 * x - y for x, y in zip(v, a)) != a
                                for a in pts
                            ):
                                extreme.add(v)
                        got = enumerate_vertices(lam, bar)
                        flat = {
                            tuple(v for row in derivative(x).rows for v in row)
                            for x in got
                        }
                        assert flat == extreme, (lam, bar)
                        for x in got:
                            assert validate_array(x)
                            assert all(
                                isinstance(v, int) for row in x.rows for v in row
                            )


def test_criterion_6_facet_suite():
    with report(6, "facet suite"):
        for m in range(7):
            assert len(facets(1, m)) == 2 * m
        assert len(facets(2, 0)) == 2
        for n in range(2, 5):
            for m in range(1, 4):
                assert len(facets(n, m)) == facet_count(n, m)
        rng = random.Random(6)
        size_cache = {}
        for _ in range(10_000):
            n = rng.randint(2, 4)
            m = rng.randint(0, 3)
            p = random_pattern(rng, n, m, 0, 6)
            mu = tuple(rng.randint(-3, 3) for _ in range(n))
            spec = boundary(integrate(p, mu))
            if (n, m) not in size_cache:
                size_cache[(n, m)] = facets(n, m)
            for f in size_cache[(n, m)]:
                assert f.evaluate(spec) >= 0, (f, spec)
        # minimizing the column part of a horn inequality gives the deficit
        for _ in range(10_000):
            n = rng.randint(1, 5)
            m = rng.randint(0, 3)
            lam = tuple(sorted((rng.randint(-4, 8) for _ in range(n + m)), reverse=True))
            bar = tuple(sorted((rng.randint(-4, 8) for _ in range(m)), reverse=True))
            k = rng.randint(0, n)
            profile = deficits(lam, bar, n)
            best = 0
            for mask in range(1 << m):
                J = [j + 1 for j in range(m) if mask >> j & 1]
                if any(j + k > n + m for j in J):
                    continue
                best = min(best, sum(lam[j + k - 1] - bar[j - 1] for j in J))
            assert best == -profile[k], (lam, bar, k)


def test_criterion_7_counting_invariances():
    with report(7, "counting invariances"):
        rng = random.Random(7)
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            m = rng.randint(0, 2)
            p = random_pattern(rng, n, m, 0, 3)
            lam, bar, nu = p.rows[-1], p.rows[0], pattern_nu(p.rows)
            if sum(lam) > 10:
                continue
            done += 1
            base = kostka(lam, bar, nu)
            assert base >= 1
            assert base == enumerate_tableaux(lam, bar, nu)
            for perm in set(permutations(nu)):
                assert kostka(lam, bar, perm) == base
                for k in (2, 3):
                    assert count_scaled_points(lam, bar, perm, k) == \
                        count_scaled_points(lam, bar, nu, k)


def test_criterion_8_lambda_prime_transform():
    with report(8, "triangular reduction transform"):
        for length in range(1, 5):
            for lam in decreasing_tuples(length, 4):
                assert reduce_to_triangle(lam, ()) == lam
        rng = random.Random(8)
        for _ in range(1000):
            n = rng.randint(1, 4)
            m = rng.randint(0, 3)
            p = random_pattern(rng, n, m, 0, 6)
            lam, bar = p.rows[-1], p.rows[0]
            lam_prime = reduce_to_triangle(lam, bar)
            assert len(lam_prime) == n
            assert sum(lam_prime) == sum(lam) - sum(bar)
            assert all(x >= y for x, y in zip(lam_prime, lam_prime[1:]))
            nu = tuple(rng.randint(-2, 7) for _ in range(n))
            feasible = check_trapezoid(
                BoundarySpec(lam, bar, (0,) * n, nu), n, m
            ).feasible
            srt = sorted(nu, reverse=True)
            majorized = sum(nu) == sum(lam_prime) and all(
                sum(srt[:k]) <= sum(lam_prime[:k]) for k in range(1, n + 1)
            )
            assert feasible == majorized, (lam, bar, nu)


def test_criterion_9_generators():
    with report(9, "path generators"):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = rng.randint(0, 3)
            p = random_pattern(rng, n, m, 0, 6)
            g = gamma(integrate(p))
            decomposition = path_decompose(g)
            acc0 = [[0] * (i + m + 1) for i in range(n)]
            acc1 = [[0] * (i + m + 1) for i in range(n)]
            total = [[0] * len(row) for row in p.rows]
            for nodes, w in decomposition.paths:
                assert w > 0
                for (pi, pj), (qi, qj) in zip(nodes, nodes[1:]):
                    (acc1 if qj - pj else acc0)[pi][pj] += w
                y = generator_array(nodes, m)
                for i, row in enumerate(y.rows):
                    for j, v in enumerate(row):
                        total[i][j] += w * v
            assert tuple(map(tuple, acc0)) == g.e0
            assert tuple(map(tuple, acc1)) == g.e1
            assert tuple(map(tuple, total)) == p.rows
