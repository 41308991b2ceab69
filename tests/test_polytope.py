import random
import sys
import time
import timeit
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from stripconcave import (
    BoundarySpec,
    FacetInequality,
    InputError,
    boundary,
    canonical_json,
    check_trapezoid,
    count_scaled_points,
    deficits,
    facet_count_consistent,
    facet_count_formula,
    facets,
    integrate,
    kostka,
)
from stripconcave.fixtures import trapezoid_array

from fresh import fresh_python
from oracles import (
    brute_force_facets,
    enumerate_patterns,
    enumerate_tableaux,
    pattern_nu,
    random_pattern,
)
from worked_examples import TRAPEZOID_PATTERN


def test_facet_counts_match_examples():
    assert len(facets(1, 2)) == 4
    assert len(facets(2, 0)) == 2
    assert len(facets(2, 1)) == 8
    assert facet_count_formula(3, 1) == 17
    assert facet_count_formula(1, 4) == 8
    assert facet_count_formula(2, 0) == 2


def test_facet_count_formula_agreement():
    for m in range(7):
        assert len(facets(1, m)) == 2 * m == facet_count_formula(1, m)
    for n in range(2, 5):
        for m in range(1, 4):
            assert len(facets(n, m)) == facet_count_formula(n, m), (n, m)


def test_facet_count_matches_listing():
    for n in range(1, 7):
        for m in range(6):
            assert facet_count_consistent(n, m)["enumerated"] == len(facets(n, m)), (n, m)
    with pytest.raises(InputError):
        facet_count_consistent(2, -1)
    with pytest.raises(InputError, match="facets need n >= 1 and m >= 0"):
        facet_count_formula(0, 1)


def test_facet_count_divergence_without_top_row():
    # one extra chamber facet per the classification when m = 0, n >= 3
    for n in (3, 4, 5):
        report = facet_count_consistent(n, 0)
        assert not report["consistent"]
        assert report["enumerated"] == report["formula"] + 1


def test_facet_count_for_one_row_allocates_no_power():
    """For n = 1 the subset term is 0 and is not computed: ``2**m`` alone
    would take about 125 MB at m = 10**9."""
    tracemalloc.start()
    try:
        report = facet_count_consistent(1, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == {"enumerated": 2 * 10**9, "formula": 2 * 10**9, "consistent": True}
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("call", [
    lambda: facet_count_consistent(3.0, 1),
    lambda: facet_count_formula(2.5, 1),
    lambda: facets(2.0, 1),
    lambda: facets(True, 2),
], ids=["count-float-n", "formula-float-n", "facets-float-n", "facets-bool-n"])
def test_facet_shapes_must_be_ints(call):
    with pytest.raises(InputError, match="facets need integer n and m"):
        call()


@pytest.mark.parametrize("n, m", [(2, -1), (1, -3), (3, -2), (0, 1)])
@pytest.mark.parametrize("facet_function", [facets, facet_count_formula, facet_count_consistent])
def test_facet_functions_refuse_a_negative_shape(facet_function, n, m):
    # the closed form alone once gave -3.0, -6 and -5.5 for the first three
    with pytest.raises(InputError, match="facets need n >= 1 and m >= 0"):
        facet_function(n, m)


def test_facet_listing_allocates_no_lists():
    """A facet's JSON is one dict holding the record's own tuples, so the list
    of them costs each dict's size plus a slot (8 B, with room here for the
    list's growth); two fresh lists per facet would add over 150 B."""
    fs = facets(7, 7)
    bound = sum(sys.getsizeof(f.to_json()) + 32 for f in fs)
    tracemalloc.start()
    try:
        out = [f.to_json() for f in fs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(fs) == 16161
    assert peak < bound, (peak / len(fs), bound / len(fs))


def test_facets_match_the_brute_force_classification():
    for n in range(1, 11):
        for m in range(11 - n):
            fs = facets(n, m)
            assert [(f.kind, f.I, f.J, f.j) for f in fs] == brute_force_facets(n, m), (n, m)
            as_lists = [{"kind": f.kind, "I": list(f.I), "J": list(f.J)} if f.kind == "horn"
                        else {"kind": f.kind, "j": f.j} for f in fs]
            assert canonical_json([f.to_json() for f in fs]) == canonical_json(as_lists), (n, m)


def test_facets_n1_builds_only_the_listed_column_subsets():
    # n = 1 lists |J| = 1 and |J| = m - 1 only: 34 facets at m = 17, not 2^17 subsets
    assert len(facets(1, 17)) == 34
    assert min(timeit.repeat(lambda: facets(1, 17), number=1, repeat=5)) < 0.005


def test_facets_n2_m0_contents():
    fs = facets(2, 0)
    assert all(f.kind == "horn" and len(f.I) == 1 for f in fs)
    assert {f.I for f in fs} == {(1,), (2,)}


def test_facets_deduplicated_and_sorted():
    fs = facets(3, 2)
    keys = [(f.kind, f.I, f.J, f.j) for f in fs]
    assert len(keys) == len(set(keys))
    horn = [k for k in keys if k[0] == "horn"]
    assert horn == sorted(horn, key=lambda k: (len(k[1]) + len(k[2]), (k[1], k[2])))


def test_facet_evaluation_on_fixture():
    spec = boundary(trapezoid_array())
    for f in facets(3, 2):
        assert f.evaluate(spec) >= 0, f


def test_chamber_facets_evaluate_steps():
    f = FacetInequality("chamber_lambda", j=2)
    spec = BoundarySpec((5, 3, 3), (), (0, 0, 0), (4, 4, 3))
    assert f.evaluate(spec) == 0
    fb = FacetInequality("chamber_lambda_bar", j=1)
    spec2 = BoundarySpec((5, 3, 3), (2, 1), (0,), (0,))
    assert fb.evaluate(spec2) == 1


def test_min_over_J_equals_deficit():
    # minimizing the J-part of a horn inequality over all J recovers -D_k
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        lam = tuple(sorted((rng.randint(-4, 8) for _ in range(n + m)), reverse=True))
        bar = tuple(sorted((rng.randint(-4, 8) for _ in range(m)), reverse=True))
        profile = deficits(lam, bar, n)
        for k in range(n + 1):
            best = 0
            for mask in range(1 << m):
                J = [j + 1 for j in range(m) if mask >> j & 1]
                if any(j + k > n + m for j in J):
                    continue
                val = sum(lam[j + k - 1] - bar[j - 1] for j in J)
                best = min(best, val)
            assert best == -profile[k], (lam, bar, k)


def test_kostka_base_cases():
    assert kostka((1, 0), (), (1,)) == 1
    assert kostka((2, 1, 0), (), (1, 1, 1)) == 2
    assert kostka((), (), ()) == 1
    assert kostka((1,), (), (2,)) == 0  # unbalanced
    assert kostka((1, 2), (), (1, 2)) == 0  # not a partition
    assert kostka((1,) * 200, (), (1,) * 200) == 1  # 200 levels, no recursion
    # lam is normalised to n + m parts: trailing zeros are empty rows ...
    assert kostka((2, 1, 0, 0, 0), (), (1, 1, 1)) == 2
    assert kostka((6, 4, 3, 1, 1, 0, 0), (5, 2), (3, 2, 3)) == 8
    assert kostka((2, 1), (), (1, 1, 1)) == 2
    # ... a nonzero part beyond n + m cannot be filled ...
    assert kostka((1, 1, 1, 1), (), (2, 2)) == 0
    # ... and a short lam padded with zeros must stay weakly decreasing
    assert kostka((2, -1), (), (1, 0, 0)) == 0
    assert kostka((0, -2), (), (-1, -1, 0)) == 0
    assert kostka((3, 1, -1), (1,), (1, 1, 0)) == 0


def test_kostka_trims_trailing_zeros_at_once():
    """200 000 zero parts beyond n + m are dropped in one slice; a nonzero
    part among them makes the count 0."""
    zeros = (0,) * 200_000
    start = time.perf_counter()
    assert kostka((1,) + zeros, (), (1,)) == 1
    assert kostka((1,) + zeros + (1,), (), (1,)) == 0
    assert kostka((2, 1) + zeros, (1,), (1, 1)) == 2
    assert time.perf_counter() - start < 5


def test_kostka_fixture_contains_pattern():
    K = kostka((6, 4, 3, 1, 1), (5, 2), (3, 2, 3))
    assert K >= 1
    rows_seen = set(enumerate_patterns((6, 4, 3, 1, 1), (5, 2)))
    assert TRAPEZOID_PATTERN.rows in rows_seen
    matching = [r for r in rows_seen if pattern_nu(r) == (3, 2, 3)]
    assert len(matching) == K


def test_kostka_counts_are_polynomial_in_stretching():
    """For a straight shape, ``K(k lam, k nu)`` is a polynomial in ``k`` of
    degree at most ``D = (n - 1)(n - 2) / 2`` (E. Rassart, JCTA 107, 2004).
    Interpolated at ``k = 1 .. D + 1``, it must predict ``k = D + 2, D + 3``:
    the ``(D + 1)``-th differences of the counts at ``k = 1 .. D + 3``
    vanish.  A nonzero ``D``-th difference shows the degree bound reached."""
    shapes = [((6, 4, 2, 0), (3, 3, 3, 3)), ((3, 2, 1, 0), (1, 2, 1, 2)),
              ((4, 2, 1, 1), (2, 2, 2, 2)), ((5, 3, 1, 0), (3, 2, 2, 2)),
              ((6, 3, 0), (3, 3, 3)), ((2, 0), (1, 1))]
    reached = []
    for lam, nu in shapes:
        n = len(nu)
        bound = (n - 1) * (n - 2) // 2
        counts = [kostka(tuple(k * v for v in lam), (), tuple(k * v for v in nu))
                  for k in range(1, bound + 4)]
        table = [counts]
        while len(table[-1]) > 1:
            table.append([b - a for a, b in zip(table[-1], table[-1][1:])])
        assert counts[0] > 0 and table[bound + 1] == [0, 0], (lam, nu, counts)
        reached.append(table[bound][0] != 0)
    assert reached == [True, True, False, True, True, True]  # (4,2,1,1)/(2^4) has degree 2


def test_kostka_row_cap_bounds_memory():
    # one wide cell would make K // 2 partial rows before the row count is
    # checked; under a 1 GB address-space limit that fails with MemoryError
    probe = (
        "import time\n"
        "from stripconcave import InputError, kostka\n"
        "K = 10**9\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    kostka((K, K // 2, 0, 0), (), (K // 2, K // 2, K // 2, 0))\n"
        "except InputError as exc:\n"
        "    print(time.perf_counter() - start, exc)\n"
    )
    result = fresh_python(probe, memory=1 << 30)
    assert result.returncode == 0, result.stderr
    seconds, message = result.stdout.split(" ", 1)
    assert "frontier states" in message and float(seconds) < 1


def test_kostka_frontier_matches_tableau_count():
    """Against the count of skew tableaux wherever that runs: nonnegative
    shapes, with a negative shift undone first (a common shift of ``lam``,
    ``lam_bar`` and ``nu`` keeps the count), up to 10 cells; every content
    order for ``n <= 4``, trailing zero parts and a short ``lam`` too."""
    rng = random.Random(47)
    orders = brute = 0
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, rng.randint(2, 7))
        lam, bar, nu = p.rows[-1], p.rows[0], list(pattern_nu(p.rows))
        if rng.random() < 0.3:  # perturb, possibly off the polytope
            i, j, d = rng.randrange(n), rng.randrange(n), rng.randint(1, 3)
            nu[i], nu[j] = nu[i] + d, nu[j] - d
        want = enumerate_tableaux(lam, bar, nu) if sum(lam) - sum(bar) <= 10 else None
        shift = rng.choice((0, 0, -2, -5))  # negative lam tails
        lam, bar = (tuple(v + shift for v in t) for t in (lam, bar))
        nu = [v + shift for v in nu]
        tail = rng.choice(((), (), (0,), (0, 0, 0)))  # zero parts past n + m, trimmed
        if shift == 0 and lam[-1] == 0 and rng.random() < 0.3:
            lam, tail = lam[:-1], ()  # a short lam, padded with zeros
        lam = lam + tail
        base = kostka(lam, bar, nu)
        if want is not None:
            assert base == want, (lam, bar, nu)
            brute += 1
        if n <= 4:  # every content order
            for perm in set(permutations(nu)):
                assert kostka(lam, bar, perm) == base, (lam, bar, perm)
            orders += 1
    assert orders >= 200 and brute >= 150, (orders, brute)
    # n = 0: lam must equal lam_bar
    for lam, bar, want in (((), (), 1), ((3, 1), (3, 1), 1), ((3, 1), (3, 0), 0), ((2,), (), 0)):
        assert kostka(lam, bar, ()) == enumerate_tableaux(lam, bar, ()) == want
    # m = 0, long rows and infeasible data
    assert kostka((1,) * 200, (), (1,) * 200) == 1  # one column: a search of 2^200 branches
    assert kostka((1,) * 8, (), (1,) * 8) == enumerate_tableaux((1,) * 8, (), (1,) * 8) == 1
    assert kostka((4, 2, 0), (), (3, 3)) == enumerate_tableaux((4, 2, 0), (), (3, 3)) == 1
    for lam, bar, nu in (((2, 1), (), (4, -1)), ((3, 0), (), (1, 1)), ((2, 2), (3,), (1,)),
                         ((2,), (), (1, 5)), ((4, 1, 0, 0), (0,), (-1, 2, 1, 3))):
        assert kostka(lam, bar, nu) == enumerate_tableaux(lam, bar, nu) == 0


def test_kostka_rejects_fractions():
    from fractions import Fraction

    with pytest.raises(InputError):
        kostka((Fraction(3, 2), 0), (), (Fraction(3, 2),))


def test_counting_refuses_bools():
    # a bool is an int to isinstance; counting takes it neither as data nor as k
    with pytest.raises(InputError, match="counting requires integer data"):
        kostka((True, False), (), (True,))
    with pytest.raises(InputError, match="k must be a positive integer"):
        count_scaled_points((2, 1, 0), (), (1, 1, 1), True)


def test_kostka_permutation_invariance():
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(0, 2)
        p = random_pattern(rng, n, m, 0, 8)
        lam, bar, nu = p.rows[-1], p.rows[0], pattern_nu(p.rows)
        base = kostka(lam, bar, nu)
        assert base >= 1
        if sum(lam) - sum(bar) <= 12:
            assert base == enumerate_tableaux(lam, bar, nu), (lam, bar, nu)
            checked += 1
        for perm in set(permutations(nu)):
            assert kostka(lam, bar, perm) == base, (lam, bar, perm)
    assert checked >= 10


def test_count_scaled_points():
    lam, bar, nu = (2, 1, 0), (), (1, 1, 1)
    assert count_scaled_points(lam, bar, nu, 1) == kostka(lam, bar, nu)
    for k in (1, 2, 3):
        counts = {count_scaled_points(lam, bar, p, k) for p in permutations(nu)}
        assert len(counts) == 1
    # empty polytope stays empty under scaling
    for k in (1, 2, 3):
        assert count_scaled_points((2, 0), (), (3, -1), k) == 0
    with pytest.raises(InputError):
        count_scaled_points(lam, bar, nu, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_kostka_positive_iff_feasible(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(0, 2)
    p = random_pattern(rng, n, m, 0, 4)
    lam, bar = p.rows[-1], p.rows[0]
    nu = list(pattern_nu(p.rows))
    if rng.random() < 0.5:  # perturb, possibly off the polytope
        i = rng.randrange(n)
        j = rng.randrange(n)
        nu[i] += 3
        nu[j] -= 3
    nu = tuple(nu)
    spec = BoundarySpec(lam, bar, (0,) * n, nu)
    feasible = check_trapezoid(spec, n, m).feasible
    assert (kostka(lam, bar, nu) > 0) == feasible


def test_horn_facets_valid_on_random_boundaries():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, 6)
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        spec = boundary(integrate(p, mu))
        for f in facets(n, m):
            assert f.evaluate(spec) >= 0, (f, spec)
