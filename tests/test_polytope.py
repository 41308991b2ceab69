import json
import random
import re
import sys
import time
import timeit
import tracemalloc
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from stripconcave import (
    BoundarySpec,
    FacetInequality,
    InputError,
    boundary,
    canonical_json,
    check_trapezoid,
    count_scaled_points,
    deficits,
    facet_count,
    facets,
    integrate,
    kostka,
)
from stripconcave import cli, core, polytope
from stripconcave.fixtures import trapezoid_array

from fresh import fresh_python
from oracles import (
    determinant,
    enumerate_patterns,
    enumerate_tableaux,
    lp_point,
    pattern_nu,
    random_pattern,
)
from worked_examples import TRAPEZOID_PATTERN


def test_facet_counts_match_examples():
    assert len(facets(1, 2)) == 4
    assert len(facets(2, 0)) == 2
    assert len(facets(2, 1)) == 8
    assert facet_count(3, 1) == 17
    assert facet_count(1, 4) == 8
    assert facet_count(2, 0) == 2


def _count_only(capsys, n, m):
    assert cli.main(["facets", "--n", str(n), "--m", str(m), "--count-only"]) == 0
    return json.loads(capsys.readouterr().out)


def test_facet_count_formula_agreement(capsys):
    """``facets --count-only`` prints the paper's closed form beside the count,
    for the benchmark; the two agree for ``n = 1`` and for ``m >= 1``."""
    for n, m in [(1, m) for m in range(7)] + [(n, m) for n in range(2, 5) for m in range(1, 4)]:
        count = facet_count(n, m)
        assert _count_only(capsys, n, m) == {"consistent": True, "enumerated": count, "formula": count}


def test_facet_count_divergence_without_top_row(capsys):
    # the closed form counts m - 1 = -1 monotonicity steps of lam_bar at m = 0
    for n in (3, 4, 5):
        count = facet_count(n, 0)
        assert _count_only(capsys, n, 0) == {"consistent": False, "enumerated": count, "formula": count - 1}


def test_facet_count_matches_listing():
    for n in range(1, 7):
        for m in range(7):
            assert facet_count(n, m) == len(facets(n, m)), (n, m)
    assert [facet_count(1, m) for m in range(7)] == [2 * m for m in range(7)]
    with pytest.raises(InputError, match="facets need n >= 1 and m >= 0"):
        facet_count(2, -1)


def _spec_at(x, n, m):
    """The quadruple whose entries, ``lam``, ``lam_bar``, ``mu`` and ``nu`` in turn, are ``x``."""
    cuts = (0, n + m, n + 2 * m, 2 * n + 2 * m, 3 * n + 2 * m)
    return BoundarySpec(*(tuple(x[lo:hi]) for lo, hi in zip(cuts, cuts[1:])))


def _coefficients(inequalities, n, m):
    """Each inequality, then the balance, as a dict from the index of a
    quadruple's entry to its coefficient: each is linear, so its coefficients
    are its values on the unit quadruples."""
    size = 3 * n + 2 * m
    units = [_spec_at([int(k == v) for k in range(size)], n, m) for v in range(size)]
    rows = [{v: f.evaluate(unit) for v, unit in enumerate(units)} for f in inequalities]
    return rows, {v: unit.balance() for v, unit in enumerate(units)}


# the 14 shapes with n + m <= 5 and a facet; at n + m = 6 the LP passes its pivot cap
LP_SHAPES = [(n, m) for n in range(1, 6) for m in range(6 - n) if (n, m) != (1, 0)]


def test_every_listed_facet_is_irredundant():
    """For each inequality ``F`` that :func:`facets` lists, the exact LP finds a
    balanced quadruple with ``F <= -1`` where every other listed inequality
    holds, and :func:`check_trapezoid` rejects it: ``F`` is valid and no
    other listed inequality implies it.  Every shape with ``n + m <= 5`` and
    a listing is checked, in about 1.3 s."""
    for n, m in LP_SHAPES:
        rows, balance = _coefficients(facets(n, m), n, m)
        for k, row in enumerate(rows):
            others = [({v: -c for v, c in other.items()}, 0) for other in rows[:k] + rows[k + 1:]]
            x = lp_point([(row, -1)] + others, [(balance, 0)], 3 * n + 2 * m)
            assert x is not None, (n, m, k)
            assert not check_trapezoid(_spec_at(x, n, m), n, m).feasible, (n, m, k)
    assert len(LP_SHAPES) == 14 and all(facets(n, m) for n, m in LP_SHAPES) and not facets(1, 0)


def test_every_left_out_inequality_is_implied():
    """For each subset pair ``(I, J)`` of ``1..n`` and ``1..m`` and each
    monotonicity step of ``lam`` and ``lam_bar`` that :func:`facets` leaves
    out, the exact LP finds no balanced quadruple with that inequality
    ``<= -1`` where every listed one holds: the listed ones imply it.  With
    :func:`test_every_listed_facet_is_irredundant`, the listing is exactly the
    facet set on these shapes, and :func:`facet_count` is its size: 8, 17
    and 34 at ``m = 0, n = 3, 4, 5``, where the paper's closed form
    ``(2^n - 2) 2^m + n + 4m - 2`` says 7, 16 and 33."""
    left_out = 0
    for n, m in LP_SHAPES:
        listed = facets(n, m)
        keys = {(f.kind, f.I, f.J, f.j) for f in listed}
        subsets = [[S for size in range(k + 1) for S in combinations(range(1, k + 1), size)] for k in (n, m)]
        candidates = [FacetInequality("horn", I, J) for I in subsets[0] for J in subsets[1]]
        candidates += [FacetInequality("chamber_lambda", j=j) for j in range(1, n + m)]
        candidates += [FacetInequality("chamber_lambda_bar", j=j) for j in range(1, m)]
        candidates = [f for f in candidates if (f.kind, f.I, f.J, f.j) not in keys]
        rows, balance = _coefficients(listed + candidates, n, m)
        holds = [({v: -c for v, c in row.items()}, 0) for row in rows[:len(listed)]]
        for f, row in zip(candidates, rows[len(listed):]):
            assert lp_point([(row, -1)] + holds, [(balance, 0)], 3 * n + 2 * m) is None, (n, m, f)
        left_out += len(candidates)
    assert left_out == 89, left_out
    assert [facet_count(n, 0) for n in (3, 4, 5)] == [len(facets(n, 0)) for n in (3, 4, 5)] == [8, 17, 34]


def test_facet_budgets_refuse_exactly_past_their_limits(monkeypatch):
    """A count of ``n > 1`` passes with :data:`core.CELLS_MAX` at its ``n + m``
    binary digits and is refused one below; ``n = 1`` counts ``2m`` and no
    digits.  The listing passes at ``n + m = FACET_LISTING_MAX``.  At the
    default budget, ``n + m = 10^6`` is counted in well under 0.1 s."""
    for n, m in ((2, 0), (3, 5), (40, 0), (7, 30)):
        monkeypatch.setattr(core, "CELLS_MAX", n + m)
        assert facet_count(n, m).bit_length() in (n + m, n + m + 1)
        monkeypatch.setattr(core, "CELLS_MAX", n + m - 1)
        with pytest.raises(InputError, match=f"^facet count too large: {n + m} binary digits, "
                                             f"more than {n + m - 1}$"):
            facet_count(n, m)
    monkeypatch.setattr(core, "CELLS_MAX", 0)
    assert facet_count(1, 5) == 10
    monkeypatch.undo()
    start = time.perf_counter()
    assert facet_count(2, 10**6 - 2).bit_length() == 10**6
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InputError, match="^facet count too large: 1000001 binary digits, more than 1000000$"):
        facet_count(2, 10**6 - 1)
    assert len(facets(1, polytope.FACET_LISTING_MAX - 1)) == 2 * (polytope.FACET_LISTING_MAX - 1)
    with pytest.raises(InputError, match=r"^facet listing too large: 19 \(n \+ m\), more than 18; "
                                         "--count-only counts the facets$"):
        facets(1, 18)


def test_kostka_budget_refuses_exactly_past_its_limit(monkeypatch):
    """The states a count creates, summed over cells: each refusal names the
    sum at the cell that passed the limit, so raising the limit to it until the
    count is made finds the total.  With the limit at the total the count is
    made; one below, it is refused by the message that names both."""
    lam, nu = (6, 4, 2, 0), (3, 3, 3, 3)
    want, total, refusals = kostka(lam, (), nu), 0, 0
    while True:
        monkeypatch.setattr(polytope, "KOSTKA_STATES_MAX", total)
        try:
            assert kostka(lam, (), nu) == want
            break
        except InputError as exc:
            named = re.fullmatch(r"count too large: (\d+) frontier states, more than (\d+)", str(exc))
            assert int(named[2]) == total < int(named[1]), str(exc)
            total, refusals = int(named[1]), refusals + 1
    assert refusals >= 3 and want == 15  # refused at several cells
    monkeypatch.setattr(polytope, "KOSTKA_STATES_MAX", total - 1)
    with pytest.raises(InputError, match=f"^count too large: {total} frontier states, more than {total - 1}$"):
        kostka(lam, (), nu)


def test_facet_count_for_one_row_allocates_no_power():
    """For n = 1 the subset term is 0 and is not computed: ``2**m`` alone
    would take about 125 MB at m = 10**9."""
    tracemalloc.start()
    try:
        count = facet_count(1, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2 * 10**9
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("call", [
    lambda: facet_count(3.0, 1),
    lambda: facets(2.0, 1),
    lambda: facets(True, 2),
], ids=["count-float-n", "facets-float-n", "facets-bool-n"])
def test_facet_shapes_must_be_ints(call):
    with pytest.raises(InputError, match="facets need integer n and m"):
        call()


@pytest.mark.parametrize("n, m", [(2, -1), (1, -3), (3, -2), (0, 1)])
@pytest.mark.parametrize("facet_function", [facets, facet_count])
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


def test_facets_are_sorted_distinct_and_counted():
    """For ``n + m <= 10``: horn facets of subsets ``I`` of ``1..n`` and ``J``
    of ``1..m``, sorted by ``(|I|+|J|, I, J)`` and distinct, then distinct
    chamber steps in range; as many as :func:`facet_count` says, each equal by
    ``repr`` to the facet ``__init__`` builds from its fields, and their JSON
    is that of lists.  Which facets they are, the two LP tests prove on
    ``n + m <= 5``."""
    for n in range(1, 11):
        for m in range(11 - n):
            fs = facets(n, m)
            horn = [(len(f.I) + len(f.J), f.I, f.J) for f in fs if f.kind == "horn"]
            steps = [(f.kind, f.j) for f in fs[len(horn):]]
            assert horn == sorted(set(horn)) and steps == sorted(set(steps)), (n, m)
            for _, I, J in horn:
                assert list(I) == sorted(set(I) & set(range(1, n + 1))), (n, m, I)
                assert list(J) == sorted(set(J) & set(range(1, m + 1))), (n, m, J)
            assert all(1 <= j < (n + m if kind == "chamber_lambda" else m) for kind, j in steps), (n, m)
            assert len(fs) == facet_count(n, m), (n, m)
            assert [*map(repr, fs)] == [repr(FacetInequality(f.kind, f.I, f.J, f.j)) for f in fs], (n, m)
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


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers that sum to ``total``: stars and bars."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def test_determinant_matches_the_permutation_expansion():
    """The oracle's elimination against the sum over permutations, on seeded
    integer matrices up to 5 by 5: some singular, some with a zero first
    pivot, so that rows are swapped."""
    rng = random.Random(12)
    for size in range(6):
        for _ in range(30):
            mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            if size > 1 and rng.random() < 0.3:
                mat[0][0] = 0
            if size > 1 and rng.random() < 0.2:
                mat[-1] = list(mat[0])
            want = sum((-1) ** sum(a > b for a, b in combinations(perm, 2))
                       * prod(row[c] for row, c in zip(mat, perm)) for perm in permutations(range(size)))
            assert determinant(mat) == want, mat


def test_kostka_sums_to_jacobi_trudi_at_ones():
    """Summed over every composition ``nu`` of ``|lam| - |lam_bar|`` into
    ``n`` parts, the counts are ``s_{lam/lam_bar}(1^n) = det[h_{lam_i -
    lam_bar_j - i + j}]`` with ``h_k = C(n - 1 + k, n - 1)``, 0 for ``k < 0``
    (Macdonald, Symmetric Functions and Hall Polynomials, I.5.4).  Every
    composition is counted, not only sorted ones, so a wrong 0 from an
    infeasible verdict, in any content order, makes the sum short."""
    rng = random.Random(4)
    shapes = [((5, 3, 2, 0), (), 4), ((4, 4, 1, 0, 0), (), 5), ((3, 2, 2, 1, 0), (), 5)]
    while len(shapes) < 7:  # skew shapes lam / lam_bar with n + m rows and m rows inside
        n, m = rng.randint(3, 5), rng.randint(1, 2)
        p = random_pattern(rng, n, m, 0, rng.randint(3, 5))
        lam, bar = p.rows[-1], p.rows[0]
        if any(bar) and 8 <= sum(lam) - sum(bar) <= 14:
            shapes.append((lam, bar, n))
    start = time.perf_counter()
    for lam, bar, n in shapes:
        rows, padded = len(lam), bar + (0,) * (len(lam) - len(bar))
        h = [[comb(n - 1 + k, n - 1) if k >= 0 else 0
              for k in (lam[i] - padded[j] - i + j for j in range(rows))] for i in range(rows)]
        total = sum(kostka(lam, bar, nu) for nu in _compositions(sum(lam) - sum(bar), n))
        assert total == determinant(h) > 0, (lam, bar, n)
    assert time.perf_counter() - start < 1
    assert sum(1 for _, bar, _ in shapes if any(bar)) == 4


def test_kostka_counts_standard_tableaux_by_hook_lengths():
    """``kostka(lam, (), 1^N)`` is the number of standard tableaux of the
    straight shape ``lam`` of ``N`` cells, ``N!`` over the product of its hook
    lengths (Frame, Robinson and Thrall, 1954), on seeded shapes of 20 to 30
    cells.  A single column's hooks are ``N, .., 1``, so its count is 1: the
    ``1^200`` counts above rest on this theorem."""
    rng = random.Random(6)
    for _ in range(8):
        left, lam = rng.randint(20, 30), []
        while left:
            lam.append(rng.randint(1, min(left, 8)))
            left -= lam[-1]
        lam = tuple(sorted(lam, reverse=True))
        cols = [sum(v > j for v in lam) for j in range(lam[0])]
        hooks = prod(v - j + cols[j] - i - 1 for i, v in enumerate(lam) for j in range(v))
        assert kostka(lam, (), (1,) * sum(lam)) * hooks == factorial(sum(lam)), lam


def test_kostka_sums_to_weyl_dimension_when_stretched():
    """For a straight shape ``lam`` of ``n`` parts, the counts summed over every
    composition of ``k |lam|`` into ``n`` parts are ``s_{k lam}(1^n) =
    prod_{i<j} (k (lam_i - lam_j) + j - i) / (j - i)`` (Weyl's dimension
    formula; Stanley, EC2, Cor 7.21.4), for ``k = 1, 2, 3``."""
    for lam in ((2, 1, 0), (4, 2, 1), (2, 2, 1, 0)):
        pairs = list(combinations(range(len(lam)), 2))
        for k in (1, 2, 3):
            scaled = tuple(k * v for v in lam)
            total = sum(kostka(scaled, (), nu) for nu in _compositions(sum(scaled), len(lam)))
            weyl = prod(k * (lam[i] - lam[j]) + j - i for i, j in pairs)
            assert total * prod(j - i for i, j in pairs) == weyl, (lam, k)


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
