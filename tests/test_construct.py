import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stripconcave import (
    BoundarySpec,
    ConvexConfig,
    InfeasibleError,
    InputError,
    InternalError,
    boundary,
    build_trapezoid,
    build_triangular,
    check_general,
    check_trapezoid,
    derivative,
    extend_to_trapezoid,
    integrate,
    mu_general_build,
    reduce_to_triangle,
    restrict_to,
    shift_mu,
    validate_array,
)
from stripconcave import construct, core, feasibility
from stripconcave.core import GTPattern
from stripconcave.construct import _solve_trapezoid
from stripconcave.fixtures import hexagon_array, trapezoid_array

from oracles import (
    feasible_nu_set,
    pattern_nu,
    broken_constraints,
    deficits_definition,
    random_pattern,
    tight_system_rank,
)


def test_triangular_basic():
    x = build_triangular((5, 2, 1), (3, 2, 3))
    assert validate_array(x)
    b = boundary(x)
    assert b.lam == (5, 2, 1) and b.nu == (3, 2, 3) and b.mu == (0, 0, 0)
    # bottom row is the prefix-sum of lam
    assert x.rows[-1] == (0, 5, 7, 8)
    assert x.rows == ((0,), (0, 3), (0, 4, 5), (0, 5, 7, 8))
    h = Fraction(1, 2)
    y = build_triangular((4, 5 * h, 1, 0), (3 * h, 3, 1, 2))
    assert y.rows == (
        (0,), (0, 3 * h), (0, 4, 9 * h), (0, 4, 11 * h, 11 * h), (0, 4, 13 * h, 15 * h, 15 * h)
    )


def test_triangular_long_constant_lambda():
    n = 1200
    x = build_triangular((1,) * n, (1,) * n)
    assert boundary(x) == BoundarySpec((1,) * n, (), (0,) * n, (1,) * n)
    assert all(set(row) == {1} for row in derivative(x).rows[1:])


def test_triangular_integrality_and_vertex():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        lam = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        # random rearrangement-majorized nu: start from lam and move mass down
        nu = list(lam)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if nu[i] > 0:
                nu[i] -= 1
                nu[j] += 1
        if not check_trapezoid(BoundarySpec(lam, (), (0,) * n, tuple(nu)), n, 0).feasible:
            continue
        x = build_triangular(lam, tuple(nu))
        assert validate_array(x)
        assert boundary(x).nu == tuple(nu)
        assert all(isinstance(v, int) for row in x.rows for v in row)
        rank, free = tight_system_rank(derivative(x), fixed_nu=True)
        assert rank == free  # vertex: tight constraints pin the interior


def test_triangular_infeasible_certificate():
    with pytest.raises(InfeasibleError) as exc:
        build_triangular((2, 1), (3, 0))
    assert exc.value.certificate.kind == "subset"
    with pytest.raises(InfeasibleError) as exc:
        build_triangular((2, 1), (1, 1))
    assert exc.value.certificate.kind == "balance"
    # unbalanced and subset-violating: balance is checked first, as in check
    with pytest.raises(InfeasibleError) as exc:
        build_triangular((2, 1), (3, 1))
    assert exc.value.certificate.kind == "balance"


def test_triangular_certificate_is_check_trapezoid_certificate():
    rng = random.Random(11)
    kinds = set()
    for _ in range(1500):
        n = rng.randint(1, 6)
        lam = tuple(sorted((rng.randint(-3, 8) for _ in range(n)), reverse=True))
        nu = tuple(rng.randint(-3, 8) for _ in range(n))
        if rng.random() < 0.5:  # rebalance about half of them
            nu = nu[:-1] + (nu[-1] + sum(lam) - sum(nu),)
        verdict = check_trapezoid(BoundarySpec(lam, (), (0,) * n, nu), n, 0)
        if verdict.feasible:
            assert boundary(build_triangular(lam, nu)).nu == nu
            continue
        with pytest.raises(InfeasibleError) as exc:
            build_triangular(lam, nu)
        assert exc.value.certificate == verdict.certificate
        kinds.add(verdict.certificate.kind)
    assert kinds == {"balance", "subset"}


def test_infeasible_error_names_its_certificate():
    with pytest.raises(InfeasibleError) as exc:
        build_triangular((2, 1), (1, 1))
    assert str(exc.value) == f"infeasible boundary data: {exc.value.certificate}"
    assert "kind='balance'" in str(exc.value)


def test_triangular_rejects_bad_shape():
    # an increasing lambda is infeasible data, decided as build_trapezoid decides it
    with pytest.raises(InfeasibleError) as exc:
        build_triangular((1, 2), (1, 2))
    assert exc.value.certificate.kind == "monotone_lambda"
    with pytest.raises(InputError, match="boundary lengths do not match the configuration"):
        build_triangular((2, 1), (3,))


def _logged_solver(monkeypatch):
    """Wrap the solver's steps; each solve appends a record of its input, its
    lift count, the sub-steps of each replayed lift and its triangle.  A
    forward lift is the one step that bisects, twice: once in ``lam`` and
    once in ``lab``."""
    solve, bisect, lift, triangle = (construct._solve_trapezoid, construct.bisect_right,
                                     construct._lift, construct._triangular_rows)
    runs = []

    def logged_solve(lam, lab, nu):
        runs.append({"args": (lam, lab, nu), "bisects": 0, "substeps": [], "triangle": None})
        return solve(lam, lab, nu)

    def logged_bisect(*args, **kwargs):
        runs[-1]["bisects"] += 1
        return bisect(*args, **kwargs)

    def logged_lift(*args):
        eps, cap = lift(*args), args[5]
        counts = runs[-1]["substeps"]
        if not counts or counts[-1][1]:  # the last lift is done: this one starts a new lift
            counts.append([0, False])
        counts[-1][0] += 1
        counts[-1][1] = eps == cap
        return eps

    def logged_triangle(lam, nu):
        runs[-1]["triangle"] = lam
        return triangle(lam, nu)

    for name, f in (("_solve_trapezoid", logged_solve), ("bisect_right", logged_bisect),
                    ("_lift", logged_lift), ("_triangular_rows", logged_triangle)):
        monkeypatch.setattr(construct, name, f)
    return runs


def test_solver_stays_within_its_proven_bounds(monkeypatch):
    """Every solve takes at most ``N + 2M + 1`` forward passes and at most
    ``1 + n(n + 1)/2`` sub-steps per lift, and its forward phase ends on
    ``reduce_to_triangle(lam, lab)``; on int, Fraction and negative data, and
    on the trapezoid extensions of hexagons."""
    runs = _logged_solver(monkeypatch)
    rng = random.Random(2207)
    for trial in range(400):
        n, m = rng.randint(1, 12), rng.randint(0, 8)
        low = rng.choice((-9, 0))
        p = random_pattern(rng, n, m, low, low + rng.choice((3, 12, 60)))
        d = (1, 2, 3)[trial % 3]
        lam, lab, nu = (tuple(Fraction(v, d) if v % d else v // d for v in t)
                        for t in (p.rows[-1], p.rows[0], pattern_nu(p.rows)))
        assert boundary(build_trapezoid(lam, lab, nu)) == BoundarySpec(lam, lab, (0,) * n, nu)
    for trial in range(150):
        n, m = rng.randint(2, 10), rng.randint(1, 5)
        q = rng.randint(1, n)
        corner = rng.randint(max(1, n - m - q), n - 1)  # a_n = n - corner <= b_n = m + q
        config = ConvexConfig(n, tuple(max(0, i - corner) for i in range(n + 1)),
                              tuple(m + min(i, q) for i in range(n + 1)))
        mu = [Fraction(rng.randint(-6, 6), (1, 2)[trial % 2]) for _ in range(n)]
        x = restrict_to(integrate(random_pattern(rng, n, m, 0, 20), mu), config)
        assert boundary(mu_general_build(config, boundary(x))) == boundary(x)
    kinds = Counter()
    for run in runs:
        lam, lab, nu = run["args"]
        n, m = len(nu), len(lab)
        lifts, odd = divmod(run["bisects"], 2)
        # m column or prepend steps, one pass per lift, and the last pass
        assert not odd and m + lifts + 1 <= len(lam) + 2 * m + 1
        counts = [c for c, done in run["substeps"]]
        assert len(counts) == lifts and all(done for c, done in run["substeps"])
        assert max(counts, default=1) <= 1 + n * (n + 1) // 2
        assert run["triangle"] == reduce_to_triangle(lam, lab), run["args"]
        kinds.update({"negative": min(lam) < 0, "fraction": any(type(v) is Fraction for v in lam),
                      "several substeps": max(counts, default=1) > 1})
    assert len(runs) == 550 and min(kinds.values()) > 50, kinds


def test_exhausted_bounds_raise_internal_error(monkeypatch):
    # a lift that makes no progress runs out its sub-step bound, and a forward
    # phase that makes no progress runs out its pass bound
    lam, lab, nu = (4, 2, 1), (3,), (2, 2)
    assert boundary(build_trapezoid(lam, lab, nu)) == BoundarySpec(lam, lab, (0, 0), nu)
    monkeypatch.setattr(construct, "_lift", lambda *args: 0)
    with pytest.raises(InternalError, match="a lift exceeded its proven sub-step bound"):
        build_trapezoid(lam, lab, nu)
    monkeypatch.undo()
    # every lift finds empty runs at the window's start, and lowers nothing
    monkeypatch.setattr(construct, "bisect_right", lambda row, x, lo, hi, key: lo)
    with pytest.raises(InternalError, match="the forward phase exceeded its proven step bound"):
        build_trapezoid(lam, lab, nu)


def test_long_runs_build_in_linear_time():
    # 100 000 column steps, then 100 000 prepends: a step that copied the
    # tuples left, or inserted at the head of every row, would take a minute
    m = 100_000
    for lam, lab, nu in (((2,) + (1,) * m, (1,) * m, (2,)), ((1,) * m + (0,), (1,) * m, (0,))):
        start = time.perf_counter()
        x = build_trapezoid(lam, lab, nu)
        assert time.perf_counter() - start < 1
        assert boundary(x) == BoundarySpec(lam, lab, (0,), nu)


def test_trapezoid_fixture_boundary():
    s = shift_mu(boundary(trapezoid_array()))
    x = build_trapezoid(s.lam, s.lam_bar, s.nu)
    assert validate_array(x)
    assert boundary(x) == BoundarySpec(s.lam, s.lam_bar, (0, 0, 0), s.nu)
    assert all(isinstance(v, int) for row in x.rows for v in row)


def test_trapezoid_negative_lambda_shift():
    lam = (1, -1, -2)
    bar = (0,)
    nu = (-1, -1)
    assert check_trapezoid(BoundarySpec(lam, bar, (0, 0), nu), 2, 1).feasible
    x = build_trapezoid(lam, bar, nu)
    assert validate_array(x)
    assert boundary(x) == BoundarySpec(lam, bar, (0, 0), nu)


def test_trapezoid_fractional_data():
    lam = (Fraction(5, 2), 1, Fraction(1, 2))
    bar = (2,)
    nu = (Fraction(1, 2), Fraction(3, 2))
    assert check_trapezoid(BoundarySpec(lam, bar, (0, 0), nu), 2, 1).feasible
    x = build_trapezoid(lam, bar, nu)
    assert validate_array(x)
    assert boundary(x) == BoundarySpec(lam, bar, (0, 0), nu)


def test_trapezoid_shift_keeps_int_entries_int():
    # lam has a negative non-integer minimum; the int lam_1 stays an int in
    # the bottom row
    lam, bar, nu = (2, 1, Fraction(-1, 2)), (1,), (1, Fraction(1, 2))
    x = build_trapezoid(lam, bar, nu)
    assert validate_array(x)
    assert boundary(x) == BoundarySpec(lam, bar, (0, 0), nu)
    assert type(x.rows[-1][1]) is int and x.rows[-1][1] == 2


def test_trapezoid_lift_keeps_int_entries_int():
    # on Fraction data, integral entries of the lifted array come back as int
    x = build_trapezoid((2, 1, Fraction(-1, 2)), (1,), (1, Fraction(1, 2)))
    assert x.rows[0] == (0, 1) and type(x.rows[0][1]) is int


def test_solver_witness_is_a_valid_pattern_with_the_boundary():
    """The solver's rows form a pattern that breaks no rhombus inequality,
    with rows ``lab`` and ``lam`` and right boundary ``nu``; on triangles the
    pattern is a vertex of the polytope with ``nu`` fixed, and on int data
    every entry is an ``int``.  Int, Fraction and negative data, with every
    step type; ``tests/golden.json`` pins the bytes of the ``build`` family."""
    rng = random.Random(1515)
    kinds = Counter()
    for trial in range(1800):
        d = 1 if trial < 1200 else rng.choice((2, 3))
        n, m = rng.randint(1, 6), rng.randint(0, 4)
        p = random_pattern(rng, n, m, rng.choice((-4, 0)), rng.choice((2, 6, 20)))
        lam, lab, nu = (
            tuple(Fraction(v, d) if v % d else v // d for v in t)
            for t in (p.rows[-1], p.rows[0], pattern_nu(p.rows))
        )
        got = GTPattern(ConvexConfig.trapezoid(n, m), _solve_trapezoid(lam, lab, nu))
        assert broken_constraints(got) == [], (lam, lab, nu)
        assert (got.rows[-1], got.rows[0], pattern_nu(got.rows)) == (lam, lab, nu)
        if m == 0:
            rank, free = tight_system_rank(got, fixed_nu=True)
            assert rank == free, (lam, nu)
        if d == 1:
            assert all(type(v) is int for row in got.rows for v in row), (lam, lab, nu)
        kinds.update({"triangle": m == 0, "n=1": n == 1, "negative": min(lam) < 0})
    assert min(kinds.values()) > 100, kinds


def test_builds_on_halved_patterns_hold_no_integral_fractions():
    # integrate returns integral entries as int, also among Fraction entries
    def halve(t):
        return tuple(Fraction(v, 2) if v % 2 else v // 2 for v in t)

    rng = random.Random(79)
    for _ in range(200):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(0, 3), -4, 9)
        spec = BoundarySpec(halve(p.rows[-1]), halve(p.rows[0]), (0,) * p.config.n,
                            halve(pattern_nu(p.rows)))
        x = build_trapezoid(spec.lam, spec.lam_bar, spec.nu)
        assert validate_array(x) and boundary(x) == spec
        assert all(type(v) is int for row in x.rows for v in row if v == int(v)), x.rows


def test_trapezoid_matches_oracle_exactly():
    lam = (4, 2, 1)
    bar = (3,)
    for nu in sorted(feasible_nu_set(lam, bar)):
        x = build_trapezoid(lam, bar, nu)
        assert validate_array(x)
        assert boundary(x) == BoundarySpec(lam, bar, (0, 0), nu)


def test_trapezoid_infeasible_raises():
    with pytest.raises(InfeasibleError):
        build_trapezoid((2, 1, 0), (2,), (5, -4))


def test_general_build_hexagon():
    hb = boundary(hexagon_array())
    x = mu_general_build(hexagon_array().config, hb)
    assert validate_array(x)
    assert boundary(x) == hb


def test_builds_check_once_solve_once_integrate_once(monkeypatch):
    calls = Counter()
    modules = (core, feasibility, construct)
    for name in ("extend_to_trapezoid", "check_trapezoid", "check_parallelogram",
                 "_solve_trapezoid", "integrate", "derivative"):
        original = next(getattr(m, name) for m in modules if hasattr(m, name))
        def counted(*args, _f=original, _name=name):
            calls[_name] += 1
            return _f(*args)
        for module in modules:  # every binding, so a call counts whichever module makes it
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    hexagon, trapezoid = hexagon_array(), trapezoid_array()
    parallelogram = BoundarySpec((3, 1), (2, 0), (1, -1), (2, 0))
    hexagon_spec, trapezoid_spec = boundary(hexagon), boundary(trapezoid)
    builds = (
        ("check_trapezoid", hexagon_spec, lambda: mu_general_build(hexagon.config, hexagon_spec)),
        ("check_trapezoid", trapezoid_spec, lambda: mu_general_build(trapezoid.config, trapezoid_spec)),
        ("check_parallelogram", parallelogram,
         lambda: mu_general_build(ConvexConfig.parallelogram(2, 2), parallelogram)),
        ("check_trapezoid", BoundarySpec((6, 4, 3, 1, 1), (5, 2), (0, 0, 0), (3, 2, 3)),
         lambda: build_trapezoid((6, 4, 3, 1, 1), (5, 2), (3, 2, 3))),
    )
    for check, spec, build in builds:
        calls.clear()
        x = build()
        assert calls == {check: 1, "extend_to_trapezoid": 1, "_solve_trapezoid": 1, "integrate": 1}, (
            spec, calls)
        assert validate_array(x) and boundary(x) == spec
    calls.clear()
    with pytest.raises(InfeasibleError):
        mu_general_build(hexagon.config, BoundarySpec((3, 0), (2, 1), (2, -2, 5), (1, -5, 9)))
    assert calls == {"extend_to_trapezoid": 1, "check_trapezoid": 1}
    # a parallelogram verdict is taken on the spec itself, with no extension
    calls.clear()
    assert check_general(ConvexConfig.parallelogram(2, 2), parallelogram).feasible
    assert calls == {"check_parallelogram": 1}
    calls.clear()
    infeasible = BoundarySpec((3, 1), (2, 0), (0, 0), (3, -1))
    with pytest.raises(InfeasibleError):
        mu_general_build(ConvexConfig.parallelogram(2, 2), infeasible)
    assert calls == {"check_parallelogram": 1}


def test_build_counts_the_extension_at_the_budget(monkeypatch):
    # the hexagon's 14 entries are solved on a (3, 2) trapezoid of 18; an
    # infeasible spec keeps its certificate under any budget
    hexagon = hexagon_array()
    spec = boundary(hexagon)
    monkeypatch.setattr(core, "CELLS_MAX", 18)
    assert boundary(mu_general_build(hexagon.config, spec)) == spec
    assert sum(map(len, build_trapezoid((4, 3, 2, 1, 0), (3, 1), (2, 2, 2)).rows)) == 18
    monkeypatch.setattr(core, "CELLS_MAX", 17)
    with pytest.raises(InputError, match="witness array too large: 18 cells, more than 17"):
        mu_general_build(hexagon.config, spec)
    with pytest.raises(InputError, match="witness array too large: 18 cells"):
        build_trapezoid((4, 3, 2, 1, 0), (3, 1), (2, 2, 2))
    monkeypatch.setattr(core, "CELLS_MAX", 0)
    with pytest.raises(InfeasibleError):
        mu_general_build(hexagon.config, BoundarySpec((3, 0), (2, 1), (2, -2, 5), (1, -5, 9)))


def test_parallelogram_builds_equal_builds_on_the_extension():
    # the witness is the one built on the extension, as when the verdict was taken there
    rng = random.Random(1914)
    for trial in range(300):
        n, m = rng.randint(1, 6), rng.randint(0, 4)
        p = random_pattern(rng, n, m, -5, 9)
        mu = [rng.randint(-4, 4) for _ in range(n)]
        if trial % 2:
            p = GTPattern(p.config, [[Fraction(v, 2) for v in row] for row in p.rows])
            mu = [Fraction(u, 3) for u in mu]
        config = ConvexConfig.parallelogram(n, m)
        spec = boundary(restrict_to(integrate(p, mu), config))
        got = mu_general_build(config, spec)
        want = restrict_to(mu_general_build(*extend_to_trapezoid(config, spec)), config)
        assert repr(got) == repr(want), spec
        assert validate_array(got) and boundary(got) == spec


def test_build_trapezoid_refuses_n_0_feasible_or_not():
    # no configuration has an empty top row, as the CLI refuses an empty nu
    assert check_trapezoid(BoundarySpec((2, 1), (2, 1), (), ()), 0, 2).feasible
    assert not check_trapezoid(BoundarySpec((2, 1), (1, 1), (), ()), 0, 2).feasible
    for lam_bar in ((2, 1), (1, 1)):
        with pytest.raises(InputError, match="n >= 1"):
            build_trapezoid((2, 1), lam_bar, ())


def test_build_trapezoid_refuses_a_wrong_lambda_length():
    # the length check is check_general's
    with pytest.raises(InputError, match="boundary lengths do not match the configuration"):
        build_trapezoid((2, 1), (1,), (1, 1))


def test_reduce_to_triangle_refuses_incompatible_shapes():
    with pytest.raises(InputError, match="lambda must be at least as long as lambda_bar"):
        reduce_to_triangle((2,), (2, 1))
    with pytest.raises(InputError, match="incompatible shapes"):
        reduce_to_triangle((3, 1, 0), (2, 2))  # lam_1 = 1 < lam_bar_1 = 2
    with pytest.raises(InputError, match="incompatible shapes"):
        reduce_to_triangle((3, 2, 2), (1,))  # lam_bar_0 = 1 < lam_2 = 2


def test_reduce_to_triangle_worked_example():
    assert reduce_to_triangle((6, 4, 3, 1, 1), (5, 2)) == (5, 2, 1)


def test_reduce_to_triangle_identity_for_triangles():
    for lam in ((3, 1, 0), (5, 5, 2), (0, 0)):
        assert reduce_to_triangle(lam, ()) == lam


def test_reduce_to_triangle_matches_deficit_definition():
    # lam'[1,k] = lam[1,k] - D_k, with D_k by its double sum, compared by
    # value; on int data every entry is an int
    rng = random.Random(3)
    for trial in range(6000):
        n, m = rng.randint(1, 6), rng.randint(0, 4)
        p = random_pattern(rng, n, m, 0, rng.choice((3, 9, 25)))
        lam, bar = p.rows[-1], p.rows[0]
        if trial % 2:
            lam, bar = (tuple(Fraction(v, 3) for v in t) for t in (lam, bar))
        sums = [sum(lam[:k], 0) - d for k, d in enumerate(deficits_definition(lam, bar, n))]
        got = reduce_to_triangle(lam, bar)
        assert got == tuple(b - a for a, b in zip(sums, sums[1:])), (lam, bar)
        if not trial % 2:
            assert all(type(v) is int for v in got), (lam, bar)


def test_reduce_to_triangle_validation():
    with pytest.raises(InputError, match="boundary tuples must be weakly decreasing"):
        reduce_to_triangle((1, 2), ())


def test_reduce_to_triangle_moves_with_a_shift():
    # the deficits do not move with a common shift t of lam and lam_bar, so
    # the triangle moves by t, into negative values too
    rng = random.Random(2323)
    kinds = Counter()
    for trial in range(600):
        n, m = rng.randint(1, 6), rng.randint(0, 4)
        p = random_pattern(rng, n, m, rng.choice((-6, 0)), rng.choice((3, 9, 25)))
        lam, bar = p.rows[-1], p.rows[0]
        t = (1, 3, Fraction(7, 2), 40)[trial % 4]
        got = reduce_to_triangle([v - t for v in lam], [v - t for v in bar])
        assert got == tuple(v - t for v in reduce_to_triangle(lam, bar)), (lam, bar, t)
        kinds[lam[-1] < 0] += 1
    assert min(kinds.values()) > 100, kinds


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_reduce_to_triangle_feasibility_equivalence(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 3)
    # a compatible skew pair: extremes of a random pattern
    p = random_pattern(rng, n, m, 0, 6)
    lam, bar = p.rows[-1], p.rows[0]
    lam_prime = reduce_to_triangle(lam, bar)
    assert len(lam_prime) == n
    assert all(x >= y for x, y in zip(lam_prime, lam_prime[1:]))
    nu = tuple(rng.randint(-2, 7) for _ in range(n))
    spec = BoundarySpec(lam, bar, (0,) * n, nu)
    feasible = check_trapezoid(spec, n, m).feasible
    # feasibility is exactly majorization of nu by the transformed tuple
    if sum(nu) != sum(lam_prime):
        majorized = False
    else:
        srt = sorted(nu, reverse=True)
        majorized = all(
            sum(srt[:k]) <= sum(lam_prime[:k]) for k in range(1, n + 1)
        )
    assert feasible == majorized, (lam, bar, nu, lam_prime)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_build_reproduces_random_feasible_boundaries(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 3)
    p = random_pattern(rng, n, m, 0, 8)
    lam = p.rows[-1]
    bar = p.rows[0]
    nu = pattern_nu(p.rows)
    x = build_trapezoid(lam, bar, nu)
    assert validate_array(x)
    assert boundary(x) == BoundarySpec(lam, bar, (0,) * n, nu)
    assert all(isinstance(v, int) for row in x.rows for v in row)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_build_mixed_int_fraction_data(seed):
    # halving an integer pattern leaves even entries as int and odd ones as Fraction
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = rng.randint(0, 3)
    p = random_pattern(rng, n, m, -4, 9)
    lam, bar, nu = (
        tuple(v // 2 if v % 2 == 0 else Fraction(v, 2) for v in t)
        for t in (p.rows[-1], p.rows[0], pattern_nu(p.rows))
    )
    x = build_trapezoid(lam, bar, nu)
    assert validate_array(x)
    assert boundary(x) == BoundarySpec(lam, bar, (0,) * n, nu)
