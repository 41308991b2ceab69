import copy
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stripconcave import (
    BoundarySpec,
    Certificate,
    ConvexConfig,
    FacetInequality,
    InputError,
    array_from_json,
    array_to_json,
    boundary,
    canonical_json,
    check_general,
    config_from_json,
    config_to_json,
    check_trapezoid,
    deficits,
    derivative,
    extend_to_trapezoid,
    facets,
    integrate,
    pattern_from_json,
    pattern_to_json,
    path_decompose,
    rat,
    rat_to_json,
    restrict_to,
    rough_bound,
    shift_mu,
    spec_from_json,
    spec_to_json,
    validate_array,
    validate_pattern,
)
from oracles import (
    array_cell,
    broken_constraints,
    deficits_definition,
    entrywise_restrict_to,
    random_pattern,
    scan_extend_to_trapezoid,
    scan_is_parallelogram,
    scan_is_trapezoidal,
)
from stripconcave.core import GTPattern, Record, StripConcaveArray
from stripconcave.fixtures import hexagon_array, trapezoid_array
from worked_examples import HEXAGON_PATTERN, SKEW_TABLEAU, TRAPEZOID_FLOW, TRAPEZOID_PATTERN


def test_rat_parsing():
    assert rat(3) == 3 and isinstance(rat(3), int)
    assert rat("7/2") == Fraction(7, 2)
    assert rat("4/2") == 2 and isinstance(rat("4/2"), int)
    assert rat(Fraction(6, 3)) == 2 and isinstance(rat(Fraction(6, 3)), int)
    for bad in (1.5, True, "x", "1/0"):
        with pytest.raises(InputError):
            rat(bad)


def test_rat_json_round_trip():
    for v in (0, -3, Fraction(11, 2), Fraction(-1, 3)):
        assert rat(rat_to_json(v)) == v


def outcome(func, *args) -> str:
    try:
        return repr(func(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# (value, (repr or error of rat(value), of rat_to_json(value))), as before
# fractions was imported on demand; type(True) is bool, not int.  A list, as
# Fraction(3, 2) == 1.5 would share a dict key
RAT_OUTCOMES = [
    (3, ("3", "3")),
    (-7, ("-7", "-7")),
    (True, ("InputError: not a rational: True", "True")),
    (False, ("InputError: not a rational: False", "False")),
    (Fraction(3, 2), ("Fraction(3, 2)", "'3/2'")),
    (Fraction(4, 2), ("2", "2")),
    (Fraction(-6, 3), ("-2", "-2")),
    ("3/4", ("Fraction(3, 4)", "'3/4'")),
    ("6/3", ("2", "'6/3'")),
    (" -2 ", ("-2", "' -2 '")),
    ("x", ("InputError: not a rational: 'x'", "'x'")),
    ("1/0", ("InputError: not a rational: '1/0'", "'1/0'")),
    (1.5, ("InputError: not a rational: 1.5 (floats are not accepted)", "1.5")),
    (2.0, ("InputError: not a rational: 2.0 (floats are not accepted)", "2.0")),
    (None, ("InputError: not a rational: None (floats are not accepted)", "None")),
]


@pytest.mark.parametrize("value, outcomes", RAT_OUTCOMES, ids=[repr(v) for v, _ in RAT_OUTCOMES])
def test_rat_outcomes_are_pinned(value, outcomes):
    assert (outcome(rat, value), outcome(rat_to_json, value)) == outcomes


C11 = ConvexConfig.trapezoid(1, 1)


def array_repr(rows: str) -> str:
    return f"StripConcaveArray(config={C11!r}, rows={rows})"


@pytest.mark.parametrize("rows, mu, expected", [
    (((2,), (3, 1)), None, array_repr("((0, 2), (0, 3, 4))")),
    (((2,), (3, 1)), (1,), array_repr("((0, 2), (1, 4, 5))")),
    (((2,), (3, 1)), (True,), array_repr("((0, 2), (1, 4, 5))")),
    (((True,), (3, False)), None, array_repr("((0, 1), (0, 3, 3))")),
    (((Fraction(1, 2),), (Fraction(3, 2), 1)), None,
     array_repr("((0, Fraction(1, 2)), (0, Fraction(3, 2), Fraction(5, 2)))")),
    (((Fraction(1, 2),), (Fraction(3, 2), 1)), (Fraction(1, 2),),
     array_repr("((0, Fraction(1, 2)), (Fraction(1, 2), 2, 3))")),
    (((1.5,), (3, 1)), None, array_repr("((0, 1.5), (0, 3, 4))")),
    (((2,), (3, 1)), (0.5,), array_repr("((0, 2), (0.5, 3.5, 4.5))")),
    ((("1/2",), (3, 1)), None, "TypeError: unsupported operand type(s) for +: 'int' and 'str'"),
])
def test_integrate_outcomes_are_pinned(rows, mu, expected):
    assert outcome(integrate, GTPattern(C11, rows), mu) == expected


def test_config_shapes():
    t = ConvexConfig.trapezoid(3, 0)
    assert t.is_trapezoidal and t.m == 0
    z = ConvexConfig.trapezoid(3, 2)
    assert z.is_trapezoidal and z.m == 2
    p = ConvexConfig.parallelogram(2, 3)
    assert p.is_parallelogram and not p.is_trapezoidal
    hexagon = hexagon_array().config
    assert not hexagon.is_trapezoidal and not hexagon.is_parallelogram


def test_record_repr_matches_field_order():
    assert repr(ConvexConfig.trapezoid(2, 0)) == "ConvexConfig(n=2, a=(0, 0, 0), b=(0, 1, 2))"
    assert repr(Certificate("subset", (1, 3), Fraction(-1, 2), 2)) == (
        "Certificate(kind='subset', subset=(1, 3), lhs=Fraction(-1, 2), deficit=2)"
    )
    assert repr(BoundarySpec([2, 1], [1], [0], [2])) == (
        "BoundarySpec(lam=(2, 1), lam_bar=(1,), mu=(0,), nu=(2,))"
    )


def test_record_is_immutable_and_slotted():
    config = ConvexConfig.trapezoid(2, 0)
    with pytest.raises(AttributeError):
        config.n = 3
    with pytest.raises(AttributeError):
        del config.a
    with pytest.raises(AttributeError):
        config.extra = 1
    assert not hasattr(config, "__dict__") and config.n == 2


def test_record_equality_and_hash():
    a = BoundarySpec([2, 1], [1], [0], [2])
    b = BoundarySpec((2, 1), (1,), (0,), (2,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != BoundarySpec((2, 1), (1,), (0,), (3,))
    # equal field tuples, different classes
    assert Certificate("horn", (), (), None) != FacetInequality("horn")
    assert FacetInequality("horn") != Certificate("horn", (), (), None)
    assert len({Certificate("horn", (), (), None), FacetInequality("horn")}) == 2


def test_record_pickle_and_copy_round_trip():
    verdict = check_trapezoid(BoundarySpec((2, 1), (), (0, 0), (3, 0)), 2, 0)
    flow = TRAPEZOID_FLOW
    records = [
        hexagon_array().config,
        hexagon_array(),
        HEXAGON_PATTERN,
        boundary(hexagon_array()),
        verdict.certificate,
        verdict,
        flow,
        path_decompose(flow),
        facets(2, 1)[0],
        SKEW_TABLEAU,
    ]
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for record in records:
        for clone in (
            pickle.loads(pickle.dumps(record)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(clone) is type(record)
            assert clone == record and repr(clone) == repr(record)


def test_record_keyword_construction():
    config = ConvexConfig(n=2, a=[0, 0, 0], b=[0, 1, 2])
    assert config == ConvexConfig.trapezoid(2, 0) and config.a == (0, 0, 0)
    assert Certificate(kind="balance", lhs=1) == Certificate("balance", None, 1, None)
    assert FacetInequality("chamber_lambda", j=2).j == 2


def test_config_rejects_non_convex():
    with pytest.raises(InputError):
        ConvexConfig(2, (0, 1, 1), (2, 2, 3))  # a-increment decreases
    with pytest.raises(InputError):
        ConvexConfig(2, (0, 0, 0), (1, 2, 2, 3))  # wrong length
    with pytest.raises(InputError):
        ConvexConfig(1, (1, 1), (2, 2))  # a_0 != 0


@pytest.mark.parametrize(
    "n, a, b",
    [(2, (0, 0, 0), (0, 1, 2.9)), (2, (0, False, 0), (0, True, "2")), (2.0, (0, 0, 0), (0, 1, 2))],
)
def test_config_rejects_non_integer_bounds(n, a, b):
    # int() would truncate 2.9 and read True as 1 and "2" as 2
    with pytest.raises(InputError, match="integer n and integer lists"):
        ConvexConfig(n, a, b)


def test_fixture_boundaries():
    assert boundary(hexagon_array()) == BoundarySpec(
        (3, 0), (2, 1), (2, -2, 5), (1, 0, 4)
    )
    assert boundary(trapezoid_array()) == BoundarySpec(
        (6, 4, 3, 1, 1), (5, 2), (1, -7, -2), (4, -5, 1)
    )


def test_fixture_derivatives():
    assert derivative(trapezoid_array()).rows == TRAPEZOID_PATTERN.rows
    assert derivative(hexagon_array()).rows == HEXAGON_PATTERN.rows


def test_validate_fixtures():
    assert validate_array(hexagon_array())
    assert validate_array(trapezoid_array())
    assert validate_pattern(HEXAGON_PATTERN)
    assert validate_pattern(TRAPEZOID_PATTERN)


def test_validate_rejects_broken_concavity():
    x = trapezoid_array()
    rows = [list(r) for r in x.rows]
    rows[1][1] -= 4
    assert not validate_array(type(x)(x.config, tuple(map(tuple, rows))))


def test_integrate_inverts_derivative():
    x = trapezoid_array()
    spec = boundary(x)
    # integrating the derivative with the original mu recovers x up to the
    # x_00 = 0 normalization, which the fixture already satisfies
    y = integrate(derivative(x), spec.mu)
    assert y.rows == x.rows


def test_derivative_and_integrate_match_their_definitions():
    rng = random.Random(33)
    for k in range(400):
        config = _random_config(rng)
        n, a, b = config.n, config.a, config.b
        rows = [[_draw(rng, k % 2) for _ in range(b[i] - a[i] + 1)] for i in range(n + 1)]
        x = StripConcaveArray(config, rows)
        p = derivative(x)
        assert p.rows == tuple(
            tuple(row[j] - row[j - 1] for j in range(1, len(row))) for row in x.rows
        )
        mu = tuple(_draw(rng, k % 3 == 1) for _ in range(n))
        for left, y in ((mu, integrate(p, mu)), ((0,) * n, integrate(p))):
            for i, row in enumerate(y.rows):
                # x_{i,a_i} = mu_1 + .. + mu_i and x_{ij} = x_{i,j-1} + dx_{ij}
                assert row[0] == sum(left[:i], 0)
                assert all(row[j] == row[j - 1] + p.rows[i][j - 1] for j in range(1, len(row)))
            assert derivative(y) == p


def test_balance_identity():
    for x in (hexagon_array(), trapezoid_array()):
        assert boundary(x).balance() == 0


def test_shift_mu():
    s = shift_mu(boundary(trapezoid_array()))
    assert s.mu == (0, 0, 0)
    assert s.nu == (3, 2, 3)
    assert s.balance() == 0


def test_deficits_worked_example():
    lam, lam_bar = (6, 4, 3, 1, 1), (5, 2)
    d = deficits(lam, lam_bar)
    assert d == (0, 1, 3, 5)
    # column contributions for k=1: lam_bar shifted right by one
    assert _deficit_column(lam, lam_bar, 1, 2) == 1  # max(0, 5 - 4)
    assert _deficit_column(lam, lam_bar, 1, 3) == 0  # max(0, 2 - 3)
    assert d[1] == sum(_deficit_column(lam, lam_bar, 1, j) for j in range(1, 6))


def _deficit_column(lam, lam_bar, k, j):
    """``delta_k(j) = max(0, lam_bar_{j-k} - lam_j)``, zero out of range."""
    if not 1 <= j - k <= len(lam_bar):
        return 0
    return max(0, lam_bar[j - k - 1] - lam[j - 1])


_rationals = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4)
)


@given(
    st.lists(_rationals, min_size=0, max_size=7),
    st.lists(_rationals, min_size=0, max_size=4),
    st.integers(0, 3),
)
def test_deficits_match_definition(lam, lam_bar, extra_n):
    lam = sorted(lam + lam_bar, reverse=True)
    lam_bar = sorted(lam_bar, reverse=True)
    n = len(lam) - len(lam_bar) + extra_n
    d = deficits(lam, lam_bar, n)
    assert len(d) == n + 1
    assert d == deficits_definition(lam, lam_bar, n)


def _draw(rng, frac):
    """An int in -20..20, or with ``frac`` a Fraction with denominator 1..4."""
    return Fraction(rng.randint(-60, 60), rng.randint(1, 4)) if frac else rng.randint(-20, 20)


def test_deficits_agree_with_definition_seeded():
    """Interval sweeps against the double sum: int, Fraction, negative and
    tie-heavy entries (``2`` next to ``Fraction(4, 2)``), ``n`` up to 5
    beyond ``len(lam) - len(lam_bar)``, and ``lam_bar`` that interlaces
    ``lam`` or is drawn on its own.  The stated rule for types: on all-int
    data every deficit is an ``int``."""
    rng = random.Random(20260)
    ties = (2, Fraction(4, 2), 2, Fraction(1, 2), 0, -1, Fraction(-2, 1), -3)
    kinds, interlaced = Counter(), 0

    def draw():
        return rng.choice(ties) if kind == "ties" else _draw(rng, kind == "fraction")

    for _ in range(2000):
        kind = rng.choice(("int", "int", "fraction", "ties"))
        kinds[kind] += 1
        size = rng.randint(0, 60)
        m = rng.randint(0, size)
        n = size - m
        lam = sorted((draw() for _ in range(size)), reverse=True)
        if rng.random() < 0.5:
            # lam_j >= lam_bar_j >= lam_{j+n}: the top row of a pattern on lam
            lam_bar = [rng.choice(lam[t:t + n + 1]) for t in range(m)]
            interlaced += 1
        else:
            lam_bar = [draw() for _ in range(m)]
        lam_bar.sort(reverse=True)
        extra = rng.randint(0, 5)
        d = deficits(lam, lam_bar, n + extra)
        want = deficits_definition(lam, lam_bar, n + extra)
        assert len(d) == len(want) == n + extra + 1
        for got, ref in zip(d, want):
            assert got == ref, (lam, lam_bar, n + extra)
        if kind == "int":
            assert all(type(v) is int for v in d), (lam, lam_bar, d)
    assert 900 < interlaced < 1100 and min(kinds.values()) > 400, (interlaced, kinds)


def test_deficits_monotone_required():
    with pytest.raises(InputError):
        deficits((1, 2), ())


def test_deficits_refuse_a_short_lam():
    with pytest.raises(InputError, match="lambda must be at least as long as lambda_bar"):
        deficits((1,), (2, 1))


def test_integrate_refuses_a_wrong_mu_length():
    with pytest.raises(InputError, match="mu must have length n"):
        integrate(TRAPEZOID_PATTERN, (0, 0))


def _random_config(rng):
    """A random convex configuration: trapezoid, parallelogram or hexagon."""
    while True:
        n, m = rng.randint(1, 6), rng.randint(0, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = tuple(max(0, i - p) for i in range(n + 1))
        b = tuple(m + min(i, q) for i in range(n + 1))
        if all(x <= y for x, y in zip(a, b)):
            return ConvexConfig(n, a, b)


def _pattern_on(rng, config):
    """A valid pattern on ``config``: a random trapezoid pattern, integrated,
    restricted to ``config`` and differentiated again."""
    top = rng.randint(0, 6)
    x = integrate(random_pattern(rng, config.n, config.m, 0, top))
    return derivative(restrict_to(x, config))


def _edge_moves(p):
    """Patterns with one cell moved by +-1, the cell at or next to an end of
    the columns ``lo < j <= hi`` that rows ``i - 1`` and ``i`` share."""
    a, b = p.config.a, p.config.b
    for i in range(1, p.config.n + 1):
        lo, hi = max(a[i], a[i - 1]), min(b[i], b[i - 1])
        for r in (i - 1, i):
            for j in {lo, lo + 1, hi, hi + 1}:
                if a[r] < j <= b[r]:
                    for step in (-1, 1):
                        rows = [list(row) for row in p.rows]
                        rows[r][j - a[r] - 1] += step
                        yield GTPattern(p.config, rows)


def test_validate_pattern_agrees_with_constraints():
    """Row slices against the per-inequality oracle on trapezoids,
    parallelograms and hexagons, valid and with one edge cell moved."""
    rng = random.Random(4417)
    patterns = [HEXAGON_PATTERN, TRAPEZOID_PATTERN]
    for _ in range(150):
        patterns.append(_pattern_on(rng, _random_config(rng)))
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        patterns.append(_pattern_on(rng, ConvexConfig.parallelogram(n, m)))
        patterns.append(_pattern_on(rng, ConvexConfig.trapezoid(n, m)))
    assert {p.config.is_trapezoidal for p in patterns} == {True, False}
    single = 0
    for p in patterns:
        assert validate_pattern(p) and broken_constraints(p) == []
        for q in _edge_moves(p):
            broken = broken_constraints(q)
            assert validate_pattern(q) == (not broken), (q, broken)
            single += len(broken) == 1
    assert single > 1000


def test_validate_array_checks_the_left_step_rhombus():
    # a_1 = a_0 + 1: the lower rhombus dx_{0,1} >= dx_{1,2} reads 6 >= 11
    config = ConvexConfig(3, (0, 1, 2, 3), (1, 2, 3, 3))
    x = StripConcaveArray(config, ((0, 6), (-3, 8), (-5, 6), (-8,)))
    assert not validate_array(x)
    assert not check_general(config, boundary(x)).feasible


def test_validated_arrays_are_feasible():
    """``validate_array(x)`` implies that ``check_general`` finds the boundary
    of ``x`` feasible, on random convex shapes, valid or with one edge cell
    moved, integrated with a random left boundary."""
    rng = random.Random(4421)
    validated = stepped = 0
    for _ in range(150):
        config = _random_config(rng)
        p = _pattern_on(rng, config)
        for q in (p, *_edge_moves(p)):
            x = integrate(q, [rng.randint(-3, 3) for _ in range(config.n)])
            if validate_array(x):
                assert check_general(config, boundary(x)).feasible, x
                validated += 1
                stepped += config.a[-1] > 0
    assert validated > 1000 and stepped > 300


def test_extend_to_trapezoid_hexagon():
    x = hexagon_array()
    spec = boundary(x)
    tconfig, tspec = extend_to_trapezoid(x.config, spec)
    c = rough_bound(spec)
    assert tconfig == ConvexConfig.trapezoid(3, 2)
    # left side: one row with a_i = 0 gap (p = 2), right side: q = 1
    assert tspec.lam == (c, 3, 0, -c, -c)
    assert tspec.mu == (2, -2, 5 - c)
    assert tspec.nu == (1, 0 - c, 4 - c)
    assert tspec.balance() == 0


def test_extend_identity_on_trapezoid():
    x = trapezoid_array()
    spec = boundary(x)
    tconfig, tspec = extend_to_trapezoid(x.config, spec)
    assert tconfig == x.config and tspec == spec


def _shaped_config(rng, shape):
    """A random trapezoid, parallelogram or, for any other ``shape``, a convex
    configuration that is neither."""
    n, m = rng.randint(1, 7), rng.randint(0, 4)
    if shape == "trapezoid":
        return ConvexConfig.trapezoid(n, m)
    if shape == "parallelogram":
        return ConvexConfig.parallelogram(n, m)
    while True:
        config = _random_config(rng)
        if not (scan_is_trapezoidal(config) or scan_is_parallelogram(config)):
            return config


def test_shape_tests_match_the_bound_scans_seeded():
    """The corner tests against the scans of every bound, on every convex
    configuration with n <= 4, b_0 <= 3, and on seeded larger ones."""
    rng = random.Random(2001)
    configs = [ConvexConfig(n, tuple(max(0, i - p) for i in range(n + 1)),
                            tuple(m + min(i, q) for i in range(n + 1)))
               for n in range(1, 5) for m in range(4) for p in range(n + 1)
               for q in range(n + 1) if n - p <= m + q]
    configs += [_random_config(rng) for _ in range(2000)]
    seen = Counter()
    for config in configs:
        got = (config.is_trapezoidal, config.is_parallelogram)
        assert got == (scan_is_trapezoidal(config), scan_is_parallelogram(config)), config
        seen[got] += 1
    assert min(seen.values()) > 50 and len(seen) == 3, seen


def test_extend_to_trapezoid_repr_matches_the_scan_seeded():
    """The closed-form extension against the scan that it replaced, by repr:
    hexagons, parallelograms and trapezoids, int, Fraction and negative
    data, and wrong lengths."""
    rng = random.Random(2002)
    seen = Counter()
    for k in range(3000):
        shape = ("hexagon", "parallelogram", "trapezoid")[k % 3]
        config = _shaped_config(rng, shape)
        data = rng.choice(("int", "fraction", "negative"))
        low = -9 if data == "negative" else 0

        def draw(size):
            return [Fraction(rng.randint(low, 9), rng.choice((1, 2, 3))) if data == "fraction"
                    else rng.randint(low, 9) for _ in range(size)]

        n = config.n
        lengths = [config.b[n] - config.a[n], config.m, n, n]
        if k % 10 == 0:
            i = rng.randrange(4)
            lengths[i] += rng.choice((-1, 1)) if lengths[i] else 1
        spec = BoundarySpec(*map(draw, lengths))
        try:
            want = scan_extend_to_trapezoid(config, spec)
        except InputError as exc:
            with pytest.raises(InputError, match=re.escape(str(exc))):
                extend_to_trapezoid(config, spec)
            seen["error"] += 1
            continue
        got = extend_to_trapezoid(config, spec)
        assert repr(got) == repr(want), (config, spec)
        seen[shape, data] += 1
    assert len(seen) == 10 and min(seen.values()) > 50, seen


def test_boundary_reads_the_row_ends():
    """``mu`` and ``nu`` off the first and last entries of each row against
    ``x_{i,a_i} - x_{i-1,a_{i-1}}`` and ``x_{i,b_i} - x_{i-1,b_{i-1}}``."""
    rng = random.Random(2003)
    for k in range(300):
        config = _random_config(rng)
        x = StripConcaveArray(config, [[Fraction(rng.randint(-9, 9), 2) if k % 2
                                        else rng.randint(-9, 9) for _ in range(b - a + 1)]
                                       for a, b in zip(config.a, config.b)])
        spec = boundary(x)
        for side, bounds in ((spec.mu, config.a), (spec.nu, config.b)):
            want = tuple(array_cell(x, i, bounds[i]) - array_cell(x, i - 1, bounds[i - 1])
                         for i in range(1, config.n + 1))
            assert repr(side) == repr(want)


def test_restrict_to_round_trip():
    x = trapezoid_array()
    sub = ConvexConfig(3, (0, 0, 0, 1), (2, 3, 3, 3))
    y = restrict_to(x, sub)
    assert array_cell(y, 3, 1) == array_cell(x, 3, 1)
    assert len(y.rows[0]) == 3


def test_restrict_to_matches_entrywise_restriction():
    """Row slices against the cell-by-cell oracle: arrays on trapezoids and
    on hexagons restricted to the configurations inside them, errors too."""
    rng = random.Random(4418)
    seen = Counter()
    for k in range(600):
        config = _random_config(rng)
        n, m = config.n, config.m
        big = ConvexConfig.trapezoid(n, m) if k % 3 else _random_config(rng)
        value = (lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))) if k % 2 else (
            lambda: rng.randint(-9, 9))
        x = StripConcaveArray(big, [[value() for _ in range(b - a + 1)]
                                    for a, b in zip(big.a, big.b)])
        for target in (config, big, ConvexConfig.trapezoid(n + 1, m)):
            try:
                want = entrywise_restrict_to(x, target)
            except InputError as exc:
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    restrict_to(x, target)
                continue
            got = restrict_to(x, target)
            assert repr(got) == repr(want)
            assert got is x if target == big else got.config == target
            seen[target == big, target.is_trapezoidal] += 1
    assert min(seen[False, False], seen[True, False], seen[True, True]) > 100, seen


def test_array_json_round_trip():
    for x in (hexagon_array(), trapezoid_array()):
        blob = json.loads(canonical_json(array_to_json(x)))
        assert array_from_json(blob).rows == x.rows
    hexagon = hexagon_array().config
    assert canonical_json(config_to_json(hexagon)) == '{"a":[0,0,0,1],"b":[2,3,3,3],"n":3}'
    # a triangle's pattern row 0 is empty
    triangle = GTPattern(ConvexConfig.trapezoid(2, 0), ((), (Fraction(1, 2),), (2, -1)))
    assert canonical_json(pattern_to_json(triangle)) == (
        '{"config":{"a":[0,0,0],"b":[0,1,2],"n":2},"rows":[[],["1/2"],[2,-1]]}')
    for decode, encode, record in (
        (config_from_json, config_to_json, hexagon),
        (array_from_json, array_to_json, hexagon_array()),
        (pattern_from_json, pattern_to_json, HEXAGON_PATTERN),
        (pattern_from_json, pattern_to_json, triangle),
    ):
        assert decode(json.loads(canonical_json(encode(record)))) == record


def test_bare_rows_json_infer_trapezoid():
    x = trapezoid_array()
    assert array_from_json([list(r) for r in x.rows]).config == x.config
    p = TRAPEZOID_PATTERN
    assert pattern_from_json([list(r) for r in p.rows]) == p
    with pytest.raises(InputError, match="bare array rows must form a trapezoid"):
        array_from_json([[0, 1], [0, 1]])
    with pytest.raises(InputError, match="bare pattern rows must form a trapezoid"):
        pattern_from_json([[1], [1]])
    with pytest.raises(InputError, match="must not be empty"):
        array_from_json([])


@pytest.mark.parametrize("parse", [
    lambda values: spec_from_json({"lambda": values}).lam,
    lambda values: array_from_json([[0, 1], values]).rows[1],
])
def test_int_lists_parse_as_they_are(parse):
    values = [3, 0, -2]
    for bad in (True, 1.5, "x", "1/0"):
        with pytest.raises(InputError):
            parse(values[:1] + [bad] + values[2:])
    got = parse([3, "4/2", -2])
    assert repr(got) == "(3, 2, -2)"
    got = parse(values)
    assert type(got) is tuple and got == tuple(values)
    assert repr(parse([3, "1/2", -2])) == "(3, Fraction(1, 2), -2)"


def test_spec_json_defaults_mu_zero():
    s = spec_from_json({"lambda": [2, 1], "lambda_bar": [], "nu": [1, 2]})
    assert s.mu == (0, 0)
    round_tripped = spec_from_json(spec_to_json(s))
    assert round_tripped == s
    s = BoundarySpec((3, Fraction(1, 2), -1), (Fraction(4, 2),), (-2, Fraction(-3, 4)),
                     (0, Fraction(9, 4)))
    assert canonical_json(spec_to_json(s)) == (
        '{"lambda":[3,"1/2",-1],"lambda_bar":[2],"mu":[-2,"-3/4"],"nu":[0,"9/4"]}')
    assert spec_from_json(json.loads(canonical_json(spec_to_json(s)))) == s


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
)
def test_deficits_nonnegative_and_monotone(lam_raw, bar_raw):
    lam = tuple(sorted(lam_raw, reverse=True))
    bar = tuple(sorted(bar_raw, reverse=True))[: len(lam)]
    n = len(lam) - len(bar)
    d = deficits(lam, bar, n)
    assert all(v >= 0 for v in d)
    # shifting lam_bar further right can only lose weight against larger lam
    assert len(d) == n + 1


@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 6), st.data())
def test_derivative_integrate_inverse(n, m, top, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = random_pattern(rng, n, m, 0, top)
    mu = [data.draw(st.integers(-3, 3)) for _ in range(n)]
    x = integrate(p, mu)
    assert derivative(x).rows == p.rows
    assert boundary(x).mu == tuple(mu)
