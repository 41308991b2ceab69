import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stripconcave import (
    ConvexConfig,
    GTPattern,
    InputError,
    SkewTableau,
    content,
    kostka,
    pattern_to_tableau,
    tableau_to_pattern,
)

from stripconcave import core

from oracles import (
    cellwise_pattern_to_tableau,
    check_skew_tableau,
    enumerate_patterns,
    enumerate_tableaux,
    pattern_nu,
    random_pattern,
)
from worked_examples import SKEW_TABLEAU, TRAPEZOID_PATTERN


def test_fixture_bijection():
    t = pattern_to_tableau(TRAPEZOID_PATTERN)
    assert t == SKEW_TABLEAU
    assert content(t) == (3, 2, 3)
    assert tableau_to_pattern(t).rows == TRAPEZOID_PATTERN.rows


def test_single_cell():
    p = GTPattern(ConvexConfig.trapezoid(1, 0), ((), (1,)))
    t = pattern_to_tableau(p)
    assert t.outer == (1,) and t.inner == () and t.rows == ((1,),)
    assert content(t) == (1,)


def test_empty_tableau_zero_content():
    p = GTPattern(ConvexConfig.trapezoid(2, 0), ((), (0,), (0, 0)))
    t = pattern_to_tableau(p)
    assert t.outer == (0, 0) and all(r == () for r in t.rows)
    assert content(t) == (0, 0)


def test_non_skew_when_inner_empty():
    p = GTPattern(ConvexConfig.trapezoid(3, 0), ((), (2,), (2, 1), (2, 2, 1)))
    t = pattern_to_tableau(p)
    assert t.inner == ()
    assert t.rows == ((1, 1), (2, 3), (3,))


def test_validation_rejects_bad_tableaux():
    with pytest.raises(InputError):
        SkewTableau((2,), (), ((2, 1),))  # row decreasing
    with pytest.raises(InputError):
        SkewTableau((1, 1), (), ((1,), (1,)))  # column not strict
    with pytest.raises(InputError):
        SkewTableau((2, 1), (), ((1, 1),))  # wrong row count
    with pytest.raises(InputError):
        SkewTableau((1,), (2,), ((),))  # inner outside outer
    with pytest.raises(InputError):
        SkewTableau((1,), (), ((5,),))  # entry exceeds n


def test_pattern_preconditions():
    with pytest.raises(InputError, match="shift"):
        pattern_to_tableau(GTPattern(ConvexConfig.trapezoid(1, 0), ((), (-1,))))
    with pytest.raises(InputError, match="integer"):
        from fractions import Fraction

        pattern_to_tableau(
            GTPattern(ConvexConfig.trapezoid(1, 0), ((), (Fraction(1, 2),)))
        )
    with pytest.raises(InputError, match="nested"):
        pattern_to_tableau(
            GTPattern(ConvexConfig.trapezoid(1, 1), ((3,), (2, 1)))
        )
    with pytest.raises(InputError, match="tableaux need an integer pattern"):
        pattern_to_tableau(GTPattern(ConvexConfig.trapezoid(1, 0), ((), (True,))))


def test_pattern_to_tableau_refuses_past_the_cell_cap(monkeypatch):
    # |outer| - |inner| cells, refused before any is made
    p = GTPattern(ConvexConfig.trapezoid(1, 1), ((10**12,), (2 * 10**12, 0)))
    with pytest.raises(InputError, match=f"tableau too large: {10**12} cells, more than {core.CELLS_MAX}"):
        pattern_to_tableau(p)
    monkeypatch.setattr(core, "CELLS_MAX", 1000)
    for inner, outer in ((0, 1001), (5, 1006)):
        p = GTPattern(ConvexConfig.trapezoid(1, 1), ((inner,), (outer, 0)))
        with pytest.raises(InputError, match="tableau too large: 1001 cells, more than 1000"):
            pattern_to_tableau(p)
    t = pattern_to_tableau(GTPattern(ConvexConfig.trapezoid(1, 1), ((5,), (1005, 0))))
    assert content(t) == (1000,)


def test_tableau_to_pattern_counts_the_pattern_at_the_budget(monkeypatch):
    # a one-column tableau of n = 10 cells (m = 0) has a pattern of (n + 1) m + n (n + 1) / 2 = 55 entries
    t = SkewTableau((1,) * 10, (), tuple((v,) for v in range(1, 11)))
    monkeypatch.setattr(core, "CELLS_MAX", 55)
    assert sum(map(len, tableau_to_pattern(t).rows)) == 55
    monkeypatch.setattr(core, "CELLS_MAX", 54)
    with pytest.raises(InputError, match="pattern too large: 55 cells, more than 54"):
        tableau_to_pattern(t)


def test_tableau_to_pattern_staircase():
    t = SkewTableau((2, 1), (), ((1, 1), (2,)))
    assert pattern_to_tableau(tableau_to_pattern(t)) == t
    deep = SkewTableau((2, 1, 1), (), ((1, 1), (2,), (3,)))
    assert tableau_to_pattern(deep).rows == ((), (2,), (2, 1), (2, 1, 1))


def test_counting_matches_direct_enumeration():
    cases = [
        ((2, 1, 0), (), (1, 1, 1)),
        ((3, 1), (1,), (2, 1)),
        ((6, 4, 3, 1, 1), (5, 2), (3, 2, 3)),
        ((2, 2), (1,), (1, 2)),
    ]
    for lam, bar, nu in cases:
        shape_outer = tuple(v for v in lam)
        direct = enumerate_tableaux(shape_outer, bar, nu)
        assert direct == kostka(lam, bar, nu), (lam, bar, nu)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_patterns(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 3)
    p = random_pattern(rng, n, m, 0, 6)
    t = pattern_to_tableau(p)
    assert tableau_to_pattern(t).rows == p.rows
    assert content(t) == pattern_nu(p.rows)


def test_round_trip_all_small_tableaux():
    for rows in enumerate_patterns((3, 2), (1,)):
        p = GTPattern(ConvexConfig.trapezoid(1, 1), rows)
        t = pattern_to_tableau(p)
        assert tableau_to_pattern(t).rows == rows


def test_json_round_trip():
    t = SKEW_TABLEAU
    assert SkewTableau.from_json(t.to_json()) == t
    empty_row = SkewTableau((2, 1), (2,), ((), (1,)))
    assert core.canonical_json(empty_row.to_json()) == '{"inner":[2],"outer":[2,1],"rows":[[],[1]]}'
    assert SkewTableau.from_json(empty_row.to_json()) == empty_row
    with pytest.raises(InputError):
        SkewTableau.from_json({"outer": [1]})


def _outcome(build, *args):
    try:
        return build(*args)
    except InputError as exc:
        return str(exc)


def _fields(t):
    return t.outer, t.inner, t.rows


def test_tableau_checks_match_cellwise_oracle():
    """Row and column slices against the per-cell checks, on tableaux and
    patterns with one cell perturbed; error texts included."""
    rng = random.Random(32)
    errors = set()
    for k in range(2000):
        n, m = rng.randint(1, 4), rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, 6)
        prows = [list(row) for row in p.rows]
        if k % 2:
            i = rng.randint(1, n)
            j = rng.randrange(len(prows[i]))
            prows[i][j] = rng.choice((prows[i][j] + 1, prows[i][j] - 1, -1, Fraction(1, 2), True))
        q = GTPattern(p.config, prows)
        got = _outcome(lambda: _fields(pattern_to_tableau(q)))
        assert got == _outcome(cellwise_pattern_to_tableau, q)
        if isinstance(got, str):
            errors.add(got.split()[0])
        t = pattern_to_tableau(p)
        cells = [(r, c) for r, row in enumerate(t.rows) for c in range(len(row))]
        if not cells:
            continue
        r, c = rng.choice(cells)
        rows = [list(row) for row in t.rows]
        v = rows[r][c]
        rows[r][c] = rng.choice((v + 1, v - 1, 0, n + 1, True, "x", 1.5))
        got = _outcome(lambda: _fields(SkewTableau(t.outer, t.inner, rows)))
        want = _outcome(check_skew_tableau, t.outer, t.inner, rows)
        assert got == want and repr(got) == repr(want)
        if isinstance(got, str):
            errors.add(got.split()[0])
    assert errors == {"tableaux", "pattern", "outer", "entries", "row", "column"}
