import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings, strategies as st

from stripconcave import (
    BoundarySpec,
    ConvexConfig,
    Flow,
    GTPattern,
    InputError,
    StripConcaveArray,
    boundary,
    boundary_of_flow,
    build_trapezoid,
    canonical_json,
    derivative,
    enumerate_vertices,
    flow_from_json,
    flow_to_json,
    gamma,
    gamma_inv,
    generator_array,
    integrate,
    nu_of_flow,
    path_decompose,
    permute_nu,
    swap_flow,
    validate_array,
    validate_pattern,
    zigzag_swap,
)
from stripconcave import core

from oracles import (
    admissibility_violation,
    capacity_swap_flow,
    enumerate_patterns,
    flow_pattern_rows,
    pattern_nu,
    random_pattern,
    tight_system_rank,
    vertex_patterns,
)
from worked_examples import SWAPPED_FLOW, TRAPEZOID_FLOW, TRAPEZOID_PATTERN


def fixture_array():
    return integrate(TRAPEZOID_PATTERN)


def _memo_corpus(seed, count):
    """Seeded arrays with ``x_00 = 0``: integer patterns with entries in 0..6,
    in -5..6, and in -1..6 divided by 1..4, with ``mu`` of each kind."""
    rng = random.Random(seed)
    for t in range(count):
        n, m = rng.randint(1, 4), rng.randint(0, 3)
        p = random_pattern(rng, n, m, low=(0, -5, -1)[t % 3], high=6)
        mu = [rng.randint(-3, 3) for _ in range(n)]
        if t % 3 == 2:
            d = rng.randint(1, 4)
            p = GTPattern(p.config, [[Fraction(v, d) for v in row] for row in p.rows])
            mu = [Fraction(v, rng.randint(1, 3)) for v in mu]
        yield integrate(p, mu)


def _kind(x):
    entries = [v for row in x.rows for v in row]
    return ("fraction" if any(type(v) is Fraction for v in entries)
            else "negative" if min(entries) < 0 else "int")


def test_memos_are_invisible_seeded():
    """A record whose memos are filled (an array's pattern, a pattern's
    verdict, a flow's pattern rows) equals, hashes, prints, writes and
    pickles as a fresh record of the same fields, to the byte."""
    assert Flow._fields == ("n", "m", "e0", "e1") and Flow.__slots__ == Flow._fields + ("_rows",)
    assert StripConcaveArray._fields == GTPattern._fields == ("config", "rows")
    seen = Counter()
    for x in _memo_corpus(3301, 300):
        p = derivative(x)
        assert derivative(x) is p and validate_array(x) is validate_pattern(p) is True
        records = [(x, StripConcaveArray(x.config, x.rows)), (p, GTPattern(p.config, p.rows))]
        try:
            g = gamma(x)
        except InputError:  # a negative slack: the last pattern column dips below 0
            g = None
        if g is not None:
            path_decompose(g)
            records.append((g, Flow(g.n, g.m, g.e0, g.e1)))
        for filled, fresh in records:
            assert filled == fresh and fresh == filled and hash(filled) == hash(fresh)
            assert repr(filled) == repr(fresh)
            assert canonical_json(filled.to_json()) == canonical_json(fresh.to_json())
            assert pickle.dumps(filled) == pickle.dumps(fresh)
            clone = pickle.loads(pickle.dumps(filled))
            assert clone == filled and repr(clone) == repr(filled)
        seen[_kind(x), g is not None] += 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def test_memos_are_exact_seeded():
    """The rows :func:`gamma` keeps on its flow give what the flow's JSON,
    whose rows are rebuilt and checked, gives: equal records and equal JSON,
    and on ``int`` data equal reprs.  (``Fraction`` data may differ in type,
    ``2`` against ``Fraction(2, 1)``, as ``gamma(x)`` and its JSON do.)"""
    seen = Counter()
    for x in _memo_corpus(3302, 300):
        try:
            g = gamma(x)
        except InputError:
            continue
        h = flow_from_json(flow_to_json(g))
        assert h == g and g._rows and not hasattr(h, "_rows")  # h takes the checked path
        for call in (path_decompose, gamma_inv, *(lambda f, k=k: swap_flow(f, k)
                                                  for k in range(1, g.n))):
            kept, rebuilt = call(g), call(h)
            assert kept == rebuilt, x
            assert canonical_json(kept.to_json()) == canonical_json(rebuilt.to_json())
            if _kind(x) != "fraction":
                assert repr(kept) == repr(rebuilt)
        seen[_kind(x)] += 1
    assert min(seen.values()) >= 25 and len(seen) == 3, seen


def test_gamma_fixture():
    g = gamma(fixture_array())
    assert g.e0 == TRAPEZOID_FLOW.e0
    assert g.e1 == TRAPEZOID_FLOW.e1


def test_flow_holds_its_size():
    g = TRAPEZOID_FLOW
    assert Flow._fields == ("n", "m", "e0", "e1") and (g.n, g.m) == (3, 2)
    assert flow_to_json(g) == {"n": 3, "m": 2, "e0": [list(r) for r in g.e0],
                               "e1": [list(r) for r in g.e1]}
    for args, needle in (
        ((0, 1, (), ()), "flow graph needs n >= 1 and m >= 0"),
        ((1, -1, ((),), ((),)), "flow graph needs n >= 1 and m >= 0"),
        ((2, 0, ((0,),), ((0,),)), "e0 must have n rows"),
        ((1, 1, ((0, 0),), ((0,),)), "e1 row 0 must have 2 entries"),
        ((1, 0, ((0,),), ((-1,),)), "flow values must be nonnegative"),
    ):
        with pytest.raises(InputError, match=needle):
            Flow(*args)


def test_gamma_requires_trapezoid():
    config = ConvexConfig(2, (0, 0, 1), (1, 2, 2))
    x = integrate(derivative(integrate(TRAPEZOID_PATTERN)))  # placeholder valid array
    bad = type(x)(config, ((0, 0), (0, 0, 0), (0, 0)))
    with pytest.raises(InputError, match="extend_to_trapezoid"):
        gamma(bad)


def test_gamma_boundary_edges_forced():
    # the leftmost bottom edge carries no flow; the rightmost carries lam_{n+m}
    g = gamma(fixture_array())
    lam, _ = boundary_of_flow(g)
    n, m = g.n, g.m
    assert g.e0[n - 1][0] == 0
    assert g.e1[n - 1][n + m - 1] == lam[n + m - 1]


def test_admissibility_of_gamma_image():
    g = gamma(fixture_array())
    lam, lam_bar = boundary_of_flow(g)
    assert (lam, lam_bar) == ((6, 4, 3, 1, 1), (5, 2))
    assert admissibility_violation(g, lam, lam_bar) is None


def test_gamma_round_trip_fixture():
    x = fixture_array()
    g = gamma(x)
    assert gamma_inv(g).rows == x.rows


def test_gamma_inv_rejects_inadmissible():
    g = TRAPEZOID_FLOW
    bad = Flow(g.n, g.m, g.e0, tuple(
        tuple(v + (i == 0 and j == 0) for j, v in enumerate(row))
        for i, row in enumerate(g.e1)
    ))
    with pytest.raises(InputError, match="divergence"):
        gamma_inv(bad)
    assert admissibility_violation(bad, *boundary_of_flow(bad)) == (0, 0)
    for refuses in (path_decompose, lambda h: swap_flow(h, 2)):
        with pytest.raises(InputError, match="not admissible"):
            refuses(bad)


def test_nu_recovery():
    assert nu_of_flow(TRAPEZOID_FLOW) == (3, 2, 3)
    assert nu_of_flow(SWAPPED_FLOW) == (3, 3, 2)


def test_constant_derivative_flow_support():
    # a constant-derivative array maps to the flow carried entirely by the
    # rightmost diagonal edges, and back
    g = Flow(2, 1, ((0, 0), (0, 0, 0)), ((0, 3), (0, 0, 3)))
    x = gamma_inv(g)
    assert derivative(x).rows == ((3,), (3, 3), (3, 3, 3))
    assert gamma(x) == g
    # the all-zero pattern maps to the zero flow
    zero_pat = ((0,), (0, 0), (0, 0, 0))
    z = gamma(integrate(type(derivative(x))(ConvexConfig.trapezoid(2, 1), zero_pat)))
    assert all(v == 0 for rows in (z.e0, z.e1) for row in rows for v in row)


def test_swap_fixture():
    sw = swap_flow(TRAPEZOID_FLOW, 2)
    assert sw.e0 == SWAPPED_FLOW.e0 and sw.e1 == SWAPPED_FLOW.e1


def test_zigzag_swap_involution_and_nu():
    x = fixture_array()
    for layer in (1, 2):
        y = zigzag_swap(x, layer)
        assert validate_array(y)
        nu = list(boundary(x).nu)
        nu[layer - 1], nu[layer] = nu[layer], nu[layer - 1]
        assert boundary(y).nu == tuple(nu)
        assert boundary(y).lam == boundary(x).lam
        assert boundary(y).lam_bar == boundary(x).lam_bar
        assert zigzag_swap(y, layer).rows == x.rows
    with pytest.raises(InputError):
        zigzag_swap(x, 3)


def test_permute_nu():
    x = fixture_array()
    assert permute_nu(x, (1, 2, 3)).rows == x.rows
    assert permute_nu(x, (2, 1, 3)).rows == zigzag_swap(x, 1).rows
    y = permute_nu(x, (3, 1, 2))
    assert validate_array(y)
    assert boundary(y).nu == (3, 3, 2)
    with pytest.raises(InputError):
        permute_nu(x, (1, 1, 3))


def test_zigzag_swap_keeps_left_boundary():
    x = build_trapezoid((6, 4, 3, 1, 1), (5, 2), (3, 2, 3))
    raised = StripConcaveArray(
        x.config, [[v + 10 * i for v in row] for i, row in enumerate(x.rows)]
    )
    assert boundary(raised).mu == (10, 10, 10) and boundary(raised).nu == (13, 12, 13)
    y = zigzag_swap(raised, 1)
    assert validate_array(y)
    assert boundary(y) == BoundarySpec((6, 4, 3, 1, 1), (5, 2), (10, 10, 10), (12, 13, 13))
    assert zigzag_swap(y, 1) == raised


def test_swaps_refuse_shifted_arrays():
    x = build_trapezoid((6, 4, 3, 1, 1), (5, 2), (3, 2, 3))
    shifted = StripConcaveArray(x.config, [[v + 7 for v in row] for row in x.rows])
    assert not validate_array(shifted)
    for swap in (lambda y: zigzag_swap(y, 1), lambda y: permute_nu(y, (2, 1, 3)),
                 lambda y: permute_nu(y, (1, 2, 3))):  # the identity too
        with pytest.raises(InputError, match="x_00"):
            swap(shifted)


def bubble_swaps(x, pi):
    """``x`` after one :func:`zigzag_swap` per adjacent transposition of a
    bubble sort that brings ``pi`` to the front."""
    current = list(range(1, len(pi) + 1))
    for pos, want in enumerate(pi):
        for at in range(current.index(want), pos, -1):
            x = zigzag_swap(x, at)
            current[at - 1], current[at] = current[at], current[at - 1]
    return x


def test_permute_nu_equals_composed_swaps():
    rng = random.Random(34)
    for k in range(300):
        n, m = rng.randint(1, 5), rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, 7)
        if k % 2:
            p = scaled_pattern(p, rng.choice((2, 3)))
        mu = tuple(rng.randint(-9, 9) for _ in range(n))
        x = integrate(p, mu)
        pi = rng.sample(range(1, n + 1), n)
        y = permute_nu(x, pi)
        assert y == bubble_swaps(x, pi)
        b, c = boundary(x), boundary(y)
        assert c.nu == tuple(b.nu[j - 1] for j in pi)
        assert c.mu == tuple(b.mu[j - 1] for j in pi)
        assert (c.lam, c.lam_bar) == (b.lam, b.lam_bar)
    assert permute_nu(x, range(1, n + 1)) is x


def test_flow_json_round_trip():
    g = TRAPEZOID_FLOW
    assert flow_from_json(flow_to_json(g)) == g
    g = Flow(1, 1, ((Fraction(1, 2), 0),), ((0, 3),))
    assert canonical_json(flow_to_json(g)) == '{"e0":[["1/2",0]],"e1":[[0,3]],"m":1,"n":1}'
    assert flow_from_json(flow_to_json(g)) == g
    with pytest.raises(InputError):
        flow_from_json({"n": 1, "m": 0})


def test_vertices_small_triangle():
    vs = enumerate_vertices((2, 1), ())
    assert len(vs) == 2
    nus = sorted(boundary(v).nu for v in vs)
    assert nus == [(1, 2), (2, 1)]
    assert len(enumerate_vertices((2,), ())) == 1


def test_vertices_long_constant_lambda():
    # one row per search level, so a long boundary does not recurse deeply
    vs = enumerate_vertices((1,) * 60, ())
    assert len(vs) == 1
    assert derivative(vs[0]).rows == tuple((1,) * i for i in range(61))


@pytest.mark.parametrize(
    "lam, bar, shifted",
    [
        ((2, 1, -1), (), (3, 2, 0)),
        ((1, 0, -1), (0,), (2, 1, 0)),
        ((0, -1, -2, -3), (-1, -3), (3, 2, 1, 0)),
    ],
)
def test_vertices_negative_lambda(lam, bar, shifted):
    vs = enumerate_vertices(lam, bar)
    assert len(vs) == {(2, 1, -1): 7, (1, 0, -1): 4, (0, -1, -2, -3): 4}[lam]
    for x in vs:
        assert validate_array(x)
        b = boundary(x)
        assert (b.lam, b.lam_bar) == (lam, bar)
    # lowering the data by t lowers every pattern entry of every vertex by t,
    # in the same order: up to lam[-1] = 0 (t < 0) and further below 0, by
    # int and Fraction t
    patterns = [derivative(x).rows for x in vs]
    for t in (lam[0] - shifted[0], 1, Fraction(7, 2), 40):
        moved = enumerate_vertices(*(tuple(v - t for v in w) for w in (lam, bar)))
        assert [derivative(x).rows for x in moved] == [
            tuple(tuple(v - t for v in row) for row in rows) for rows in patterns
        ], (lam, bar, t)


def test_vertices_staircase_count():
    assert len(enumerate_vertices((6, 5, 4, 3, 2, 1), ())) == 4884


def test_vertices_match_full_rank_patterns():
    # every integer pattern of the shifted and scaled data whose tight system
    # has full rank, in flow-support order, by value, on int, Fraction and
    # negative boundaries; every integral entry of a vertex is an int
    rng = random.Random(1616)
    kinds = Counter()
    for trial in range(240):
        d = 1 if trial < 160 else rng.choice((2, 3))
        n, m = rng.randint(1, 3), rng.randint(0, 3)
        p = random_pattern(rng, n, m, rng.choice((-4, 0)), rng.choice((2, 3, 5)))
        lam, bar = (tuple(Fraction(v, d) if v % d else v // d for v in row)
                    for row in (p.rows[-1], p.rows[0]))
        got = [x.rows for x in enumerate_vertices(lam, bar)]
        want = [tuple(tuple(accumulate(row, initial=0)) for row in rows)
                for rows in vertex_patterns(lam, bar)]
        assert got == want, (lam, bar)
        assert all(type(v) is int or v.denominator > 1 for rows in got for row in rows for v in row)
        kinds.update({"int": d == 1, "negative": lam[-1] < 0, "many": len(got) > 10})
    assert kinds["int"] == 160 and min(kinds.values()) >= 30, kinds


def test_vertex_guard_counts_the_cells_exactly(monkeypatch):
    # (7,..,0)/(6,4,2,0): the search places 13 360 rows of 61 792 cells, so a
    # budget one cell lower refuses it
    lam, bar = tuple(range(7, -1, -1)), (6, 4, 2, 0)
    monkeypatch.setattr(core, "CELLS_MAX", 61_791)
    with pytest.raises(InputError, match="vertex search too large"):
        enumerate_vertices(lam, bar)
    monkeypatch.setattr(core, "CELLS_MAX", 61_792)
    assert len(enumerate_vertices(lam, bar)) == 3696


def flow_support(x):
    g = gamma(x)
    return tuple(
        (i, j, t)
        for i, rows in enumerate(zip(g.e0, g.e1))
        for j in range(len(rows[0]))
        for t in (0, 1)
        if rows[t][j]
    )


@pytest.mark.parametrize(
    "lam, bar",
    [
        ((2, 1, 0), ()),
        ((4, 3, 2, 1, 0), ()),
        ((5, 4, 3, 2, 1), (3, 1)),
        ((3, 2, 2, 1), (2,)),
        ((Fraction(7, 2), Fraction(3, 2), 1, Fraction(1, 3)), (Fraction(5, 2),)),
    ],
)
def test_vertices_sorted_by_flow_support(lam, bar):
    keys = [flow_support(v) for v in enumerate_vertices(lam, bar)]
    assert len(keys) > 1
    assert keys == sorted(set(keys))


def test_vertices_degenerate_equal_lambda():
    vs = enumerate_vertices((2, 2, 2), ())
    assert len(vs) == 1
    assert derivative(vs[0]).rows == ((), (2,), (2, 2), (2, 2, 2))


def test_vertices_are_valid_integral_extreme():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(1, 3)
        m = rng.randint(0, 2)
        p = random_pattern(rng, n, m, 0, 3)
        lam, bar = p.rows[-1], p.rows[0]
        for v in enumerate_vertices(lam, bar):
            assert validate_array(v)
            assert all(isinstance(e, int) for row in v.rows for e in row)
            rank, free = tight_system_rank(derivative(v))
            assert rank == free, (lam, bar, v.rows)


def test_vertices_match_midpoint_elimination():
    for lam, bar in (((3, 1), ()), ((2, 1, 0), ()), ((3, 2), (1,)), ((2, 2, 1), (2,))):
        pts = [rows for rows in enumerate_patterns(lam, bar)]
        pts_set = set(pts)
        extreme = []
        for v in pts:
            flat = [x for row in v for x in row]
            is_mid = False
            for a in pts:
                if a == v:
                    continue
                b = tuple(
                    tuple(2 * x - y for x, y in zip(rv, ra))
                    for rv, ra in zip(v, a)
                )
                if b != a and b in pts_set:
                    is_mid = True
                    break
            if not is_mid:
                extreme.append(v)
        got = sorted(derivative(v).rows for v in enumerate_vertices(lam, bar))
        assert got == sorted(extreme), (lam, bar)


def test_path_decompose_fixture_recomposes():
    g = gamma(fixture_array())
    pd = path_decompose(g)
    acc0 = [[0] * (i + 3) for i in range(3)]
    acc1 = [[0] * (i + 3) for i in range(3)]
    for nodes, w in pd.paths:
        assert w > 0
        for (pi, pj), (qi, qj) in zip(nodes, nodes[1:]):
            (acc1 if qj - pj else acc0)[pi][pj] += w
    assert tuple(map(tuple, acc0)) == g.e0
    assert tuple(map(tuple, acc1)) == g.e1


def test_path_decomposition_json_keeps_its_node_tuples():
    pd = path_decompose(gamma(fixture_array()))
    out = pd.to_json()
    assert [p["nodes"] for p in out] == [nodes for nodes, _ in pd.paths]
    as_lists = [{"nodes": [list(v) for v in nodes], "weight": w} for nodes, w in pd.paths]
    assert canonical_json(out) == canonical_json(as_lists)


def test_path_decompose_counts_its_nodes_at_the_budget(monkeypatch):
    # the fixture's pattern has 6 distinct nonzero values: 6 paths of 4 nodes
    g = gamma(fixture_array())
    monkeypatch.setattr(core, "CELLS_MAX", 24)
    assert sum(len(nodes) for nodes, _ in path_decompose(g).paths) == 24
    monkeypatch.setattr(core, "CELLS_MAX", 23)
    with pytest.raises(InputError, match="path decomposition too large: 24 cells, more than 23"):
        path_decompose(g)


def test_path_decompose_zero_flow_empty():
    zero = Flow(2, 0, ((0,), (0, 0)), ((0,), (0, 0)))
    assert path_decompose(zero).paths == ()


def test_path_decompose_follows_the_pattern_levels():
    """Level sets against their definition on int, Fraction and mixed flows,
    some perturbed off admissibility: one path per gap between consecutive
    distinct values of the pattern and 0, from the largest down, weighted by
    that gap; each path follows edges from layer 0 to layer n, and the
    weighted edge indicators sum to the flow.  An inadmissible flow is
    refused with the text below; on int flows every weight is an int."""
    rng = random.Random(31)
    kinds = Counter()
    for k in range(2400):
        n, m = rng.randint(1, 5), rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, rng.choice((1, 3, 9)))
        if k % 3:
            p = scaled_pattern(p, rng.choice((2, 3, 6)))
        if k % 3 == 2:  # mixed: integral entries as int
            p = GTPattern(p.config, [[int(v) if v.denominator == 1 else v for v in row]
                                     for row in p.rows])
        g = gamma(integrate(p))
        if k % 5 == 0:
            e = [[list(r) for r in g.e0], [list(r) for r in g.e1]]
            i = rng.randrange(n)
            e[k % 2][i][rng.randrange(i + m + 1)] += 1
            g = Flow(g.n, g.m, *e)
        try:
            rows = flow_pattern_rows(g)
        except InputError as exc:
            assert str(exc) == "flow is not admissible: its divergences do not match the boundary"
            with pytest.raises(InputError) as refused:
                path_decompose(g)
            assert str(refused.value) == str(exc)
            kinds["error"] += 1
            continue
        paths = path_decompose(g).paths
        values = sorted(set(chain.from_iterable(rows)) | {0}, reverse=True)
        assert [w for _, w in paths] == [hi - lo for hi, lo in zip(values, values[1:])]
        total = [[[0] * len(row) for row in e] for e in (g.e0, g.e1)]
        for nodes, w in paths:
            assert [i for i, _ in nodes] == list(range(n + 1))
            for (i, j), (_, below) in zip(nodes, nodes[1:]):
                assert 0 <= j <= i + m and below - j in (0, 1), nodes
                total[below - j][i][j] += w
        assert total == [[list(row) for row in e] for e in (g.e0, g.e1)]
        if k % 3 == 0:
            assert all(type(w) is int for _, w in paths)
        kinds["paths"] += 1
    assert min(kinds.values()) > 100, kinds


def test_generator_array_shapes():
    y = generator_array([(0, 0), (1, 0), (2, 1)], 0)
    assert y.rows == ((), (0,), (1, 0))
    with pytest.raises(InputError):
        generator_array([(0, 0), (1, 0), (2, 0)], 0)  # ends at leftmost node
    with pytest.raises(InputError):
        generator_array([(0, 0), (2, 1)], 0)  # skips a layer
    with pytest.raises(InputError, match="path must start on layer 0"):
        generator_array([(1, 0), (2, 1)], 0)
    with pytest.raises(InputError, match="path steps must follow graph edges"):
        generator_array([(0, 0), (1, 0), (2, 2)], 0)
    with pytest.raises(InputError, match="path node out of range"):
        generator_array([(0, 2), (1, 2), (2, 3)], 1)


def test_generator_array_counts_its_pattern_at_the_budget(monkeypatch):
    path = [(0, 0), (1, 1), (2, 2), (3, 2)]  # n = 3, m = 1: 4 + 6 entries
    monkeypatch.setattr(core, "CELLS_MAX", 10)
    assert sum(map(len, generator_array(path, 1).rows)) == 10
    monkeypatch.setattr(core, "CELLS_MAX", 9)
    with pytest.raises(InputError, match="generator too large: 10 cells, more than 9"):
        generator_array(path, 1)


def test_generator_identity_fixture():
    pat = TRAPEZOID_PATTERN
    g = gamma(integrate(pat))
    total = [[0] * len(r) for r in pat.rows]
    for nodes, w in path_decompose(g).paths:
        y = generator_array(nodes, 2)
        for i, row in enumerate(y.rows):
            for j, v in enumerate(row):
                total[i][j] += w * v
    assert tuple(map(tuple, total)) == pat.rows


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_gamma_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 3)
    p = random_pattern(rng, n, m, 0, 7)
    x = integrate(p)
    g = gamma(x)
    lam, lam_bar = boundary_of_flow(g)
    assert lam == p.rows[-1] and lam_bar == p.rows[0]
    assert admissibility_violation(g, lam, lam_bar) is None
    assert nu_of_flow(g) == pattern_nu(p.rows)
    assert gamma_inv(g).rows == x.rows


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_swap_properties_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    m = rng.randint(0, 2)
    x = integrate(random_pattern(rng, n, m, 0, 6))
    layer = rng.randint(1, n - 1)
    y = zigzag_swap(x, layer)
    assert validate_array(y)
    nu = list(boundary(x).nu)
    nu[layer - 1], nu[layer] = nu[layer], nu[layer - 1]
    assert boundary(y).nu == tuple(nu)
    assert zigzag_swap(y, layer).rows == x.rows


def scaled_pattern(p, d):
    return GTPattern(p.config, tuple(tuple(Fraction(v, d) for v in row) for row in p.rows))


def test_swap_flow_matches_capacity_exchange():
    rng = random.Random(21)
    compared = 0
    for k in range(1000):
        n = rng.randint(2, 5)
        m = rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, 7)
        if k % 2:
            p = scaled_pattern(p, rng.choice((2, 3, 6)))
        g = gamma(integrate(p))
        for layer in range(1, n):
            assert swap_flow(g, layer) == capacity_swap_flow(g, layer)
            compared += 1
    assert compared >= 2000


def test_gamma_inv_rejects_what_the_divergence_oracle_rejects():
    rng = random.Random(22)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        p = random_pattern(rng, n, m, 0, 5)
        g = gamma(integrate(p))
        e = [[list(r) for r in g.e0], [list(r) for r in g.e1]]
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(n)
            j = rng.randrange(i + m + 1)
            if rng.random() < 0.4 and i and j < i + m:
                # a capacity exchange between two zigzags keeps every divergence
                delta = rng.choice((-1, 1))
                e[0][i - 1][j] += delta
                e[1][i][j] += delta
                e[1][i - 1][j] -= delta
                e[0][i][j + 1] -= delta
            else:
                e[rng.randint(0, 1)][i][j] += rng.choice((-1, 1))
        if any(v < 0 for rows in e for row in rows for v in row):
            continue
        h = Flow(g.n, g.m, *e)
        admissible = admissibility_violation(h, *boundary_of_flow(h)) is None
        try:
            x = gamma_inv(h)
        except InputError as exc:
            assert not admissible and "divergence" in str(exc)
        else:
            assert admissible and gamma(x) == h
        outcomes.add(admissible)
    assert outcomes == {True, False}


def test_zigzag_swap_negative_entries():
    rng = random.Random(23)
    negative = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        m = rng.randint(0, 2)
        x = integrate(random_pattern(rng, n, m, -6, 6))
        negative += derivative(x).rows[-1][-1] < 0  # no flow: gamma(x) refuses x
        layer = rng.randint(1, n - 1)
        y = zigzag_swap(x, layer)
        assert validate_array(y)
        nu = list(boundary(x).nu)
        nu[layer - 1], nu[layer] = nu[layer], nu[layer - 1]
        assert boundary(y).nu == tuple(nu)
        assert zigzag_swap(y, layer) == x
        # the swap commutes with a shift of every pattern entry (+6 makes them all >= 0)
        shifted = [[v + 6 for v in row] for row in derivative(x).rows]
        z = derivative(zigzag_swap(integrate(GTPattern(x.config, shifted)), layer))
        assert integrate(GTPattern(x.config, [[v - 6 for v in row] for row in z.rows])) == y
    assert negative > 100
