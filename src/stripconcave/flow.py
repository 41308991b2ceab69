"""Network-flow view of trapezoidal strip-concave arrays.

Arrays correspond bijectively (and linearly) to nonnegative flows on a
layered acyclic digraph whose layer ``i`` holds nodes ``(i, j)`` for
``j = 0..i+m``.  Edge ``e0_{ij}`` points to ``(i+1, j)`` and ``e1_{ij}`` to
``(i+1, j+1)``.  The flow of an array carries the interlacing slacks of its
row derivative, a Gelfand-Tsetlin pattern.  Vertices of the array polytope
correspond to flows supported on forests.  Swapping two adjacent entries of
the right boundary is the Bender-Knuth involution: one pattern row toggles,
each cell ``v`` to ``lo + hi - v`` within its interlacing interval.
"""
from bisect import bisect_left
from functools import cache
from itertools import accumulate, chain, compress, count, product, repeat
from math import prod
from operator import add, neg, sub

from .core import (
    ConvexConfig,
    GTPattern,
    InputError,
    Record,
    _check_cells,
    _int_text,
    _is_int,
    _rows_from_json,
    _set,
    derivative,
    integrate,
    interlacing_bounds,
    is_weakly_decreasing,
    rat_to_json,
    validate_pattern,
)


class Flow(Record):
    """Nonnegative edge values on the layered digraph of size ``(n, m)``, with
    nodes ``(i, j)`` for ``0 <= i <= n``, ``0 <= j <= i+m``; stored per tail
    row (row ``i`` has ``i+m+1`` slots).  A flow made by :func:`gamma` keeps
    its pattern rows in ``_rows`` (see :func:`_pattern_rows`)."""

    __slots__ = ("n", "m", "e0", "e1", "_rows")

    def __init__(self, n: int, m: int, e0: tuple, e1: tuple):
        if n < 1 or m < 0:
            raise InputError("flow graph needs n >= 1 and m >= 0")
        e0, e1 = tuple(tuple(r) for r in e0), tuple(tuple(r) for r in e1)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "e0", e0)
        _set(self, "e1", e1)
        for name, rows in (("e0", e0), ("e1", e1)):
            if len(rows) != n:
                raise InputError(f"{name} must have n rows")
            for i, row in enumerate(rows):
                if len(row) != i + m + 1:
                    raise InputError(f"{name} row {i} must have {_int_text(i + m + 1)} entries")
        if min(map(min, e0 + e1)) < 0:
            raise InputError("flow values must be nonnegative")


def _slacks(rows, floor=0) -> tuple:
    """Edge values ``(e0, e1)`` of the pattern with rows ``rows`` (tuples).

    ``e0[i] = (lam_1,) + row_i - row_{i+1}`` and
    ``e1[i] = row_{i+1} - (row_i + (floor,))``, taken elementwise: the slacks
    of the interlacing inequalities between rows ``i`` and ``i + 1``, with
    ``lam_1`` and ``floor`` as the bounds outside the rows.  A flow has
    ``floor = 0``; any ``floor <= lam[-1]`` keeps every slack nonnegative.
    """
    head, pairs = rows[-1][:1], tuple(zip(rows, rows[1:]))
    e0 = tuple(tuple(map(sub, head + up, down)) for up, down in pairs)
    e1 = tuple(tuple(map(sub, down, up + (floor,))) for up, down in pairs)
    return e0, e1


def _pattern_rows(g: "Flow") -> tuple:
    """The pattern rows ``row_i = row_{i+1}[:-1] - e1[i]`` up from ``row_n = lam``,
    the ``lam`` of :func:`boundary_of_flow`.

    As :func:`gamma` is a bijection, ``g`` is admissible (every divergence
    is the one the boundary prescribes) exactly when the slacks of these
    rows are ``g`` again; otherwise this raises :class:`InputError`.  A flow
    made by :func:`gamma` is admissible by construction and keeps the rows it
    took the slacks of, equal to these, so they are neither rebuilt nor checked.
    """
    try:
        return g._rows
    except AttributeError:
        rows = [boundary_of_flow(g)[0]]
        for e1 in reversed(g.e1):
            rows.append(tuple(map(sub, rows[-1][:-1], e1)))
        rows = tuple(rows[::-1])
        if _slacks(rows) != (g.e0, g.e1):
            raise InputError("flow is not admissible: its divergences do not match the boundary")
        return rows


def boundary_of_flow(g: "Flow") -> tuple:
    """Recover ``(lam, lam_bar)``: ``lam_j`` is the inflow into bottom-layer
    nodes ``j..n+m`` and ``lam_bar_j`` the outflow from top-layer nodes
    ``j..m``."""
    inflow = [a + b for a, b in zip(g.e0[-1][1:] + (0,), g.e1[-1])]
    outflow = [a + b for a, b in zip(g.e0[0][1:], g.e1[0][1:])]
    return tuple(tuple(accumulate(v[::-1]))[::-1] for v in (inflow, outflow))


def _trapezoid_derivative(x: "StripConcaveArray") -> "GTPattern":
    if not x.config.is_trapezoidal:
        raise InputError("flows are defined on trapezoids; apply extend_to_trapezoid first")
    return derivative(x)


def gamma(x: "StripConcaveArray") -> "Flow":
    """The flow image of a trapezoidal array: the interlacing slacks of its
    row derivative (see :func:`_slacks`).

    In array terms ``g(e0_{ij}) = dx_{ij} - dx_{i+1,j+1}`` and
    ``g(e1_{ij}) = dx_{i+1,j+1} - dx_{i,j+1}`` with the conventions
    ``dx_{i0} = lam_1`` and ``dx_{i,i+m+1} = 0``.
    """
    c, rows = x.config, _trapezoid_derivative(x).rows
    g = Flow(c.n, c.m, *_slacks(rows))
    _set(g, "_rows", rows)
    return g


def gamma_inv(g: "Flow") -> "StripConcaveArray":
    """The array with zero left boundary whose flow image is ``g``.

    The pattern is rebuilt from its slacks up from the ``lam`` that ``g``
    carries; it raises :class:`InputError` unless its slacks are ``g``
    again, that is, unless ``g`` is admissible.
    """
    return integrate(GTPattern(ConvexConfig.trapezoid(g.n, g.m), _pattern_rows(g)))


def nu_of_flow(g: "Flow") -> tuple:
    """Right-boundary differences read off the diagonal edges per layer."""
    return tuple(sum(g.e1[i - 1], 0) for i in range(1, g.n + 1))


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def _join_tiles(row, below, anchored):
    """Each cell of ``row``, placed above ``below``, where its tile meets row
    n, else ``None`` (``anchored`` is the same for ``below``); ``None`` when a
    tile of ``below`` that is not anchored ends under ``row``.

    Cell ``k`` joins the tile of ``below[k]`` or ``below[k+1]`` that it
    equals, and never two tiles: equal neighbours of a row above row n
    share a tile through the cell between them in the row below.
    """
    width = len(row)
    for p, a in enumerate(anchored):
        if a is None and not (p < width and row[p] == below[p] or p and row[p - 1] == below[p]):
            return None
    return [r if r == a or r == b else None for r, a, b in zip(row, anchored, anchored[1:])]


def _support_key(rows, floor) -> list:
    """The positions of the nonzero slacks (:func:`_slacks` with ``floor``)
    of the pattern ``rows``, with the edges ``(i, j, t)`` numbered in that
    order; any increasing numbering of the edges sorts the supports the
    same way."""
    pairs = chain.from_iterable(map(zip, *_slacks(rows, floor)))  # (e0, e1) of each edge (i, j)
    return list(compress(count(), chain.from_iterable(pairs)))


def enumerate_vertices(lam: "Sequence[Rat]", lam_bar: "Sequence[Rat]"):
    """All vertices of the polytope of arrays with fixed lower and upper
    boundaries and zero left boundary.

    With rows 0 (``lam_bar``) and n (``lam``) of the row derivative fixed,
    the pattern polytope is a marked order polytope: a pattern is a vertex
    iff every tile (component of tight interlacing equalities) meets row 0
    or row n.  Every vertex entry is therefore a boundary value, so the
    search fills rows n-1 .. 0 from those values, each cell between its two
    neighbours in the row below and within the bounds ``lam_bar`` implies.
    Each placed row carries its anchored cells, those whose tile meets row
    n (:func:`_join_tiles`); a row under which a tile that is not anchored
    ends is dropped with everything above it, and row 0, whose cells are
    all anchored, completes a vertex.  The search holds one iterator per
    row, so its depth is at most n.

    The number of vertices grows exponentially.  Before it searches, the
    function counts the cells (``i + m`` a row at level ``i``) the search
    would place if it dropped no row, level by level over distinct rows
    (each with the number of partial patterns that reach it, Stanley's
    transfer-matrix method), and raises :class:`InputError` once the count
    passes :data:`core.CELLS_MAX`; the search draws its cells from the count.

    Output is sorted by the support of each vertex's flow: the edges
    ``(i, j, t)`` with a nonzero slack, in ``(i, j, t)`` order
    (:func:`_support_key`).  The search commutes with adding a constant to
    every pattern entry, so data of any sign is searched as given; only the
    flow needs ``lam[-1] >= 0``, and its last ``e1`` slack in each layer is
    read against ``floor = min(0, lam[-1])``, as it would be after a shift
    of ``lam[-1]`` to 0.
    """
    lam, lam_bar = tuple(lam), tuple(lam_bar)
    if not is_weakly_decreasing(lam) or not is_weakly_decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    n, m = len(lam) - len(lam_bar), len(lam_bar)
    if n < 1:
        raise InputError("lambda must be longer than lambda_bar")
    values = sorted(set(lam) | set(lam_bar))
    index = {v: k for k, v in enumerate(values)}

    span = cache(lambda lo, hi: values[index[lo]:index[hi] + 1])  # one list per bound pair

    def cell_values(i, below):
        # every bound is a boundary value, so each cell takes a slice of values
        return list(map(span, *interlacing_bounds(i, below, lam_bar)))

    level, placed = {lam: 1}, 0  # rows of a level -> partial patterns reaching them
    choices = [None] * n
    for i in range(n - 1, -1, -1):
        choices[i] = cells = {below: cell_values(i, below) for below in level}
        placed += (i + m) * sum(ways * prod(map(len, cells[row])) for row, ways in level.items())
        _check_cells(placed, "vertex search")
        if i:
            above = {}
            for below, ways in level.items():
                for row in product(*cells[below]):
                    above[row] = above.get(row, 0) + ways
            level = above

    config = ConvexConfig.trapezoid(n, m)
    rows = [None] * n + [lam]
    anchored = [None] * n + [lam]
    stack = [product(*choices[n - 1][lam])]  # one iterator per row, depth at most n
    found = []
    while stack:
        i = n - len(stack)
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            continue
        tiles = _join_tiles(row, rows[i + 1], anchored[i + 1])
        if tiles is None:
            continue
        rows[i] = row
        if i:
            anchored[i] = tiles
            stack.append(product(*choices[i - 1][row]))
        else:
            found.append(tuple(rows))
    floor = min(0, lam[-1])
    found.sort(key=lambda rows: _support_key(rows, floor))
    return [integrate(GTPattern(config, rows)) for rows in found]


# ---------------------------------------------------------------------------
# zigzag swaps
# ---------------------------------------------------------------------------

def _toggle(rows, layer: int) -> tuple:
    """The pattern ``rows`` with row ``layer`` under the Bender-Knuth toggle.

    Rows ``layer - 1`` and ``layer + 1`` bound each cell of row ``layer`` to
    an interval ``[lo, hi]``; the cell ``v`` becomes ``lo + hi - v``.  This
    exchanges ``nu_layer`` and ``nu_{layer+1}`` and is an involution.
    """
    if not 1 <= layer <= len(rows) - 2:
        raise InputError("swap layer must be between 1 and n-1")
    above, row, below = rows[layer - 1:layer + 2]
    lo = [*map(max, below[1:], above), below[-1]]
    hi = [below[0], *map(min, below[1:-1], above)]
    toggled = tuple(map(sub, map(add, lo, hi), row))
    return rows[:layer] + (toggled,) + rows[layer + 1:]


def swap_flow(g: "Flow", layer: int) -> "Flow":
    """The flow of the pattern of ``g`` after the row toggle of :func:`zigzag_swap`;
    raises :class:`InputError` unless ``g`` is admissible."""
    return Flow(g.n, g.m, *_slacks(_toggle(_pattern_rows(g), layer)))


def _swap_layers(x: "StripConcaveArray", layers) -> "StripConcaveArray":
    """Toggle the pattern rows ``layers`` in turn, exchanging the matching
    entries of ``mu`` as well, and integrate once; refuse ``x_00 != 0``."""
    if x.rows[0][0] != 0:
        raise InputError("swaps need x_00 = 0")
    if not layers:
        return x
    p = _trapezoid_derivative(x)
    if not validate_pattern(p):  # some interlacing slack, a value of gamma(x), is negative
        raise InputError("flow values must be nonnegative")
    left = [row[0] for row in x.rows]
    mu, rows = list(map(sub, left[1:], left)), p.rows
    for layer in layers:
        rows = _toggle(rows, layer)
        mu[layer - 1], mu[layer] = mu[layer], mu[layer - 1]
    return integrate(GTPattern(p.config, rows), mu)


def zigzag_swap(x: "StripConcaveArray", layer: int) -> "StripConcaveArray":
    """Exchange right-boundary entries ``layer`` and ``layer + 1``.

    Toggles row ``layer`` of the row derivative (see :func:`_toggle`), which
    exchanges those entries of ``nu - mu``, and integrates from ``x_00 = 0``
    with the same two entries of the left boundary ``mu`` exchanged, so
    that ``nu`` and ``mu`` are both exchanged.  An involution that preserves
    the lower and upper boundaries and 1/k-integrality for every k; arrays
    with ``x_00 != 0`` raise :class:`InputError`.
    """
    return _swap_layers(x, (layer,))


def permute_nu(x: "StripConcaveArray", pi: "Sequence[int]") -> "StripConcaveArray":
    """Rearrange the right and left boundaries: entry ``k`` of the result's
    ``nu`` and ``mu`` is the original entry ``pi[k-1]``.

    Equal to the composition of :func:`zigzag_swap` along a bubble sort of
    ``pi`` (``x`` itself when ``pi`` is the identity), in one pass: the
    derivative is taken and checked once, the toggles act on one pattern and
    the result is integrated once.  Arrays with ``x_00 != 0`` raise
    :class:`InputError`, the identity included.
    """
    n = x.config.n
    pi = tuple(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise InputError("pi must be a permutation of 1..n")
    current = list(range(1, n + 1))
    layers = []
    for pos in range(n):
        at = current.index(pi[pos])
        while at > pos:
            layers.append(at)  # swaps boundary entries at, at+1
            current[at - 1], current[at] = current[at], current[at - 1]
            at -= 1
    return _swap_layers(x, layers)


# ---------------------------------------------------------------------------
# path decomposition and generators
# ---------------------------------------------------------------------------

flow_to_json = Record.to_json


def flow_from_json(obj) -> "Flow":
    if not isinstance(obj, dict) or not {"n", "m", "e0", "e1"} <= set(obj):
        raise InputError("flow JSON must be an object with keys n, m, e0, e1")
    n, m = obj["n"], obj["m"]
    if not (_is_int(n) and _is_int(m)):
        raise InputError(f"flow needs integer n and m, got n={n!r}, m={m!r}")
    return Flow(n, m, _rows_from_json(obj["e0"]), _rows_from_json(obj["e1"]))


class PathDecomposition(Record):
    """Weighted source-to-sink paths whose indicator sum is the flow."""

    __slots__ = ("paths",)

    def __init__(self, paths: tuple):  # of (node tuple, weight)
        _set(self, "paths", paths)

    def to_json(self) -> list:
        """Each path's own tuple of ``(i, j)`` nodes, which ``json`` writes as arrays."""
        return [
            {"nodes": nodes, "weight": rat_to_json(w)}
            for nodes, w in self.paths
        ]


def path_decompose(g: "Flow") -> "PathDecomposition":
    """Level-set decomposition: one weighted path per distinct pattern value.

    With the distinct entries of the pattern of ``g`` and 0 sorted
    decreasingly as ``v_0 > v_1 > ..``, the path for ``(v_k, v_{k+1})``
    visits on layer ``i`` the node ``(i, #{entries of row i > v_{k+1}})``
    and has weight ``v_k - v_{k+1}``.  Interlacing makes consecutive counts
    differ by 0 or 1, so each is a path, and their generators sum to the
    pattern (Stanley's layer-cake decomposition of a marked order polytope
    point).  Raises :class:`InputError` unless the flow is admissible.
    """
    rows = _pattern_rows(g)
    values = sorted(set(chain.from_iterable(rows)) | {0}, reverse=True)
    _check_cells((len(values) - 1) * len(rows), "path decomposition")
    negated, layers = [tuple(map(neg, row)) for row in rows], range(len(rows))
    return PathDecomposition(tuple(
        (tuple(zip(layers, map(bisect_left, negated, repeat(-lo)))), hi - lo)
        for hi, lo in zip(values, values[1:])
    ))


def generator_array(path: "Sequence[tuple]", m: int) -> "GTPattern":
    """The 0/1 pattern generator attached to a top-to-bottom path.

    Row ``i`` has ones in the first ``p(i)`` slots, where ``(i, p(i))`` is
    the node of the path on layer ``i``; every nonnegative pattern is the
    weighted sum of the generators of any path decomposition of its flow.
    A pattern of more than :data:`core.CELLS_MAX` entries is refused.
    """
    path = [tuple(v) for v in path]
    if not path or path[0][0] != 0:
        raise InputError("path must start on layer 0")
    n = path[-1][0]
    if [v[0] for v in path] != list(range(n + 1)):
        raise InputError("path must visit consecutive layers")
    for (i, j), (_, j2) in zip(path, path[1:]):
        if j2 - j not in (0, 1):
            raise InputError("path steps must follow graph edges")
        if not 0 <= j <= i + m:
            raise InputError("path node out of range")
    if path[-1] == (n, 0):
        raise InputError("path may not end at the leftmost bottom node")
    _check_cells((n + 1) * m + n * (n + 1) // 2, "generator")
    rows = tuple(tuple([1] * j + [0] * (i + m - j)) for i, j in path)
    return GTPattern(ConvexConfig.trapezoid(n, m), rows)
