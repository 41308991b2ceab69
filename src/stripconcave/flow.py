"""Network-flow view of trapezoidal strip-concave arrays.

Arrays correspond bijectively (and linearly) to nonnegative flows on a
layered acyclic digraph whose layer ``i`` holds nodes ``(i, j)`` for
``j = 0..i+m``.  Edge ``e0_{ij}`` points to ``(i+1, j)`` and ``e1_{ij}`` to
``(i+1, j+1)``.  Divergences are prescribed by the boundary tuples; vertices
of the array polytope correspond to flows supported on forests, and swapping
zigzag capacities between adjacent layers exchanges two entries of the right
boundary (the Bender-Knuth involution on integer points).
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Optional, Sequence

from .core import (
    ConvexConfig,
    GTPattern,
    InputError,
    InternalError,
    Rat,
    Record,
    StripConcaveArray,
    _is_int,
    _rows_from_json,
    _set,
    derivative,
    integrate,
    interlacing_bounds,
    is_weakly_decreasing,
    rat_to_json,
)


class FlowGraph(Record):
    """The layered digraph on nodes ``(i, j)``, ``0 <= i <= n``, ``0 <= j <= i+m``."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        _set(self, "n", n)
        _set(self, "m", m)
        if n < 1 or m < 0:
            raise InputError("flow graph needs n >= 1 and m >= 0")

    def nodes(self) -> Iterator[tuple]:
        for i in range(self.n + 1):
            for j in range(i + self.m + 1):
                yield (i, j)


class Flow(Record):
    """Nonnegative edge values, stored per tail row (row ``i`` has ``i+m+1`` slots)."""

    __slots__ = ("graph", "e0", "e1")

    def __init__(self, graph: FlowGraph, e0: tuple, e1: tuple):
        e0, e1 = tuple(tuple(r) for r in e0), tuple(tuple(r) for r in e1)
        _set(self, "graph", graph)
        _set(self, "e0", e0)
        _set(self, "e1", e1)
        g = graph
        for name, rows in (("e0", e0), ("e1", e1)):
            if len(rows) != g.n:
                raise InputError(f"{name} must have n rows")
            for i, row in enumerate(rows):
                if len(row) != i + g.m + 1:
                    raise InputError(f"{name} row {i} must have {i + g.m + 1} entries")
        if any(v < 0 for rows in (e0, e1) for row in rows for v in row):
            raise InputError("flow values must be nonnegative")

    def divergence(self, node: tuple) -> Rat:
        """Inflow minus outflow at a node (void edges count as zero)."""
        i, j = node
        g = self.graph
        total = 0
        if i > 0:
            if j <= (i - 1) + g.m:
                total = total + self.e0[i - 1][j]
            if j >= 1:
                total = total + self.e1[i - 1][j - 1]
        if i < g.n:
            total = total - self.e0[i][j] - self.e1[i][j]
        return total


def boundary_of_flow(g: Flow) -> tuple:
    """Recover ``(lam, lam_bar)`` from the prescribed layer divergences."""
    n, m = g.graph.n, g.graph.m
    lam = [0] * (n + m + 1)  # lam[j] for j = 1..n+m, trailing sentinel 0
    for j in range(n + m, 0, -1):
        lam[j - 1] = lam[j] + g.divergence((n, j))
    lam_bar = [0] * (m + 1)
    for j in range(m, 0, -1):
        lam_bar[j - 1] = lam_bar[j] - g.divergence((0, j))
    return tuple(lam[:-1]), tuple(lam_bar[:-1])


def admissibility_violation(g: Flow, lam: Sequence[Rat], lam_bar: Sequence[Rat]) -> Optional[tuple]:
    """First node whose divergence deviates from the prescription, or None."""
    n, m = g.graph.n, g.graph.m
    if len(lam) != n + m or len(lam_bar) != m:
        raise InputError("boundary lengths do not match the graph")
    lam_ext = [lam[0]] + list(lam) + [0]  # lam_ext[j] = lam_j with lam_0 = lam_1
    bar_ext = [lam[0]] + list(lam_bar) + [0]
    for node in g.graph.nodes():
        i, j = node
        if i == 0 and n > 0:
            want = bar_ext[j + 1] - bar_ext[j]
        elif i == n:
            want = lam_ext[j] - lam_ext[j + 1]
        else:
            want = 0
        if g.divergence(node) != want:
            return node
    return None


def gamma(x: StripConcaveArray) -> Flow:
    """The flow image of a trapezoidal array.

    ``g(e0_{ij}) = dx_{ij} - dx_{i+1,j+1}`` and
    ``g(e1_{ij}) = dx_{i+1,j+1} - dx_{i,j+1}`` with the conventions
    ``dx_{i0} = lam_1`` and ``dx_{i,i+m+1} = 0``.
    """
    c = x.config
    if not c.is_trapezoidal:
        raise InputError("flows are defined on trapezoids; apply extend_to_trapezoid first")
    n, m = c.n, c.m
    p = derivative(x)
    lam1 = p.rows[n][0] if p.rows[n] else 0

    def dx(i, j):
        if j == 0:
            return lam1
        if j > i + m:
            return 0
        return p.rows[i][j - 1]

    e0 = tuple(
        tuple(dx(i, j) - dx(i + 1, j + 1) for j in range(i + m + 1)) for i in range(n)
    )
    e1 = tuple(
        tuple(dx(i + 1, j + 1) - dx(i, j + 1) for j in range(i + m + 1)) for i in range(n)
    )
    return Flow(FlowGraph(n, m), e0, e1)


def gamma_inv(g: Flow, lam: Sequence[Rat]) -> StripConcaveArray:
    """The array with the given lower boundary whose flow image is ``g``.

    The upper boundary implied by the divergences of ``g`` must be
    consistent with ``lam``; the left boundary is normalized to zero.
    """
    n, m = g.graph.n, g.graph.m
    lam = tuple(lam)
    _, lam_bar = boundary_of_flow(g)
    bad = admissibility_violation(g, lam, lam_bar)
    if bad is not None:
        raise InputError(f"flow is not admissible: divergence mismatch at node {bad}")
    rows = [None] * (n + 1)
    rows[n] = list(lam)
    for i in range(n - 1, -1, -1):
        rows[i] = [rows[i + 1][j - 1] - g.e1[i][j - 1] for j in range(1, i + m + 1)]
    pattern = GTPattern(ConvexConfig.trapezoid(n, m), tuple(tuple(r) for r in rows))
    return integrate(pattern)


def nu_of_flow(g: Flow) -> tuple:
    """Right-boundary differences read off the diagonal edges per layer."""
    return tuple(sum(g.e1[i - 1], 0) for i in range(1, g.graph.n + 1))


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def _tiles_anchored(rows) -> bool:
    """True iff every tile meets row 0 or row n.

    A tile is a union-find component of cells joined by tight interlacing
    equalities ``row_i[k] == row_{i-1}[k]`` or ``row_i[k+1] == row_{i-1}[k]``.
    """
    n = len(rows) - 1
    start = [0]  # flat index of each row's first cell
    for row in rows:
        start.append(start[-1] + len(row))
    parent = list(range(start[-1]))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for i in range(1, n + 1):
        above, row, s, t = rows[i - 1], rows[i], start[i - 1], start[i]
        for k, v in enumerate(above):
            if row[k] == v:
                parent[find(t + k)] = find(s + k)
            if row[k + 1] == v:
                parent[find(t + k + 1)] = find(s + k)
    fixed = [*range(start[1]), *range(start[n], start[-1])]
    anchored = {find(c) for c in fixed}
    return all(find(c) in anchored for c in range(start[1], start[n]))


def _flow_support(x: StripConcaveArray) -> tuple:
    """Edges ``(i, j, t)`` carrying positive flow in ``gamma(x)``, sorted."""
    g = gamma(x)
    return tuple(
        (i, j, t)
        for i in range(g.graph.n)
        for j in range(len(g.e0[i]))
        for t in (0, 1)
        if (g.e1 if t else g.e0)[i][j]
    )


VERTEX_SEARCH_MAX = 1_000_000


def enumerate_vertices(lam: Sequence[Rat], lam_bar: Sequence[Rat]):
    """All vertices of the polytope of arrays with fixed lower and upper
    boundaries and zero left boundary.

    With rows 0 (``lam_bar``) and n (``lam``) of the row derivative fixed,
    the pattern polytope is a marked order polytope: a pattern is a vertex
    iff every tile (component of tight interlacing equalities) meets row 0
    or row n.  Every vertex entry is therefore a boundary value, so the
    search fills rows n-1 .. 1 from those values, each cell between its two
    neighbours in the row below and within the bounds ``lam_bar`` implies,
    and keeps the patterns whose row 1 interlaces ``lam_bar`` and whose
    tiles are all anchored.  The search holds one iterator per row, so its
    depth is at most n.  The number of vertices grows exponentially, so the
    search raises :class:`InputError` once it has placed more than
    :data:`VERTEX_SEARCH_MAX` rows.

    Output is sorted by the support of each vertex's flow: the tuple of
    edges ``(i, j, t)`` with positive ``gamma(x)`` value, in ``(i, j, t)``
    order.  A flow needs ``lam[-1] >= 0``, so a negative ``lam[-1]`` is
    first shifted to zero in every pattern entry, and the vertices back.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    if not is_weakly_decreasing(lam) or not is_weakly_decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    n = len(lam) - len(lam_bar)
    m = len(lam_bar)
    if n < 1:
        raise InputError("lambda must be longer than lambda_bar")
    t = max(0, -lam[-1])
    if t:
        lam, lam_bar = tuple(v + t for v in lam), tuple(v + t for v in lam_bar)
    values = sorted(set(lam) | set(lam_bar))
    index = {v: k for k, v in enumerate(values)}

    def row_choices(i, below):
        # every bound is a boundary value, so each cell takes a slice of values
        lo, hi = interlacing_bounds(i, below, lam_bar)
        return product(*[values[index[a]:index[b] + 1] for a, b in zip(lo, hi)])

    config = ConvexConfig.trapezoid(n, m)
    rows = [None] * n + [lam]
    stack = [row_choices(n - 1, lam)]  # one iterator per row, depth at most n
    found = []
    placed = 0
    while stack:
        i = n - len(stack)
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            continue
        placed += 1
        if placed > VERTEX_SEARCH_MAX:
            raise InputError(f"too many vertices: the search passed {VERTEX_SEARCH_MAX} rows")
        if i:
            rows[i] = row
            stack.append(row_choices(i - 1, row))
        else:
            rows[0] = row
            if _tiles_anchored(rows):
                found.append(integrate(GTPattern(config, tuple(rows))))
    found.sort(key=_flow_support)
    if t:
        back = [[[v - t for v in r] for r in derivative(x).rows] for x in found]
        found = [integrate(GTPattern(config, rows)) for rows in back]
    return found


# ---------------------------------------------------------------------------
# zigzag swaps
# ---------------------------------------------------------------------------

def swap_flow(g: Flow, layer: int) -> Flow:
    """Swap the capacities of the paired zigzags around a middle layer."""
    n, m = g.graph.n, g.graph.m
    i = layer
    if not 1 <= i <= n - 1:
        raise InputError("swap layer must be between 1 and n-1")
    e0 = [list(r) for r in g.e0]
    e1 = [list(r) for r in g.e1]
    for j in range(i + m):
        cap_z = min(g.e0[i - 1][j], g.e1[i][j])
        cap_zp = min(g.e1[i - 1][j], g.e0[i][j + 1])
        delta = cap_zp - cap_z
        e0[i - 1][j] += delta
        e1[i][j] += delta
        e1[i - 1][j] -= delta
        e0[i][j + 1] -= delta
    return Flow(g.graph, tuple(tuple(r) for r in e0), tuple(tuple(r) for r in e1))


def zigzag_swap(x: StripConcaveArray, layer: int) -> StripConcaveArray:
    """Exchange right-boundary entries ``layer`` and ``layer + 1``.

    Operates on the flow image and maps back; an involution that preserves
    the lower and upper boundaries and 1/k-integrality for every k.
    """
    g = gamma(x)
    lam, _ = boundary_of_flow(g)
    return gamma_inv(swap_flow(g, layer), lam)


def permute_nu(x: StripConcaveArray, pi: Sequence[int]) -> StripConcaveArray:
    """Rearrange the right boundary: entry ``k`` of the result is the
    original entry ``pi[k-1]``.

    Composed from adjacent swaps along a sorting of ``pi``.
    """
    n = x.config.n
    pi = tuple(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise InputError("pi must be a permutation of 1..n")
    current = list(range(1, n + 1))
    out = x
    for pos in range(n):
        want = pi[pos]
        at = current.index(want)
        while at > pos:
            out = zigzag_swap(out, at)  # swaps boundary entries at, at+1
            current[at - 1], current[at] = current[at], current[at - 1]
            at -= 1
    return out


# ---------------------------------------------------------------------------
# path decomposition and generators
# ---------------------------------------------------------------------------

def flow_to_json(g: Flow) -> dict:
    return {
        "n": g.graph.n,
        "m": g.graph.m,
        "e0": [[rat_to_json(v) for v in row] for row in g.e0],
        "e1": [[rat_to_json(v) for v in row] for row in g.e1],
    }


def flow_from_json(obj) -> Flow:
    if not isinstance(obj, dict) or not {"n", "m", "e0", "e1"} <= set(obj):
        raise InputError("flow JSON must be an object with keys n, m, e0, e1")
    n, m = obj["n"], obj["m"]
    if not (_is_int(n) and _is_int(m)):
        raise InputError(f"flow needs integer n and m, got n={n!r}, m={m!r}")
    return Flow(FlowGraph(n, m), _rows_from_json(obj["e0"]), _rows_from_json(obj["e1"]))


class PathDecomposition(Record):
    """Weighted source-to-sink paths whose indicator sum is the flow."""

    __slots__ = ("paths",)

    def __init__(self, paths: tuple):  # of (node tuple, weight)
        _set(self, "paths", paths)

    def to_json(self) -> list:
        return [
            {"nodes": [list(v) for v in nodes], "weight": rat_to_json(w)}
            for nodes, w in self.paths
        ]


def path_decompose(g: Flow) -> PathDecomposition:
    """Greedy exact decomposition into at most ``|A|`` weighted paths.

    Repeatedly extracts the lexicographically leftmost top-to-bottom path
    through positive edges with the bottleneck weight; requires the flow to
    be conservative at interior nodes.
    """
    n, m = g.graph.n, g.graph.m
    lam, lam_bar = boundary_of_flow(g)
    if admissibility_violation(g, lam, lam_bar) is not None:
        raise InputError("path decomposition needs an admissible flow")
    e0 = [list(r) for r in g.e0]
    e1 = [list(r) for r in g.e1]
    paths = []
    guard = 2 * sum(i + m + 1 for i in range(n)) + 1
    while True:
        guard -= 1
        if guard < 0:
            raise InternalError("path decomposition failed to terminate")
        start = None
        for j in range(m + 1):
            if n > 0 and (e0[0][j] > 0 or e1[0][j] > 0):
                start = (0, j)
                break
        if start is None:
            break
        nodes = [start]
        weight = None
        i, j = start
        while i < n:
            if e0[i][j] > 0:
                step_t, nxt = 0, (i + 1, j)
            elif e1[i][j] > 0:
                step_t, nxt = 1, (i + 1, j + 1)
            else:
                raise InternalError("stuck path: positive inflow without outflow")
            v = (e1 if step_t else e0)[i][j]
            weight = v if weight is None else min(weight, v)
            nodes.append(nxt)
            i, j = nxt
        # subtract the bottleneck along the recorded path
        for (pi, pj), (qi, qj) in zip(nodes, nodes[1:]):
            t = qj - pj
            rows = e1 if t else e0
            rows[pi][pj] -= weight
        paths.append((tuple(nodes), weight))
    return PathDecomposition(tuple(paths))


def generator_array(path: Sequence[tuple], m: int) -> GTPattern:
    """The 0/1 pattern generator attached to a top-to-bottom path.

    Row ``i`` has ones in the first ``p(i)`` slots, where ``(i, p(i))`` is
    the node of the path on layer ``i``; every nonnegative pattern is the
    weighted sum of the generators of any path decomposition of its flow.
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
    rows = []
    for i, j in path:
        rows.append(tuple([1] * j + [0] * (i + m - j)))
    return GTPattern(ConvexConfig.trapezoid(n, m), tuple(rows))
