"""Independent checks of library outputs, written from the definitions.

None of these call the library.  They re-derive what an output must satisfy
from the original input: interlacing and boundaries of arrays, subset
inequalities of certificates, flows of arrays, path sums, tableau contents,
Kostka numbers by brute force and the facet classification count.
"""
from __future__ import annotations

from itertools import product
from math import comb

from gen import array_boundary, deficit, extend, linear_constant, subset_lhs


def is_strip_concave(a, b, rows) -> bool:
    """``x_00 = 0`` and every rhombus inequality of the row derivative holds.

    ``rows[i]`` holds ``x_{i,a_i} .. x_{i,b_i}``; ``dx_{ij} = x_{ij} - x_{i,j-1}``.
    Requires ``dx_{ij} >= dx_{i-1,j}`` and ``dx_{i-1,j} >= dx_{i,j+1}``
    wherever both sides exist.
    """
    n = len(a) - 1
    if len(rows) != n + 1 or a[0] != 0 or rows[0][0] != 0:
        return False
    if any(len(rows[i]) != b[i] - a[i] + 1 for i in range(n + 1)):
        return False
    if any(type(v) is not int for row in rows for v in row):
        return False

    def dx(i, j):
        r = rows[i]
        return r[j - a[i]] - r[j - 1 - a[i]]

    for i in range(1, n + 1):
        for j in range(a[i] + 1, b[i] + 1):
            if not a[i - 1] < j <= b[i - 1]:
                continue
            if dx(i, j) < dx(i - 1, j):
                return False
            if j + 1 <= b[i] and dx(i - 1, j) < dx(i, j + 1):
                return False
    return True


def trapezoid_bounds(n: int, m: int) -> tuple:
    return [0] * (n + 1), [i + m for i in range(n + 1)]


def witness_ok(config: dict, spec: dict, rows) -> bool:
    """The array is strip-concave on ``config`` with boundary ``spec``."""
    a, b = config["a"], config["b"]
    if not is_strip_concave(a, b, rows):
        return False
    got = array_boundary(a, b, rows)
    return all(list(got[k]) == list(spec[k]) for k in ("lam", "lam_bar", "mu", "nu"))


def certificate_ok(shape: str, spec: dict, cert: dict, config: dict = None) -> bool:
    """A subset certificate's inequality fails on the original input.

    On a trapezoid or parallelogram the inequality is re-evaluated and the
    certificate's ``lhs`` and ``deficit`` must equal it.  A general
    configuration has no inequality of its own: its subset indexes the rows
    of the extension to the trapezoid, whose left-hand side reads ``A + B c``
    for every large reduction constant ``c``.  The subset must fail for all
    large ``c`` (``B < 0``, or ``B = 0`` and ``A < 0``), whatever constant
    the library used, so the certificate's ``lhs`` and ``deficit`` are not
    compared there.
    """
    if not isinstance(cert, dict) or cert.get("kind") != "subset":
        return False
    subset = cert.get("I")
    n = len(spec["nu"])
    if not subset or sorted(set(subset)) != subset or not 1 <= subset[0] <= subset[-1] <= n:
        return False
    if config is None:
        lhs, d = subset_lhs(shape, spec, subset)
        return lhs < 0 and cert.get("lhs") == lhs and cert.get("deficit") == d
    return fails_for_large_constant(config, spec, subset)


def fails_for_large_constant(config: dict, spec: dict, subset) -> bool:
    """The subset inequality of the extension fails for every large constant."""
    c = linear_constant(spec)
    low = subset_lhs("trapezoid", extend(config, spec, c), subset)[0]
    high = subset_lhs("trapezoid", extend(config, spec, 2 * c), subset)[0]
    return high < low or (high == low and low < 0)


def pattern_of(rows) -> list:
    return [[r[k] - r[k - 1] for k in range(1, len(r))] for r in rows]


def flow_of(prows, n: int, m: int) -> tuple:
    """Edge values of the flow image of a trapezoid pattern.

    ``e0_{ij} = dx_{ij} - dx_{i+1,j+1}`` and ``e1_{ij} = dx_{i+1,j+1} - dx_{i,j+1}``
    with ``dx_{i0} = lambda_1`` and ``dx_{ij} = 0`` for ``j > i + m``.
    """
    lam1 = prows[n][0] if prows[n] else 0

    def dx(i, j):
        if j == 0:
            return lam1
        if j > i + m:
            return 0
        return prows[i][j - 1]

    e0 = [[dx(i, j) - dx(i + 1, j + 1) for j in range(i + m + 1)] for i in range(n)]
    e1 = [[dx(i + 1, j + 1) - dx(i, j + 1) for j in range(i + m + 1)] for i in range(n)]
    return e0, e1


def paths_sum_to(paths, e0, e1) -> bool:
    """Weighted top-to-bottom paths add up to the flow, with positive weights."""
    acc0 = [[0] * len(r) for r in e0]
    acc1 = [[0] * len(r) for r in e1]
    for nodes, weight in paths:
        if weight <= 0 or nodes[0][0] != 0 or len(nodes) != len(e0) + 1:
            return False
        for (i, j), (i2, j2) in zip(nodes, nodes[1:]):
            if i2 != i + 1 or j2 - j not in (0, 1):
                return False
            (acc1 if j2 - j else acc0)[i][j] += weight
    return acc0 == e0 and acc1 == e1


def tableau_content(rows, n: int) -> list:
    counts = [0] * n
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return counts


def count_tableaux(outer, inner, content) -> int:
    """Semi-standard skew tableaux of shape ``outer / inner`` and given content.

    Cell-by-cell backtracking with remaining content and column strictness.
    """
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    if any(i > o for i, o in zip(inner, outer)) or sum(outer) - sum(inner) != sum(content):
        return 0
    n = len(content)
    remaining = list(content)
    grid = [[0] * o for o in outer]
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    count = 0

    def place(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        lo = 1
        if c > inner[r]:
            lo = grid[r][c - 1]
        if r > 0 and inner[r - 1] <= c < outer[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            if remaining[v - 1]:
                grid[r][c] = v
                remaining[v - 1] -= 1
                place(idx + 1)
                remaining[v - 1] += 1

    place(0)
    return count


def facet_count(n: int, m: int) -> int:
    """Size of the documented facet classification of the ``(n, m)`` trapezoid.

    Horn pairs ``(I, J)`` with ``0 < |I|+|J| < n+m`` and either ``0 < |I| < n``,
    or ``|I| = 0, |J| = 1``, or ``|I| = n, |J| = m - 1``; plus the monotonicity
    steps unless ``n = 1`` or ``(n, m) = (2, 0)``.
    """
    total = 0
    for k in range(n + 1):
        for l in range(m + 1):
            if not 0 < k + l < n + m:
                continue
            if 0 < k < n or (k == 0 and l == 1) or (k == n and l == m - 1):
                total += comb(n, k) * comb(m, l)
    if not (n == 1 or (n == 2 and m == 0)):
        total += (n + m - 1) + max(0, m - 1)
    return total


def facet_formula(n: int, m: int) -> int:
    """The README's closed form: ``(2^n - 2) 2^m + n + 4m - 2``, ``2m`` for n = 1."""
    return 2 * m if n == 1 else (2**n - 2) * 2**m + n + 4 * m - 2


def facets_ok(listing, n: int, m: int) -> bool:
    """A facet listing is duplicate-free, well-formed and classification-sized."""
    seen = set()
    for f in listing:
        if f["kind"] == "horn":
            key = ("horn", tuple(f["I"]), tuple(f["J"]))
            if not set(f["I"]) <= set(range(1, n + 1)) or not set(f["J"]) <= set(range(1, m + 1)):
                return False
        elif f["kind"] in ("chamber_lambda", "chamber_lambda_bar"):
            key = (f["kind"], f["j"])
        else:
            return False
        if key in seen:
            return False
        seen.add(key)
    return len(listing) == facet_count(n, m)


def vertices_ok(vertex_rows, lam, lam_bar) -> bool:
    """Each vertex is a valid integral array with the given rows 0 and n; all distinct."""
    n, m = len(lam) - len(lam_bar), len(lam_bar)
    a, b = trapezoid_bounds(n, m)
    seen = set()
    for rows in vertex_rows:
        if not is_strip_concave(a, b, rows) or any(r[0] != 0 for r in rows):
            return False
        p = pattern_of(rows)
        if p[0] != list(lam_bar) or p[n] != list(lam):
            return False
        key = tuple(tuple(r) for r in rows)
        if key in seen:
            return False
        seen.add(key)
    return bool(vertex_rows)


# ---------------------------------------------------------------------------
# brute-force feasibility for tiny sizes (used by the benchmark's own tests)
# ---------------------------------------------------------------------------

def _interlacing_rows(lower):
    if len(lower) <= 1:
        yield ()
        return
    ranges = [range(lower[j + 1], lower[j] + 1) for j in range(len(lower) - 1)]
    for row in product(*ranges):
        if all(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            yield row


def feasible_nus(lam, lam_bar) -> set:
    """Every ``nu`` (zero left side) reached by an integer pattern."""
    n = len(lam) - len(lam_bar)
    out = set()

    def grow(stack):
        if len(stack) == n + 1:
            if stack[-1] == tuple(lam_bar):
                sums = [sum(r) for r in reversed(stack)]
                out.add(tuple(sums[i] - sums[i - 1] for i in range(1, n + 1)))
            return
        for row in _interlacing_rows(stack[-1]):
            if len(stack) < n or row == tuple(lam_bar):
                grow(stack + [row])

    grow([tuple(lam)])
    return out


def subsets_feasible(lam, lam_bar, mu, nu) -> bool:
    """Trapezoid feasibility by sweeping every row subset with a bitmask."""
    n, m = len(nu), len(lam_bar)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return False
    if any(lam_bar[i] < lam_bar[i + 1] for i in range(m - 1)):
        return False
    if sum(lam) - sum(lam_bar) + sum(mu) - sum(nu) != 0:
        return False
    w = [mu[i] - nu[i] for i in range(n)]
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        k = len(subset)
        if sum(lam[:k]) - deficit(lam, lam_bar, k) + sum(w[i] for i in subset) < 0:
            return False
    return True


def general_feasible(config: dict, spec: dict) -> bool:
    """Feasibility of a general configuration by sweeping every row subset
    of its extension (see :func:`fails_for_large_constant`)."""
    n = len(spec["nu"])
    for mask in range(1, 1 << n):
        subset = [i + 1 for i in range(n) if mask >> i & 1]
        if fails_for_large_constant(config, spec, subset):
            return False
    return True
