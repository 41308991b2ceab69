"""Independent oracles used to validate the library.

Everything here is deliberately naive.  Each oracle checks the library
against one of two things:

- a definition: :func:`definition_feasible` decides a boundary by an exact
  LP (:func:`lp_point`) over the array entries and the rhombus inequalities
  themselves; brute force lists every integer pattern
  (:func:`enumerate_patterns`) or skew tableau (:func:`enumerate_tableaux`);
  :func:`tight_system_rank` tells a vertex by the rank of its tight
  inequalities; :func:`determinant` evaluates the Jacobi-Trudi count of
  tableaux; and the rest read a definition cell by cell: flow slacks and
  admissibility, the zigzag exchange (:func:`capacity_swap_flow`), the
  tableau of a pattern and its checks (:func:`cellwise_pattern_to_tableau`),
  the shape of a configuration (:func:`scan_is_trapezoidal`,
  :func:`scan_is_parallelogram`), restriction and deficits by their sums;
- the paper's theorem: the subset inequalities swept by bitmask
  (:func:`exhaustive_feasible`), the extension to a trapezoid in the limit
  of a large constant (:func:`general_feasible_oracle`), and the
  certificate checker (:func:`verify_certificate`).

The golden bytes (``tests/golden.json``) are the third check, of output.

The oracles share the library's records and errors and import nothing else
from ``stripconcave``: they call none of its functions, so a fault in one of
the library's helpers cannot reach both sides of a comparison.
``tests/test_hygiene.py`` checks this rule, and that every oracle is read.
"""
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from math import lcm

from stripconcave import (
    BoundarySpec,
    ConvexConfig,
    Flow,
    GTPattern,
    InputError,
    StripConcaveArray,
)


# ---------------------------------------------------------------------------
# helpers, written from their definitions
# ---------------------------------------------------------------------------

def is_int(value):
    """An integer JSON value: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def decreasing(seq):
    """True iff ``seq`` is weakly decreasing."""
    return all(seq[k] >= seq[k + 1] for k in range(len(seq) - 1))


def pattern_slacks(rows):
    """Edge values ``(e0, e1)`` of a pattern with rows ``0..n``: the slacks
    ``e0[i][j] = row_i[j - 1] - row_{i+1}[j]`` and ``e1[i][j] = row_{i+1}[j] -
    row_i[j]`` of the interlacing inequalities, where ``row_i[-1]`` reads as
    ``lam_1`` and ``row_i[i + m]`` as 0."""
    e0, e1 = [], []
    for up, down in zip(rows, rows[1:]):
        e0.append(tuple((up[j - 1] if j else rows[-1][0]) - down[j] for j in range(len(down))))
        e1.append(tuple(down[j] - (up[j] if j < len(up) else 0) for j in range(len(down))))
    return tuple(e0), tuple(e1)


def flow_pattern_rows(g):
    """The pattern of a flow: row ``n`` is ``lam``, ``lam_j`` the inflow into
    the bottom-layer nodes ``j..n+m``, and row ``i`` is row ``i + 1`` without
    its last entry, minus ``e1[i]``.  Raises :class:`InputError` unless the
    slacks of these rows are ``g`` again, that is, unless ``g`` is admissible."""
    inflow = [divergence(g, (g.n, j)) for j in range(1, g.n + g.m + 1)]
    rows = [tuple(accumulate(reversed(inflow)))[::-1]]
    for i in range(g.n - 1, -1, -1):
        rows.append(tuple(v - e for v, e in zip(rows[-1][:-1], g.e1[i])))
    rows = tuple(rows[::-1])
    if pattern_slacks(rows) != (g.e0, g.e1):
        raise InputError("flow is not admissible: its divergences do not match the boundary")
    return rows


def pattern_constraints(config):
    """Yield the rhombus-inequality instances for a configuration.

    Each item is ``("upper", i, j)`` meaning ``dx_{ij} >= dx_{i-1,j}`` or
    ``("lower", i, j)`` meaning ``dx_{i-1,j} >= dx_{i,j+1}``, wherever every
    cell named exists.  Where the left side steps (``a_i = a_{i-1} + 1``),
    this includes the lower rhombus at ``j = a_i``.
    """
    a, b = config.a, config.b
    for i in range(1, config.n + 1):
        for j in range(a[i], b[i] + 1):
            if a[i - 1] + 1 <= j <= b[i - 1]:
                if j > a[i]:
                    yield ("upper", i, j)
                if j < b[i]:
                    yield ("lower", i, j)


def array_cell(x, i, j):
    """Entry ``x_{ij}`` of an array: row ``i`` starts at column ``a_i``."""
    return x.rows[i][j - x.config.a[i]]


def pattern_cell(p, i, j):
    """Entry ``dx_{ij}`` of a pattern: row ``i`` starts at column ``a_i + 1``."""
    return p.rows[i][j - p.config.a[i] - 1]


def entrywise_restrict_to(x, config):
    """``restrict_to`` cell by cell: entry ``(i, j)`` of the restriction is
    ``x_{ij}`` for ``a_i <= j <= b_i`` of the smaller configuration."""
    big = x.config
    if big.n != config.n:
        raise InputError("restriction requires equal row counts")
    for i in range(config.n + 1):
        if config.a[i] < big.a[i] or config.b[i] > big.b[i]:
            raise InputError("target configuration is not contained in the source")
    rows = tuple(
        tuple(array_cell(x, i, j) for j in range(config.a[i], config.b[i] + 1))
        for i in range(config.n + 1)
    )
    return StripConcaveArray(config, rows)


def interlacing_rows(lower):
    """All integer rows one shorter than ``lower`` interlacing it."""
    if len(lower) <= 1:
        yield ()
        return
    ranges = []
    for j in range(len(lower) - 1):
        lo, hi = lower[j + 1], lower[j]
        if lo > hi:
            return
        ranges.append(range(lo, hi + 1))
    for row in product(*ranges):
        if all(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            yield row


def enumerate_patterns(lam, lam_bar):
    """All integer patterns with bottom row ``lam`` and top row ``lam_bar``.

    Yields full row tuples (row 0 first).  The top row must be reached
    exactly; rows strictly between are free.
    """
    n = len(lam) - len(lam_bar)

    def grow(stack):
        if len(stack) == n + 1:
            if stack[-1] == tuple(lam_bar):
                yield tuple(reversed(stack))
            return
        for row in interlacing_rows(stack[-1]):
            ok = len(stack) < n or row == tuple(lam_bar)
            if ok:
                yield from grow(stack + [row])

    yield from grow([tuple(lam)])


def pattern_nu(rows):
    """Right-boundary increments of a pattern integrated with zero left side."""
    sums = [sum(r) for r in rows]
    return tuple(sums[i] - sums[i - 1] for i in range(1, len(rows)))


def feasible_nu_set(lam, lam_bar):
    """Every ``nu`` achieved by some integer pattern with the given extremes."""
    return {pattern_nu(rows) for rows in enumerate_patterns(lam, lam_bar)}


def random_pattern(rng, n, m, low=0, high=10):
    """A uniform-ish random integer pattern on the (n, m) trapezoid.

    The top row is a random weakly decreasing tuple; each following row
    interlaces the one above it, the new leftmost entry growing by at most
    ``high - low``.
    """
    top = sorted((rng.randint(low, high) for _ in range(m)), reverse=True)
    rows = [tuple(top)]
    for i in range(n):
        prev = rows[-1]
        first = rng.randint(prev[0] if prev else low, high)
        row = [first]
        for j in range(len(prev)):
            lo = prev[j + 1] if j + 1 < len(prev) else min(low, prev[j])
            row.append(rng.randint(min(lo, prev[j]), prev[j]))
        rows.append(tuple(row))
    return GTPattern(ConvexConfig.trapezoid(n, m), tuple(rows))


def exhaustive_feasible(lam, lam_bar, mu, nu):
    """Trapezoid feasibility by sweeping every subset with a bitmask."""
    n = len(nu)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return False
    if any(lam_bar[i] < lam_bar[i + 1] for i in range(len(lam_bar) - 1)):
        return False
    if sum(lam) - sum(lam_bar) + sum(mu) - sum(nu) != 0:
        return False
    m = len(lam_bar)
    deficit = []
    for k in range(n + 1):
        total = 0
        for j in range(1, len(lam) + 1):
            if 1 <= j - k <= m:
                total += max(0, lam_bar[j - k - 1] - lam[j - 1])
        deficit.append(total)
    w = [mu[i] - nu[i] for i in range(n)]
    base = [sum(lam[:k]) - deficit[k] for k in range(n + 1)]
    ssum = [0] * (1 << n)
    pop = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        i = low_bit.bit_length() - 1
        ssum[mask] = ssum[mask ^ low_bit] + w[i]
        pop[mask] = pop[mask ^ low_bit] + 1
    return all(base[pop[mask]] + ssum[mask] >= 0 for mask in range(1 << n))


def subset_lhs(spec, subset, parallelogram=False):
    """Left-hand side of the subset inequality for the rows ``subset`` (1-based)
    of a trapezoid (a parallelogram with ``parallelogram``), and the deficit it
    uses, ``None`` where a parallelogram's deficit has saturated."""
    lam, bar, k, m = spec.lam, spec.lam_bar, len(subset), len(spec.lam_bar)
    sides = sum((spec.mu[i - 1] - spec.nu[i - 1] for i in subset), 0)
    if parallelogram and k > m:
        return sum(lam) - sum(bar) + sides, None
    tail = sum(bar[m - k:]) if parallelogram else 0
    d = deficits_definition(lam, bar, k)[k]
    return sum(lam[:k]) - tail + sides - d, d


def structural_violation(spec):
    """The first structural condition that ``spec`` fails, as a certificate kind, else ``None``."""
    if not decreasing(spec.lam):
        return "monotone_lambda"
    if not decreasing(spec.lam_bar):
        return "monotone_lambda_bar"
    if sum(spec.lam) - sum(spec.lam_bar) + sum(spec.mu) - sum(spec.nu) != 0:
        return "balance"
    return None


def scan_is_trapezoidal(config):
    """The trapezoid by its definition, every bound read: ``a_i = 0`` and
    ``b_i = m + i``.  The one check that ``ConvexConfig.is_trapezoidal``'s
    corner test reads every convex shape right."""
    return all(x == 0 for x in config.a) and all(
        config.b[i] == i + config.m for i in range(config.n + 1)
    )


def scan_is_parallelogram(config):
    """The parallelogram by its definition, every bound read: ``a_i = 0`` and
    ``b_i = m``; the one check of ``ConvexConfig.is_parallelogram``."""
    return all(x == 0 for x in config.a) and all(x == config.m for x in config.b)


def scan_extend_to_trapezoid(config, spec, c=None):
    """``extend_to_trapezoid`` by the scan that the library replaced: the
    last row of each run found by ``max``, then ``mu`` and ``nu`` edited
    entry by entry.  The length checks and ``rough_bound`` are written out."""
    n = config.n
    if len(spec.lam) != config.b[n] - config.a[n] or len(spec.lam_bar) != config.b[0]:
        raise InputError("boundary lengths do not match the configuration")
    if len(spec.mu) != n or len(spec.nu) != n:
        raise InputError("mu and nu must have length n")
    a, b = config.a, config.b
    if scan_is_trapezoidal(config):
        return config, spec
    if c is None:
        c = 4 * sum(map(abs, spec.lam + spec.lam_bar + spec.mu + spec.nu)) + 1
    lam = list(spec.lam)
    mu = list(spec.mu)
    nu = list(spec.nu)
    if a[n] != 0:
        p = max(i for i in range(n + 1) if a[i] == 0)
        lam = [c] * (n - p) + lam
        for i in range(p, n):
            mu[i] = mu[i] - c
    if b[n] < b[0] + n:
        q = max(i for i in range(n + 1) if b[i] == b[0] + i)
        lam = lam + [-c] * (n - q)
        for i in range(q, n):
            nu[i] = nu[i] - c
    new_config = ConvexConfig.trapezoid(n, b[0])
    new_spec = BoundarySpec(tuple(lam), spec.lam_bar, tuple(mu), tuple(nu))
    return new_config, new_spec


def extension_terms(config, spec):
    """``(A, B)`` of each subset inequality ``A + B c`` of the extension with
    constant ``c > max |e|``, as a function of the subset (1-based rows).

    ``A`` and ``B`` are read off the extensions with ``c`` and ``2 c``; for
    every large ``c`` the inequality fails iff ``(B, A) < (0, 0)``.  ``spec``
    must pass the structural conditions.
    """
    c = max((abs(e) for e in spec.lam + spec.lam_bar + spec.mu + spec.nu), default=0) + 1
    one = scan_extend_to_trapezoid(config, spec, c)[1]
    two = scan_extend_to_trapezoid(config, spec, 2 * c)[1]

    def terms(subset):
        low, high = subset_lhs(one, subset)[0], subset_lhs(two, subset)[0]
        return 2 * low - high, Fraction(high - low) / c
    return terms


def general_feasible_oracle(config, spec):
    """Feasibility on a convex configuration in the limit of a large constant:
    infeasible iff ``spec`` fails a structural condition or some subset of
    the ``2^n`` has :func:`extension_terms` ``(A, B)`` with ``(B, A) < (0, 0)``.
    """
    if structural_violation(spec):
        return False
    terms, rows = extension_terms(config, spec), range(1, config.n + 1)
    subsets = chain.from_iterable(combinations(rows, k) for k in range(config.n + 1))
    return all((b, a) >= (0, 0) for a, b in map(terms, subsets))


def verify_certificate(config, spec, cert):
    """Whether ``cert``, a certificate as JSON data, shows ``(config, spec)``
    infeasible, read against the input alone.

    A structural kind must be the first structural condition that fails,
    ``balance`` with the balance as ``lhs``.  A ``subset`` certificate needs
    all three to hold and its sorted rows ``I`` to violate their inequality:
    on trapezoids and parallelograms its ``lhs`` and ``deficit`` are those of
    :func:`subset_lhs`, with ``lhs < 0``; on other shapes it carries only
    ``I``, and :func:`extension_terms` of ``I`` must have ``(B, A) < (0, 0)``.
    """
    got = {key: value if key in ("kind", "I") else Fraction(value) for key, value in cert.items()}
    kind = structural_violation(spec)
    if kind is not None:
        balance = sum(spec.lam) - sum(spec.lam_bar) + sum(spec.mu) - sum(spec.nu)
        return got == ({"kind": kind, "lhs": balance} if kind == "balance" else {"kind": kind})
    subset = got.get("I")
    if got.get("kind") != "subset" or not isinstance(subset, list):
        return False
    if subset != sorted(set(subset) & set(range(1, config.n + 1))):
        return False
    parallelogram = scan_is_parallelogram(config)
    if parallelogram or scan_is_trapezoidal(config):
        lhs, deficit = subset_lhs(spec, subset, parallelogram)
        want = {"kind": "subset", "I": subset, "lhs": lhs}
        if deficit is not None:
            want["deficit"] = deficit
        return lhs < 0 and got == want
    a, b = extension_terms(config, spec)(subset)
    return set(got) == {"kind", "I"} and (b, a) < (0, 0)


def deficits_definition(lam, lam_bar, n=None):
    """Deficits ``(D_0, .., D_n)`` by their defining double sum, in ``O(n m)``.

    ``delta_k(j) = max(0, lam_bar_{j-k} - lam_j)`` with out-of-range indices
    contributing zero; ``D_k`` sums over the index range of ``lam``, so only
    the columns ``j = k+1 .. k+m`` that also index ``lam`` can contribute.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    if not decreasing(lam) or not decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    if n is None:
        n = len(lam) - len(lam_bar)
    if n < 0:
        raise InputError("lambda must be at least as long as lambda_bar")
    return tuple(
        sum((max(0, lb - v) for lb, v in zip(lam_bar, lam[k:])), 0) for k in range(n + 1)
    )


def broken_constraints(p: GTPattern):
    """The rhombus inequalities of :func:`pattern_constraints` that the
    pattern violates, each read off two :func:`pattern_cell` cells."""
    broken = []
    for kind, i, j in pattern_constraints(p.config):
        if kind == "upper":
            ok = pattern_cell(p, i, j) >= pattern_cell(p, i - 1, j)
        else:
            ok = pattern_cell(p, i - 1, j) >= pattern_cell(p, i, j + 1)
        if not ok:
            broken.append((kind, i, j))
    return broken


def matrix_rank(rows):
    """Rank over the rationals of an integer matrix, by elimination that keeps
    every row integral: a row with ``b`` under a pivot ``a`` becomes ``a row -
    b pivot_row``."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            b = mat[r][col]
            if b:
                mat[r] = [top[col] * x - b * y for x, y in zip(mat[r], top)]
        rank += 1
    return rank


def determinant(rows):
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: after the pivot step at ``k``, every entry below and right of
    it is a ``k + 1`` by ``k + 1`` minor, so each division by the previous
    pivot is exact and every entry stays an ``int`` (E. H. Bareiss, Math.
    Comp. 22, 1968)."""
    mat, sign, last = [list(row) for row in rows], 1, 1
    for k in range(len(mat)):
        p = next((r for r in range(k, len(mat)) if mat[r][k]), None)
        if p is None:
            return 0
        if p != k:
            mat[k], mat[p], sign = mat[p], mat[k], -sign
        top = mat[k]
        for r in range(k + 1, len(mat)):
            a = mat[r][k]
            mat[r] = [(top[k] * x - a * y) // last for x, y in zip(mat[r], top)]
        last = top[k]
    return sign * last


def tight_system_rank(p: GTPattern, fixed_nu=False):
    """Rank of the tight equalities in the free interior entries.

    Returns ``(rank, n_free)``; the pattern is a vertex of the polytope with
    its outer rows fixed exactly when the two are equal.  With ``fixed_nu``
    the row sums are also pinned, adding one equality per interior row.
    """
    c = p.config
    free = {}
    for i in range(1, c.n):
        for j in range(c.a[i] + 1, c.b[i] + 1):
            free[(i, j)] = len(free)
    if not free:
        return 0, 0
    rows = []
    if fixed_nu:
        for i in range(1, c.n):
            row = [0] * len(free)
            for j in range(c.a[i] + 1, c.b[i] + 1):
                row[free[(i, j)]] = 1
            rows.append(row)
    for kind, i, j in pattern_constraints(c):
        if kind == "upper":
            pair = ((i, j), (i - 1, j))
            tight = pattern_cell(p, i, j) == pattern_cell(p, i - 1, j)
        else:
            pair = ((i - 1, j), (i, j + 1))
            tight = pattern_cell(p, i - 1, j) == pattern_cell(p, i, j + 1)
        if not tight:
            continue
        row = [0] * len(free)
        nonzero = False
        for coord, sign in zip(pair, (1, -1)):
            if coord in free:
                row[free[coord]] += sign
                nonzero = True
        if nonzero:
            rows.append(row)
    if not rows:
        return 0, len(free)
    return matrix_rank(rows), len(free)


def vertex_patterns(lam, lam_bar):
    """Rows of the vertices of the pattern polytope with rows n and 0 fixed to
    ``lam`` and ``lam_bar``, by brute force.

    The data are first shifted by ``t = max(0, -lam_n)`` and scaled by the
    least common denominator ``d``, an affine map that takes vertices to
    vertices, so that every entry is a nonnegative integer.  A pattern of
    :func:`enumerate_patterns` is a vertex when its tight system has full
    rank (:func:`tight_system_rank`), and the vertices are sorted by the
    support of their slacks (:func:`pattern_slacks`), the edges ``(i, j,
    t)`` of the flow that are not 0.
    """
    t = max(0, -lam[-1])
    d = lcm(*(Fraction(v).denominator for v in lam + lam_bar))
    scaled = [tuple(int((v + t) * d) for v in w) for w in (lam, lam_bar)]
    config = ConvexConfig.trapezoid(len(lam) - len(lam_bar), len(lam_bar))
    found = []
    for rows in enumerate_patterns(*scaled):
        rank, free = tight_system_rank(GTPattern(config, rows))
        if rank == free:
            e = pattern_slacks(rows)
            found.append(([(i, j, s) for i, row in enumerate(e[0])
                           for j in range(len(row)) for s in (0, 1) if e[s][i][j]], rows))
    found.sort()
    return [tuple(tuple(Fraction(v, d) - t for v in row) for row in rows) for _, rows in found]


# ---------------------------------------------------------------------------
# an exact LP, and feasibility by the definition
# ---------------------------------------------------------------------------

# Simplex pivots one lp_point call may make before it raises: a fault in the
# ratio test would otherwise pivot forever.  Tier-1's largest LP takes 32.
LP_PIVOTS_MAX = 100


def lp_point(ineqs, eqs, size):
    """A point ``x`` of ``size`` rationals with ``A x <= b`` for every ``(A, b)``
    in ``ineqs`` and ``C x = d`` for every ``(C, d)`` in ``eqs``, or ``None``
    when there is none.  A row ``A`` or ``C`` is a dict from variable index
    to coefficient, and the variables are free.

    A slack ``s_r >= 0`` makes inequality ``r`` the equality ``A x + s_r =
    b``.  Gauss-Jordan elimination expresses each variable that occurs by
    one row, an equality where it can, and leaves equalities ``M s = r`` in
    the slacks alone.  Phase I of the simplex method then adds an artificial
    ``u_i >= 0`` to each of them, signed so that ``r_i >= 0``, and pivots to
    the least ``sum u``, which is 0 exactly when some ``s >= 0`` solves them.
    The arithmetic is exact, in ``int``s and ``Fraction``s (the data must be
    one or the other), and Bland's rule (the lowest entering index, and the
    lowest leaving index among ties of the ratio test) keeps the pivots from
    cycling (R. G. Bland, "New finite pivoting rules for the simplex
    method", Math. Oper. Res. 2, 1977).  More than :data:`LP_PIVOTS_MAX`
    simplex pivots raise :class:`RuntimeError`.
    """
    rows = [({k: v for k, v in c.items() if v}, d) for c, d in eqs]
    rows += [({**{k: v for k, v in a.items() if v}, size + r: 1}, b) for r, (a, b) in enumerate(ineqs)]

    def pivot(p, k):  # scale row p to 1 at variable k and clear k from every other row
        row, rhs = rows[p]
        if row[k] != 1:  # ints stay ints under a pivot of 1 or -1
            inv = -1 if row[k] == -1 else 1 / Fraction(row[k])
            row, rhs = {j: v * inv for j, v in row.items()}, rhs * inv
        rows[p] = row, rhs
        for q, (other, other_rhs) in enumerate(rows):
            f = other.get(k)
            if q != p and f:
                for j, v in row.items():
                    other[j] = other.get(j, 0) - f * v
                    if not other[j]:
                        del other[j]
                rows[q] = other, other_rhs - f * rhs

    defined = {}  # variable -> the row that expresses it
    for k in range(size):
        p = next((p for p, (row, _) in enumerate(rows) if k in row and p not in defined.values()), None)
        if p is not None:
            pivot(p, k)
            defined[k] = p
    basis, artificial = {}, size + len(ineqs)
    for p, (row, rhs) in enumerate(rows):
        if p in defined.values():
            continue
        if not row and rhs:
            return None
        if row:
            if rhs < 0:
                row, rhs = {j: -v for j, v in row.items()}, -rhs
            rows[p] = {**row, artificial: 1}, rhs
            basis[p], artificial = artificial, artificial + 1
    # cost[j]: how fast sum u falls as nonbasic s_j grows
    cost = {}
    for p in basis:
        for j, v in rows[p][0].items():
            if j < size + len(ineqs):
                cost[j] = cost.get(j, 0) + v
    total, pivots = sum(rows[p][1] for p in basis), 0
    while total:
        pivots += 1
        if pivots > LP_PIVOTS_MAX:
            raise RuntimeError(f"lp_point: more than {LP_PIVOTS_MAX} simplex pivots")
        k = min((j for j, v in cost.items() if v > 0), default=None)
        if k is None:
            return None
        p = min((p for p in basis if rows[p][0].get(k, 0) > 0),
                key=lambda p: (Fraction(rows[p][1]) / rows[p][0][k], basis[p]))
        f = Fraction(cost[k]) / rows[p][0][k]
        total -= f * rows[p][1]
        for j, v in rows[p][0].items():
            cost[j] = cost.get(j, 0) - f * v
        pivot(p, k)
        basis[p] = k
    # a variable's row holds besides it only nonbasic variables, all 0
    return [rows[defined[k]][1] if k in defined else 0 for k in range(size)]


def definition_feasible(config, spec):
    """A strip-concave array on ``config`` with boundary ``spec``, or ``None``
    when there is none, read off the definition by :func:`lp_point`.

    The variables are the entries ``x_ij``, ``a_i <= j <= b_i``, but for
    ``x_00 = 0``.  The equalities read ``lam_bar`` off row 0, ``mu`` and
    ``nu`` off the first and last entries of consecutive rows and ``lam``
    off row n, as ``stripconcave.boundary`` does.  The inequalities are the
    rhombus inequalities of :func:`pattern_constraints` on ``dx_ij = x_ij -
    x_i,j-1``.  ``spec`` must have the lengths that ``config`` asks for.
    """
    a, b, n = config.a, config.b, config.n
    cells = [(i, j) for i in range(n + 1) for j in range(a[i], b[i] + 1)][1:]
    index = {cell: k for k, cell in enumerate(cells)}

    def row(*steps):  # the sum of sign * (x_p - x_q), without x_00
        out = {}
        for sign, p, q in steps:
            for cell, s in ((p, sign), (q, -sign)):
                if cell in index:
                    out[index[cell]] = out.get(index[cell], 0) + s
        return out

    eqs = [(row((1, (0, j), (0, j - 1))), v) for j, v in enumerate(spec.lam_bar, 1)]
    eqs += [(row((1, (i, a[i]), (i - 1, a[i - 1]))), v) for i, v in enumerate(spec.mu, 1)]
    eqs += [(row((1, (i, b[i]), (i - 1, b[i - 1]))), v) for i, v in enumerate(spec.nu, 1)]
    eqs += [(row((1, (n, j), (n, j - 1))), v) for j, v in enumerate(spec.lam, a[n] + 1)]
    ineqs = []  # dx_small - dx_large <= 0
    for kind, i, j in pattern_constraints(config):
        (r, c), (R, C) = ((i - 1, j), (i, j)) if kind == "upper" else ((i, j + 1), (i - 1, j))
        ineqs.append((row((1, (r, c), (r, c - 1)), (-1, (R, C), (R, C - 1))), 0))
    x = lp_point(ineqs, eqs, len(cells))
    if x is None:
        return None
    value = {(0, 0): 0, **{cell: int(v) if v.denominator == 1 else v for cell, v in zip(cells, x)}}
    return StripConcaveArray(config, [[value[i, j] for j in range(a[i], b[i] + 1)]
                                      for i in range(n + 1)])


def divergence(g, node):
    """Inflow minus outflow at a node (void edges count as zero)."""
    i, j = node
    total = 0
    if i > 0:
        if j <= (i - 1) + g.m:
            total = total + g.e0[i - 1][j]
        if j >= 1:
            total = total + g.e1[i - 1][j - 1]
    if i < g.n:
        total = total - g.e0[i][j] - g.e1[i][j]
    return total


def admissibility_violation(g, lam, lam_bar):
    """First node whose divergence deviates from the prescription, or None.

    Layer 0 must send ``lam_bar_j - lam_bar_{j+1}`` out of node ``j`` and
    layer n must take ``lam_j - lam_{j+1}`` in, with ``lam_0 = lam_1`` and
    zero past the ends; every other node conserves flow.
    """
    n, m = g.n, g.m
    if len(lam) != n + m or len(lam_bar) != m:
        raise InputError("boundary lengths do not match the graph")
    lam_ext = [lam[0]] + list(lam) + [0]  # lam_ext[j] = lam_j with lam_0 = lam_1
    bar_ext = [lam[0]] + list(lam_bar) + [0]
    for i in range(n + 1):
        for j in range(i + m + 1):
            if i == 0 and n > 0:
                want = bar_ext[j + 1] - bar_ext[j]
            elif i == n:
                want = lam_ext[j] - lam_ext[j + 1]
            else:
                want = 0
            if divergence(g, (i, j)) != want:
                return (i, j)
    return None


def capacity_swap_flow(g, layer):
    """Swap the capacities of the paired zigzags around a middle layer.

    The zigzag through ``e0_{i-1,j}`` and ``e1_{ij}`` and its partner
    through ``e1_{i-1,j}`` and ``e0_{i,j+1}`` exchange their bottleneck
    values; defined on every flow, admissible or not.  The one check that
    ``swap_flow``, which toggles pattern rows, is this exchange on the flow.
    """
    n, m = g.n, g.m
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
    return Flow(g.n, g.m, tuple(tuple(r) for r in e0), tuple(tuple(r) for r in e1))


def enumerate_tableaux(outer, inner, content):
    """Count semi-standard skew tableaux of the given shape and content.

    Cell-by-cell backtracking, tracking remaining content and the column
    strictness against the previous row.
    """
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    n = len(content)
    remaining = list(content)
    grid = [[None] * outer[r] for r in range(len(outer))]
    cells = []
    for r in range(len(outer)):
        for col in range(inner[r], outer[r]):
            cells.append((r, col))
    count = 0

    def place(idx):
        nonlocal count
        if idx == len(cells):
            count += not any(remaining)  # the content used up exactly
            return
        r, col = cells[idx]
        lo = 1
        if col > inner[r] and grid[r][col - 1] is not None:
            lo = max(lo, grid[r][col - 1])
        if r > 0 and col < outer[r - 1] and grid[r - 1][col] is not None:
            lo = max(lo, grid[r - 1][col] + 1)
        for v in range(lo, n + 1):
            if remaining[v - 1] > 0:
                grid[r][col] = v
                remaining[v - 1] -= 1
                place(idx + 1)
                remaining[v - 1] += 1
                grid[r][col] = None

    place(0)
    return count


def check_skew_tableau(outer, inner, rows):
    """The per-cell checks of a skew tableau; returns the normalized
    ``(outer, inner, rows)`` or raises :class:`InputError`."""
    outer, inner, rows = tuple(outer), tuple(inner), tuple(tuple(r) for r in rows)
    for name, part in (("outer", outer), ("inner", inner)):
        if any(not is_int(v) or v < 0 for v in part):
            raise InputError(f"{name} shape must be a nonnegative integer partition")
        if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
            raise InputError(f"{name} shape must be weakly decreasing")
    if len(inner) > len(outer):
        raise InputError("inner shape has more rows than outer")
    pad = inner + (0,) * (len(outer) - len(inner))
    if any(pad[r] > outer[r] for r in range(len(outer))):
        raise InputError("inner shape must fit inside outer")
    if len(rows) != len(outer):
        raise InputError("one entry row per outer part required")
    n = len(outer) - len(inner)
    for r, row in enumerate(rows):
        if len(row) != outer[r] - pad[r]:
            raise InputError(f"row {r + 1} must hold {outer[r] - pad[r]} entries")
        if any(not is_int(v) or not 1 <= v <= n for v in row):
            raise InputError(f"entries must be integers in 1..{n}")
        if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
            raise InputError(f"row {r + 1} must be weakly increasing")
    for r in range(1, len(outer)):
        for col in range(pad[r] + 1, outer[r] + 1):
            if pad[r - 1] < col <= outer[r - 1]:
                upper = rows[r - 1][col - pad[r - 1] - 1]
                lower = rows[r][col - pad[r] - 1]
                if upper >= lower:
                    raise InputError(f"column {col} must strictly increase downward")
    return outer, inner, rows


def cellwise_pattern_to_tableau(p: GTPattern):
    """``(outer, inner, rows)`` of the tableau of a pattern, built cell by
    cell: the entry at each cell is the first chain index covering it.  With
    :func:`check_skew_tableau`, the one check of the cells and error texts of
    ``pattern_to_tableau`` and ``SkewTableau``."""
    c = p.config
    if not c.is_trapezoidal:
        raise InputError("tableaux correspond to trapezoidal patterns")
    n, m = c.n, c.m
    width = n + m
    chain = []
    for i in range(n + 1):
        row = p.rows[i]
        if any(not is_int(v) for v in row):
            raise InputError("tableaux need an integer pattern")
        if any(v < 0 for v in row):
            raise InputError("tableaux need nonnegative pattern rows; shift first")
        chain.append(tuple(row) + (0,) * (width - len(row)))
    for i in range(n):
        if any(chain[i][r] > chain[i + 1][r] for r in range(n + m)):
            raise InputError("pattern rows are not nested partitions")
    rows = tuple(
        tuple(i for i in range(1, n + 1) for _ in range(chain[i][r] - chain[i - 1][r]))
        for r in range(n + m)
    )
    return check_skew_tableau(chain[n], chain[0][:m], rows)

