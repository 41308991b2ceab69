"""Independent oracles used to validate the library.

Everything here is deliberately naive: direct enumeration, bitmask subset
sweeps, exact Gaussian elimination, and the per-cell algorithms and
per-entry loops that the library has replaced, kept as references.  The
oracles share the library's data types and errors, and call two of its
public functions where that function is not the one under test:
``integrate`` to turn patterns into arrays and ``check_trapezoid`` as the
zero test of :func:`level_kostka`.  Every other helper they need
(interlacing bounds, pattern slacks, the pattern of a flow, the triangular
solve, the integer checks, the extension to a trapezoid) is written here
again from its definition, so a fault in one of the library's helpers
cannot reach both sides of an equivalence test.
"""
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, product
from operator import neg

from stripconcave import (
    BoundarySpec,
    Certificate,
    ConvexConfig,
    FeasibilityVerdict,
    Flow,
    GTPattern,
    InputError,
    InternalError,
    PathDecomposition,
    StripConcaveArray,
    check_trapezoid,
    integrate,
)
from stripconcave import core

KOSTKA_ROWS_MAX = 1_000_000


# ---------------------------------------------------------------------------
# helpers, written from their definitions
# ---------------------------------------------------------------------------

def is_int(value):
    """An integer JSON value: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_ints(*seqs):
    """Refuse any entry that is not an ``int`` or is a ``bool``, as the counting functions do."""
    if any(not is_int(v) for seq in seqs for v in seq):
        raise InputError("counting requires integer data")


def decreasing(seq):
    """True iff ``seq`` is weakly decreasing."""
    return all(seq[k] >= seq[k + 1] for k in range(len(seq) - 1))


def interlacing_bounds(i, below, lam_bar):
    """Bounds ``(lo, hi)`` on cell ``k`` of row ``i`` of a pattern with row 0
    ``lam_bar``, given row ``i + 1`` as ``below``: interlacing gives
    ``below[k + 1] <= cell <= below[k]``, and chains of it up to row 0 give
    ``lam_bar[k] <= cell <= lam_bar[k - i]`` where those indices exist."""
    m, cells = len(lam_bar), range(len(below) - 1)
    lo = [max(below[k + 1], lam_bar[k]) if k < m else below[k + 1] for k in cells]
    hi = [min(below[k], lam_bar[k - i]) if 0 <= k - i < m else below[k] for k in cells]
    return lo, hi


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


def triangular_rows(lam, nu):
    """Rows ``0..n`` of a pattern on the triangle with row ``n`` ``lam`` and
    content ``nu``: row ``k - 1`` is row ``k`` with its first pair of
    neighbours ``r_p >= r_{p+1}`` where ``r_{p+1} <= nu_k`` merged into the
    single entry ``r_p + r_{p+1} - nu_k``."""
    rows = [tuple(lam)]
    for k in range(len(lam), 1, -1):
        row = rows[-1]
        p = next((p for p in range(k - 1) if row[p + 1] <= nu[k - 1]), None)
        if p is None:
            raise InternalError("no pivot position for a feasible triangular boundary")
        rows.append(row[:p] + (row[p] + row[p + 1] - nu[k - 1],) + row[p + 2:])
    if lam:
        rows.append(())
    return rows[::-1]


def weight_order(weights):
    """0-based indices by decreasing weight, ties broken toward the smaller
    index, sorted on the ``(-w, i)`` key that the library's stable reverse
    sort replaced."""
    return sorted(range(len(weights)), key=lambda i: (-weights[i], i))


def best_subset(weights, k):
    """The size-``k`` subset of ``1..n`` with the largest weight, the
    lexicographically smallest one among ties."""
    return tuple(sorted(i + 1 for i in weight_order(weights)[:k]))


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


def overlap_reduce_to_triangle(lam, lam_bar):
    """Triangular tuple ``lam'`` of a compatible skew pair, by segment overlaps.

    ``lam'_k`` accumulates, over ``t = k..n+m``, the overlap length of the
    segment between consecutive ``lam`` entries with the segment between
    ``lam_1`` and ``lam_bar_{t-k+1}`` (missing entries read as zero); both
    segments are taken between the min and max of their endpoints.
    """
    size = len(lam)
    n = size - len(lam_bar)
    top = lam[0] if lam else 0

    def ext_lam(j):  # 1-based with lam_{n+m+1} = 0
        return lam[j - 1] if j <= size else 0

    def ext_bar(j):  # 1-based with trailing zeros
        return lam_bar[j - 1] if j <= len(lam_bar) else 0

    def overlap(a1, b1, a2, b2):
        lo = max(min(a1, b1), min(a2, b2))
        hi = min(max(a1, b1), max(a2, b2))
        return hi - lo if hi > lo else 0

    out = []
    for k in range(1, n + 1):
        total = 0
        for t in range(k, size + 1):
            total = total + overlap(ext_lam(t + 1), ext_lam(t), ext_bar(t - k + 1), top)
        out.append(total)
    return tuple(out)


def _ramp_shape(rows, alpha):
    """Start ``p(i)`` of each row's lift window: the number of entries
    strictly greater than ``alpha`` (rows are weakly decreasing)."""
    return [bisect_left(row, -alpha, key=neg) for row in rows]


def _apply_lift(rows, shape, s, step):
    for i, p in enumerate(shape):
        row = rows[i]
        for j in range(p, min(p + s, len(row))):
            row[j] = row[j] + step


def _max_substep(rows, shape, s, cap):
    """Largest lift step keeping the pattern rhombus inequalities valid.

    The lift adds ``step`` to the 1-based columns ``W(i) = (p(i), p(i) + s]``
    of row ``i``; an inequality constrains the step only where the window
    indicator decreases across it, and then the current slack is the bound.
    Windows of equal width differ only between ``min(p(i), p(i-1))`` and
    ``max(p(i), p(i-1))``, shifted by 0 or ``s``: only those columns are visited.
    """
    bound = cap
    for i in range(1, len(rows)):
        row, up, p, q = rows[i], rows[i - 1], shape[i], shape[i - 1]
        lo, hi = min(p, q), max(p, q)
        for j in chain(range(max(lo, 1), hi + 1), range(lo + s, hi + s + 1)):
            if j > len(up):
                continue
            in_up = q < j <= q + s
            if in_up and not p < j <= p + s:
                bound = min(bound, row[j - 1] - up[j - 1])
            if not in_up and p < j + 1 <= p + s:
                bound = min(bound, up[j - 1] - row[j])
    return bound


def ramp_solve_trapezoid(lam, lab, nu, seen=None):
    """Pattern rows for a feasible normalized spec, lifting whole rows.

    The reference for ``construct._solve_trapezoid``: the same forward
    phase (truncate equal extreme entries, else lower the runs
    ``lam_{r-s+1..r}`` and ``lab_{1..s}`` by the largest step), written
    with linear scans, and a replay that adds each lift step to every cell
    of the ramp windows and bounds a sub-step by scanning the window edges
    of the rows themselves.  A ``Counter`` passed as ``seen`` counts the
    replayed ops by kind, and ``"substep"`` for each lift sub-step shorter
    than the step left.
    """
    seen = Counter() if seen is None else seen
    n = len(nu)
    integral = all(isinstance(v, int) for v in lam + lab + nu)
    ops = []
    for _ in range(len(lam) + 2 * len(lab) + 1):  # the solver's proven pass bound
        m = len(lab)
        if m == 0:
            rows = [list(r) for r in triangular_rows(lam, nu)]
            break
        if lam[-1] == lab[-1]:
            ops.append(("column", lab[-1]))
            lam, lab = lam[:-1], lab[:-1]
            continue
        if lam[0] == lab[0]:
            ops.append(("prepend", lam[0]))
            lam, lab = lam[1:], lab[1:]
            continue
        top = lab[0]
        r = max(j for j in range(1, len(lam) + 1) if lam[j - 1] >= top)
        s = 1
        while s < m and lab[s] == top:
            s += 1
        after = max(lam[r], lab[s]) if s < m else lam[r]
        step = lab[0] - after
        ops.append(("lift", r, s, step))
        lam = tuple(v - step if r - s + 1 <= j + 1 <= r else v for j, v in enumerate(lam))
        lab = tuple(v - step if j < s else v for j, v in enumerate(lab))
    else:
        raise InternalError("the forward phase exceeded its proven step bound")
    for op in reversed(ops):
        seen[op[0]] += 1
        if op[0] == "column":
            for row in rows:
                row.append(op[1])
        elif op[0] == "prepend":
            for row in rows:
                row.insert(0, op[1])
        else:
            _, r, s, step = op
            if step == 1 and integral:
                _apply_lift(rows, _ramp_shape(rows, rows[-1][r - s]), s, 1)
                continue
            remaining = step
            for _ in range(1 + n * (n + 1) // 2):  # the solver's proven sub-step bound
                shape = _ramp_shape(rows, rows[-1][r - s])
                eps = _max_substep(rows, shape, s, remaining)
                _apply_lift(rows, shape, s, eps)
                seen["substep"] += eps < remaining
                remaining = remaining - eps
                if not remaining:
                    break
            else:
                raise InternalError("a lift exceeded its proven sub-step bound")
    if not integral:
        rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
    return rows


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


def _extension_lhs(spec, mask):
    """Left-hand side of the trapezoid inequality for the rows in ``mask``."""
    lam, lam_bar, n = spec.lam, spec.lam_bar, len(spec.nu)
    rows = [i for i in range(n) if mask >> i & 1]
    k = len(rows)
    deficit = sum(
        max(0, lam_bar[j - k - 1] - lam[j - 1])
        for j in range(1, len(lam) + 1)
        if 1 <= j - k <= len(lam_bar)
    )
    return sum(lam[:k]) - deficit + sum(spec.mu[i] - spec.nu[i] for i in rows)


def scan_is_trapezoidal(config):
    """``ConvexConfig.is_trapezoidal`` by the scan of every bound that the
    library replaced."""
    return all(x == 0 for x in config.a) and all(
        config.b[i] == i + config.m for i in range(config.n + 1)
    )


def scan_is_parallelogram(config):
    """``ConvexConfig.is_parallelogram`` by the scan of every bound that the
    library replaced."""
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


def general_feasible_oracle(config, spec):
    """Feasibility on a convex configuration in the limit of a large constant.

    The extension with constant ``c > max |e|`` has subset inequalities
    ``A + B c``; ``A`` and ``B`` are read off the extensions with ``c`` and
    ``2 c``, and the data is infeasible iff some subset of the ``2^n`` has
    ``B < 0``, or ``B = 0`` and ``A < 0``.
    """
    lam, lam_bar = spec.lam, spec.lam_bar
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return False
    if any(lam_bar[i] < lam_bar[i + 1] for i in range(len(lam_bar) - 1)):
        return False
    if sum(lam) - sum(lam_bar) + sum(spec.mu) - sum(spec.nu) != 0:
        return False
    c = max((abs(e) for e in lam + lam_bar + spec.mu + spec.nu), default=0) + 1
    one = scan_extend_to_trapezoid(config, spec, c)[1]
    two = scan_extend_to_trapezoid(config, spec, 2 * c)[1]
    for mask in range(1 << config.n):
        low, high = _extension_lhs(one, mask), _extension_lhs(two, mask)
        a, b = 2 * low - high, Fraction(high - low) / c
        if b < 0 or (b == 0 and a < 0):
            return False
    return True


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


def keyed_bisect_deficits(lam, lam_bar, n=None):
    """Deficits by the interval sweep that the library replaced: each probe
    bisects the decreasing tuple with ``key=neg`` and each interval is
    clipped by ``min``/``max`` and added through a closure."""
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    if not decreasing(lam) or not decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    if n is None:
        n = len(lam) - len(lam_bar)
    if n < 0:
        raise InputError("lambda must be at least as long as lambda_bar")
    diff = [0] * (n + 2)

    def add(lo, hi, w):  # w on every k in lo..hi
        if lo <= hi:
            diff[lo] += w
            diff[hi + 1] -= w

    for t, lb in enumerate(lam_bar):
        add(max(bisect_right(lam, -lb, key=neg) - t, 0), min(len(lam) - 1 - t, n), lb)
    for j, v in enumerate(lam):
        add(max(j - bisect_left(lam_bar, -v, key=neg) + 1, 0), min(j, n), -v)
    return tuple(accumulate(diff))[: n + 1]


def scan_verdict(spec, n, m, parallelogram=False):
    """The verdict of ``check_trapezoid`` (``check_parallelogram`` with
    ``parallelogram``) by the scan that the library replaced: bases and
    running sums built entry by entry, :func:`keyed_bisect_deficits` and
    :func:`weight_order`, stopping at the first violated size."""
    if not decreasing(spec.lam):
        return FeasibilityVerdict(Certificate("monotone_lambda"))
    if not decreasing(spec.lam_bar):
        return FeasibilityVerdict(Certificate("monotone_lambda_bar"))
    balance = sum(spec.lam, 0) - sum(spec.lam_bar, 0) + sum(spec.mu, 0) - sum(spec.nu, 0)
    if balance != 0:
        return FeasibilityVerdict(Certificate("balance", lhs=balance))
    profile = keyed_bisect_deficits(spec.lam, spec.lam_bar, n)
    prefix = list(accumulate(spec.lam, initial=0))
    if parallelogram:
        tail = list(accumulate(reversed(spec.lam_bar), initial=0))
        base = [prefix[k] - tail[k] - profile[k] if k <= m else prefix[m] - tail[m]
                for k in range(n + 1)]
        profile = profile[: m + 1]
    else:
        base = [p - d for p, d in zip(prefix, profile)]
    weights = [spec.nu[i] - spec.mu[i] for i in range(n)]
    order = weight_order(weights)
    for k, running in enumerate(accumulate((-weights[i] for i in order), initial=0)):
        lhs = base[k] + running
        if lhs < 0:
            subset = tuple(sorted(i + 1 for i in order[:k]))
            deficit = profile[k] if k < len(profile) else None
            return FeasibilityVerdict(Certificate("subset", subset, lhs, deficit))
    return FeasibilityVerdict()


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
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


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
    values; defined on every flow, admissible or not.
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
            count += 1
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


def greedy_path_decompose(g: Flow) -> PathDecomposition:
    """Greedy exact decomposition into at most ``|A|`` weighted paths.

    Repeatedly extracts the lexicographically leftmost top-to-bottom path
    through positive edges with the bottleneck weight; raises
    :class:`InputError` unless the flow is admissible.
    """
    n, m = g.n, g.m
    flow_pattern_rows(g)
    e0 = [list(r) for r in g.e0]
    e1 = [list(r) for r in g.e1]
    paths = []
    guard = 2 * sum(i + m + 1 for i in range(n)) + 1
    while True:
        guard -= 1
        if guard < 0:
            raise InternalError("path decomposition failed to terminate")
        start = next(((0, j) for j in range(m + 1) if e0[0][j] > 0 or e1[0][j] > 0), None)
        if start is None:
            break
        nodes, weight = [start], None
        i, j = start
        while i < n:
            t = 0 if e0[i][j] > 0 else 1
            v = (e1 if t else e0)[i][j]
            if not v > 0:
                raise InternalError("stuck path: positive inflow without outflow")
            weight = v if weight is None else min(weight, v)
            i, j = i + 1, j + t
            nodes.append((i, j))
        # subtract the bottleneck along the recorded path
        for (i, j), (_, k) in zip(nodes, nodes[1:]):
            (e1 if k - j else e0)[i][j] -= weight
        paths.append((tuple(nodes), weight))
    return PathDecomposition(tuple(paths))


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
    cell: the entry at each cell is the first chain index covering it."""
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


def _subsets(k):
    return [tuple(i for i, bit in enumerate(bits, 1) if bit) for bits in product((0, 1), repeat=k)]


def brute_force_facets(n, m):
    """The facet keys ``(kind, I, J, j)`` of the classification that
    ``polytope.facets`` documents: every subset pair of ``1..n`` and ``1..m``
    filtered by it and sorted by ``(|I|+|J|, I, J)``, then the chamber steps."""
    horn = sorted(
        (len(I) + len(J), I, J)
        for I, J in product(_subsets(n), _subsets(m))
        if 0 < len(I) + len(J) < n + m
        and (0 < len(I) < n or (len(I), len(J)) in ((0, 1), (n, m - 1)))
    )
    keys = [("horn", I, J, None) for _, I, J in horn]
    if not (n == 1 or (n, m) == (2, 0)):
        keys += [("chamber_lambda", (), (), j) for j in range(1, n + m)]
        keys += [("chamber_lambda_bar", (), (), j) for j in range(1, m)]
    return keys


def level_kostka(lam, lam_bar, nu):
    """``kostka`` counted level by level: for each row of a level, every
    interlacing row above it of the level's sum, cut cell by cell by the
    suffix sums of the bounds; capped at :data:`KOSTKA_ROWS_MAX` candidate
    rows."""
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    nu = tuple(nu)
    require_ints(lam, lam_bar, nu)
    n = len(nu)
    width = n + len(lam_bar)
    # trailing zero parts are empty rows; rows beyond n+m cannot be filled
    while len(lam) > width:
        if lam[-1] != 0:
            return 0
        lam = lam[:-1]
    if len(lam) < width:
        if lam and lam[-1] < 0:
            return 0
        lam = lam + (0,) * (width - len(lam))
    if not check_trapezoid(BoundarySpec(lam, lam_bar, (0,) * n, nu), n, len(lam_bar)).feasible:
        return 0
    level = {lam: 1}  # rows of the current level -> ways each reaches lam
    total = sum(lam)
    built = 0
    for i in range(n - 1, -1, -1):
        total -= nu[i]
        above = {}
        for row, ways in level.items():
            # rows of sum total, cell by cell; cutting each cell by the suffix sums
            # of the bounds leaves no partial row that cannot be completed, so a
            # cell never has more partial rows than the row has finished ones and
            # the cap can be checked before the cell is built
            lo, hi = interlacing_bounds(i, row, lam_bar)
            lo_rest = list(accumulate(reversed(lo), initial=0))[::-1]
            hi_rest = list(accumulate(reversed(hi), initial=0))[::-1]
            partial = [((), total)]
            for a, b, lr, hr in zip(lo, hi, lo_rest[1:], hi_rest[1:]):
                ranges = [(r, left, range(max(a, left - hr), min(b, left - lr) + 1))
                          for r, left in partial]
                if built + sum(len(vs) for _, _, vs in ranges) > KOSTKA_ROWS_MAX:
                    raise InputError(f"count too large: it passed {KOSTKA_ROWS_MAX} candidate rows")
                partial = [(r + (v,), left - v) for r, left, vs in ranges for v in vs]
            built += len(partial)
            if built > KOSTKA_ROWS_MAX:
                raise InputError(f"count too large: it passed {KOSTKA_ROWS_MAX} candidate rows")
            for r, _ in partial:
                above[r] = above.get(r, 0) + ways
        level = above
    return level.get(lam_bar, 0)


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


def _support(rows) -> tuple:
    """Edges ``(i, j, t)`` with a nonzero slack in the pattern ``rows``, sorted."""
    e = pattern_slacks(rows)
    return tuple((i, j, t) for i, row in enumerate(e[0]) for j in range(len(row))
                 for t in (0, 1) if e[t][i][j])


def tile_search_vertices(lam, lam_bar):
    """``enumerate_vertices`` by the whole-pattern tile test: fill rows
    n-1 .. 0 from the boundary values depth first, counting the cells of
    placed rows against ``core.CELLS_MAX`` as they are placed, keep every
    finished pattern whose tiles (:func:`_tiles_anchored`) all meet row 0
    or row n, and sort by the flow support tuples of :func:`_support`."""
    lam, lam_bar = tuple(lam), tuple(lam_bar)
    if not decreasing(lam) or not decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    n, m = len(lam) - len(lam_bar), len(lam_bar)
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
        placed += len(row)
        if placed > core.CELLS_MAX:
            raise InputError(f"vertex search too large: the search passed {core.CELLS_MAX} cells")
        if i:
            rows[i] = row
            stack.append(row_choices(i - 1, row))
        else:
            rows[0] = row
            if _tiles_anchored(rows):
                found.append(tuple(rows))
    found.sort(key=_support)
    if t:
        found = [[[v - t for v in r] for r in rows] for rows in found]
    return [integrate(GTPattern(config, rows)) for rows in found]
