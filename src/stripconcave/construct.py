"""Witness construction for feasible boundary data.

Every witness is built by :func:`mu_general_build`, :func:`build_trapezoid`
included: it decides as :func:`~stripconcave.feasibility.check_general`
does and extends the configuration once to its trapezoid (a parallelogram
only once its verdict is feasible), the pattern of the content
``nu - mu`` is solved there and integrated once with ``mu``, and the array
is restricted back.  The solver repeatedly truncates matching extreme
entries of the two boundary tuples and otherwise lowers a run of entries of
both tuples by a common step, rebuilding the pattern through a ramp lift.
The step is the largest one that keeps the tuples ordered (with the lift
applied in exact sub-steps).  Once ``lam_bar`` is empty, the triangle that
is left is solved row by row, peeling the last entry of ``nu`` off ``lam``.
The lifts are replayed on the interlacing slacks of the pattern (the edge
values of ``flow._slacks``), two per row pair, so a lift costs ``O(n)``
however wide its ramp.  The output is integral for integer data, and on
the triangle it is a vertex of the corresponding polytope.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import add, neg, sub
from typing import Sequence

from .core import (
    BoundarySpec,
    ConvexConfig,
    GTPattern,
    InfeasibleError,
    InputError,
    InternalError,
    Rat,
    StripConcaveArray,
    deficits,
    extend_to_trapezoid,
    integrate,
    is_weakly_decreasing,
    restrict_to,
)
from .feasibility import _decide


def _triangular_rows(lam: tuple, nu: tuple) -> list:
    """Pattern rows (row i of length i), peeling ``nu_n, nu_{n-1}, ..`` off ``lam``."""
    rows = [lam]
    for n in range(len(lam), 1, -1):
        # smallest p with lam_p >= nu_n >= lam_{p+1}
        p = next((p for p in range(1, n) if lam[p] <= nu[n - 1]), None)
        if p is None:
            raise InternalError("no pivot position for a feasible triangular boundary")
        lam = lam[: p - 1] + (lam[p - 1] + lam[p] - nu[n - 1],) + lam[p + 1 :]
        rows.append(lam)
    if lam:
        rows.append(())
    return rows[::-1]


def build_triangular(lam: Sequence[Rat], nu: Sequence[Rat]) -> StripConcaveArray:
    """Witness array with boundary ``(lam, 0^n, nu)`` on the triangle.

    The triangle is the trapezoid with ``m = 0``, so this is
    :func:`build_trapezoid` with an empty ``lam_bar``: feasibility is
    ``|lam| = |nu|`` and ``nu`` majorized by ``lam``, and infeasible data
    raises with :func:`check_trapezoid`'s certificate.  The output has
    ``x_{nj} = lam[1,j]``, is integral for integer data, and is a vertex:
    its tight rhombus equalities determine it uniquely.
    """
    lam = tuple(lam)
    nu = tuple(nu)
    if len(lam) != len(nu):
        raise InputError("lambda and nu must have equal length")
    if not is_weakly_decreasing(lam):
        raise InputError("lambda must be weakly decreasing")
    return build_trapezoid(lam, (), nu)


# ---------------------------------------------------------------------------
# trapezoid construction
# ---------------------------------------------------------------------------

def _pick_rs(lam, lab):
    """Indices of the runs to lower: lam_r >= lab_1 = .. = lab_s > next."""
    top = -lab[0]
    return bisect_right(lam, top, key=neg), bisect_right(lab, top, key=neg)


def _lift(top, a, b, alpha, s, cap):
    """Lift the ramp at ``alpha`` by the largest step up to ``cap`` that
    keeps the rows interlacing, and return the step.

    Row ``i`` is lifted on ``s`` columns from ``p(i)``, the number of its
    entries above ``alpha``.  Interlacing gives ``p(i) = p(i+1)``
    or ``p(i+1) - 1``, and ``v``, the last entry of row ``i + 1`` above
    ``alpha``, decides which.  Equal windows move ``b[i]`` at their two
    ends, shifted ones ``a[i]``: the slack at the left end shrinks and
    bounds the step, the one ``s`` further on grows.
    """
    p = start = bisect_left(top, -alpha, key=neg)
    v = top[p - 1] if p else None
    eps, length, shrink, grow = cap, len(top), [], []
    for ai, bi in zip(reversed(a), reversed(b)):
        length -= 1
        if p and (p > length or v - ai[p - 1] <= alpha):
            p -= 1
            if p:
                v += bi[p - 1]
            e, j = ai, p
        else:
            if p:
                v -= ai[p - 1]
            e, j = bi, p - 1
        if 0 <= j < length:
            shrink.append((e, j))
            if e[j] < eps:
                eps = e[j]
        if j + s < length:
            grow.append((e, j + s))
    if eps > 0:
        for e, j in shrink:
            e[j] -= eps
        for e, k in grow:
            e[k] += eps
        top[start : start + s] = [w + eps for w in top[start : start + s]]
    return eps


def _solve_trapezoid(lam: tuple, lab: tuple, nu: tuple) -> list:
    """Pattern rows for a feasible normalized spec (mu = 0, lam nonnegative).

    The replay keeps the top row and the interlacing slacks
    ``a[i] = row_{i+1} - row_i`` and ``b[i] = row_i - row_{i+1}[1:]``, so a
    lift moves two slacks per row pair; the rows are summed up once at the end.
    """
    n = len(nu)
    size = len(lam)
    integral = all(isinstance(v, int) for v in lam + lab + nu)
    ops = []
    outer_cap = 10 * (size + 1) ** 2 + size + 2
    outer = 0
    while True:
        outer += 1
        if outer > outer_cap:
            raise InternalError("trapezoid construction exceeded its iteration cap")
        m = len(lab)
        if m == 0:
            rows = _triangular_rows(lam, nu)
            break
        if lam[-1] == lab[-1]:
            ops.append(("column", lab[-1]))
            lam, lab = lam[:-1], lab[:-1]
            continue
        if lam[0] == lab[0]:
            ops.append(("prepend", lam[0]))
            lam, lab = lam[1:], lab[1:]
            continue
        r, s = _pick_rs(lam, lab)
        after = max(lam[r] if r < len(lam) else 0, lab[s] if s < m else 0)
        step = lab[0] - after
        ops.append(("lift", r, s, step))
        lam = lam[: r - s] + tuple(v - step for v in lam[r - s : r]) + lam[r:]
        lab = (after,) * s + lab[s:]
    top = list(rows[-1])
    a = [list(map(sub, down, up)) for up, down in zip(rows, rows[1:])]
    b = [list(map(sub, up, down[1:])) for up, down in zip(rows, rows[1:])]
    for op in reversed(ops):
        if op[0] == "column":
            # re-add the truncated column: every row derivative there is value
            value, last = op[1], top[-1]
            for ai, bi in zip(reversed(a), reversed(b)):
                ai.append(last - value)
                last += bi[-1] if bi else 0  # row 0 of a triangle is empty
                bi.append(0)
            top.append(value)
        elif op[0] == "prepend":
            value, first = op[1], top[0]
            for ai, bi in zip(reversed(a), reversed(b)):
                bi.insert(0, value - first)
                first -= ai[0] if ai else 0
                ai.insert(0, 0)
            top.insert(0, value)
        else:
            _, r, s, step = op
            remaining = step
            inner_cap = 10 * (size + 1) ** 2
            inner = 0
            while remaining > 0:
                inner += 1
                if inner > inner_cap:
                    raise InternalError("lift phase exceeded its iteration cap")
                eps = _lift(top, a, b, top[r - s], s, remaining)
                if eps <= 0:
                    raise InternalError("lift phase stalled with zero slack")
                remaining = remaining - eps
    rows = [top]
    for bi in reversed(b):
        rows.append(list(map(add, rows[-1][1:], bi)))
    rows.reverse()
    if not integral:  # the lift arithmetic leaves Fraction(k, 1) entries
        rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
    return rows


def build_trapezoid(
    lam: Sequence[Rat],
    lam_bar: Sequence[Rat],
    nu: Sequence[Rat],
) -> StripConcaveArray:
    """Witness array with boundary ``(lam, lam_bar, 0^n, nu)`` on the trapezoid.

    Each lowering takes the largest exact step at once.  Integer inputs
    yield an integer array.  ``n = 0`` is refused, feasible or not, as no
    configuration has an empty top row.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    nu = tuple(nu)
    n, m = len(nu), len(lam_bar)
    if len(lam) != n + m:
        raise InputError("lambda must have length n+m")
    return mu_general_build(ConvexConfig.trapezoid(n, m), BoundarySpec(lam, lam_bar, (0,) * n, nu))


def mu_general_build(config: ConvexConfig, spec: BoundarySpec) -> StripConcaveArray:
    """Witness array for an arbitrary convex configuration and boundary.

    Decides once as :func:`check_general` does, and extends once to the
    enclosing trapezoid: the extension the decision was taken on, or on a
    parallelogram one made after a feasible verdict.  The pattern of the
    extended content ``nu - mu`` is solved there with ``lam``, ``lam_bar``
    and ``nu - mu`` shifted by one constant that makes ``lam`` nonnegative,
    shifted back, integrated with ``mu`` and restricted to ``config``.
    """
    verdict, extension = _decide(config, spec)
    if not verdict.feasible:
        raise InfeasibleError(verdict.certificate)
    tconfig, tspec = extension or extend_to_trapezoid(config, spec)
    t = max(0, -(min(tspec.lam, default=0) // 1))  # an int, so int entries stay int
    rows = _solve_trapezoid(
        tuple(v + t for v in tspec.lam),
        tuple(v + t for v in tspec.lam_bar),
        tuple(w - u + t for u, w in zip(tspec.mu, tspec.nu)),
    )
    if t:
        rows = [[v - t for v in row] for row in rows]
    return restrict_to(integrate(GTPattern(tconfig, rows), tspec.mu), config)


def reduce_to_triangle(lam: Sequence[Rat], lam_bar: Sequence[Rat]) -> tuple:
    """Triangular boundary tuple with the same feasible right boundaries.

    The prefix sums of ``lam'`` are the subset-free parts of the trapezoid
    inequality, ``lam'[1,k] = lam[1,k] - D_k``, so ``lam'`` is their sequence
    of consecutive differences.  With ``mu = 0`` the inequality reads
    ``lam'[1,|I|] - nu(I) >= 0``: a right boundary ``nu`` is feasible for
    ``(lam, lam_bar)`` exactly when it is majorized by ``lam'``.  The result
    is weakly decreasing with ``|lam'| = |lam| - |lam_bar|``.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    if not is_weakly_decreasing(lam) or not is_weakly_decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    if lam and lam[-1] < 0:
        raise InputError("lambda must be nonnegative (shift first)")
    n = len(lam) - len(lam_bar)
    if n < 0:
        raise InputError("lambda must be at least as long as lambda_bar")
    for below, lb, top in zip(lam[n:], lam_bar, lam):
        if not below <= lb <= top:
            raise InputError(
                "incompatible shapes: need lam_{j+n} <= lam_bar_j <= lam_j"
            )
    base = [p - d for p, d in zip(accumulate(lam, initial=0), deficits(lam, lam_bar, n))]
    return tuple(b - a for a, b in zip(base, base[1:]))
