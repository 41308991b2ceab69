"""Witness construction for feasible boundary data.

Every witness is built by :func:`mu_general_build`, :func:`build_trapezoid`
included: it decides as :func:`~stripconcave.feasibility.check_general`
does and extends the configuration once to its trapezoid (a parallelogram
only once its verdict is feasible), the pattern of the content
``nu - mu`` is solved there and integrated once with ``mu``, and the array
is restricted back.  The solver truncates equal extreme entries of the two
boundary tuples, or else lowers a run of both by the largest step that
keeps them ordered, until a triangle is left to peel row by row; it then
replays the lifts on the interlacing slacks of the pattern (the edge values
of ``flow._slacks``), so a lift sub-step costs ``O(n)`` however wide its
ramp.  The output is integral for integer data, and on the triangle it is
a vertex of the corresponding polytope.
"""
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import add, neg, sub

from . import core
from .core import (
    BoundarySpec,
    ConvexConfig,
    GTPattern,
    InfeasibleError,
    InputError,
    InternalError,
    _check,
    deficits,
    extend_to_trapezoid,
    integrate,
    restrict_to,
)
from .feasibility import _decide


def _triangular_rows(lam: tuple, nu: tuple) -> list:
    """Pattern rows (row i of length i), peeling ``nu_n, nu_{n-1}, ..`` off ``lam``.

    Row ``k - 1`` merges the first ``lam_p >= nu_k >= lam_{p+1}`` of row ``k``
    into ``lam_p + lam_{p+1} - nu_k``.  The pivot exists while row ``k``
    majorizes ``nu_{1..k}``, as then ``lam_k <= nu_k <= lam_1``, and every pivot
    keeps that: ``j < p`` entries of ``nu_{1..k-1}`` sum to at most ``lam[1,j]``,
    and ``j >= p`` of them, with ``nu_k``, to at most ``lam[1,j+1]``.
    """
    rows = [lam]
    for n in range(len(lam), 1, -1):
        p = max(1, bisect_left(lam, -nu[n - 1], key=neg))  # first lam_{p+1} <= nu_n
        lam = lam[: p - 1] + (lam[p - 1] + lam[p] - nu[n - 1],) + lam[p + 1 :]
        rows.append(lam)
    return [(), *rows[::-1]]


def build_triangular(lam: "Sequence[Rat]", nu: "Sequence[Rat]") -> "StripConcaveArray":
    """Witness array with boundary ``(lam, 0^n, nu)`` on the triangle.

    This is :func:`build_trapezoid` with an empty ``lam_bar``: feasibility is
    ``|lam| = |nu|`` and ``nu`` majorized by a weakly decreasing ``lam``, and
    infeasible data raises with :func:`check_trapezoid`'s certificate.  The
    output has ``x_{nj} = lam[1,j]``, is integral for integer data, and is a
    vertex: its tight rhombus equalities determine it uniquely.
    """
    return build_trapezoid(lam, (), nu)


# ---------------------------------------------------------------------------
# trapezoid construction
# ---------------------------------------------------------------------------

def _lift(top, a, b, alpha, s, cap, lo, hi):
    """Lift the ramp at ``alpha`` by the largest step up to ``cap`` that
    keeps the rows interlacing, and return the step.

    Row ``i`` (``top`` for ``i = n``) fills columns ``lo .. hi + i - 1``
    and is lifted on ``s`` columns from ``lo + p(i)``, ``p(i)`` the number
    of its entries above ``alpha``.  Interlacing gives ``p(i) = p(i+1)`` or
    ``p(i+1) - 1``, and ``v``, the last entry of row ``i + 1`` above
    ``alpha``, decides which.  Equal windows move ``b[i]`` at their two
    ends, shifted ones ``a[i]``: the slack at the left end shrinks and
    bounds the step, the one ``s`` further on grows.
    """
    end = hi + len(a)
    p = start = bisect_left(top, -alpha, lo, end, key=neg)
    v = top[p - 1] if p > lo else None
    eps, shrink, grow = cap, [], []
    for ai, bi in zip(reversed(a), reversed(b)):
        end -= 1
        if p > lo and (p > end or v - ai[p - 1] <= alpha):
            p -= 1
            if p > lo:
                v += bi[p - 1]
            e, j = ai, p
        else:
            if p > lo:
                v -= ai[p - 1]
            e, j = bi, p - 1
        if lo <= j < end:
            shrink.append((e, j))
            if e[j] < eps:
                eps = e[j]
        if j + s < end:
            grow.append((e, j + s))
    for e, j in shrink:
        e[j] -= eps
    for e, k in grow:
        e[k] += eps
    top[start : start + s] = [w + eps for w in top[start : start + s]]
    return eps


def _solve_trapezoid(lam: tuple, lab: tuple, nu: tuple) -> list:
    """Pattern rows for a feasible spec with ``mu = 0``.

    Forward, with ``T = lab_1``, ``r = #{lam >= T}``, ``s = #{lab = T}`` and
    ``N = len(lam)``, every step keeps both tuples weakly decreasing, the
    shape ``lam_{j+n} <= lab_j <= lam_j`` of a feasible spec, ``|lam| - |lab|``
    and ``lam[1,k] - D_k`` for ``k <= n``: the triangle left at ``m = 0`` is
    :func:`reduce_to_triangle`'s, which majorizes ``nu``.  In a lift,
    ``lam_N < T`` (else ``lam_N = lab_m``, a column step), so
    ``A = max(lam_{r+1}, lab_{s+1})`` exists; ``lab_{1..s}`` drop to ``A`` and
    ``lam_{r-s+1..r}`` by ``T - A``, and ``D_k`` loses ``T - A`` once per
    ``t <= s`` with ``t + k > r``, as often as ``lam[1,k]`` does.
    ``(N - r) + (m - s) + m >= 1`` falls on every step: a column or prepend
    step drops an entry of each tuple and at most one of ``r`` and ``s``
    each, and a lift raises ``r + s``.  So ``lab`` is empty within
    ``N + 2m + 1`` passes, for the ``N`` and ``m`` of the input.

    Both phases work in windows of lists of the input's width: the tuples
    left are ``lam[lo:hi + n]`` and ``lab[lo:hi]``, and the replay keeps the
    top row and the interlacing slacks ``a[i] = row_{i+1} - row_i`` and
    ``b[i] = row_i - row_{i+1}[1:]`` in columns ``lo .. hi + i - 1``, so no
    step copies a row and a lift moves two slacks per row pair; the rows
    are summed up once at the end.  A lift sub-step raises row ``i`` from
    ``p(i)`` (see :func:`_lift`) by ``eps``, the step left or the least
    left-end slack, which is positive.  No ``p(i)`` rises, as the entries
    above ``alpha`` stay and the ramp stays at most ``alpha + eps``; in a
    shorter sub-step a slack reaches 0 and an entry above ``alpha`` meets
    the ramp, so some ``p(i)`` falls.  As ``p(n) = r - s`` throughout and
    interlacing keeps ``p(i)`` in ``[p(n) - n + i, p(n)]``, a lift takes at
    most ``1 + n(n + 1)/2`` sub-steps.
    """
    n, m = len(nu), len(lab)
    lam, lab, lo, hi, ops = list(lam), list(lab), 0, m, []
    for _ in range(len(lam) + 2 * m + 1):
        if lo == hi:
            break
        if lam[hi + n - 1] == lab[hi - 1]:
            hi -= 1
            ops.append(("column", lab[hi]))
        elif lam[lo] == lab[lo]:
            ops.append(("prepend", lam[lo]))
            lo += 1
        else:
            t = -lab[lo]
            r, s = bisect_right(lam, t, lo, hi + n, key=neg), bisect_right(lab, t, lo, hi, key=neg)
            after = max(lam[r], lab[s]) if s < hi else lam[r]
            step, w = -t - after, s - lo
            ops.append(("lift", r - w, w, step))
            lam[r - w : r] = [v - step for v in lam[r - w : r]]
            lab[lo:s] = [after] * w
    else:
        raise InternalError("the forward phase exceeded its proven step bound")
    rows = _triangular_rows(tuple(lam[lo : lo + n]), nu)
    head, tail = [0] * lo, [0] * (m - lo)
    top = head + list(rows[-1]) + tail
    a = [head + list(map(sub, down, up)) + tail for up, down in zip(rows, rows[1:])]
    b = [head + list(map(sub, up, down[1:])) + tail for up, down in zip(rows, rows[1:])]
    substeps = 1 + n * (n + 1) // 2
    for op in reversed(ops):
        end = hi + n
        if op[0] == "column":
            # re-add the truncated column: every row derivative there is value
            value, last = op[1], top[end - 1]
            for ai, bi in zip(reversed(a), reversed(b)):
                end -= 1
                ai[end] = last - value
                last += bi[end - 1] if end > lo else 0  # row 0 of a triangle is empty
                bi[end] = 0
            top[hi + n] = value
            hi += 1
        elif op[0] == "prepend":
            value, first = op[1], top[lo]
            for ai, bi in zip(reversed(a), reversed(b)):
                end -= 1
                bi[lo - 1] = value - first
                first -= ai[lo] if end > lo else 0
                ai[lo - 1] = 0
            lo -= 1
            top[lo] = value
        else:
            _, start, s, remaining = op
            for _ in range(substeps):
                remaining -= _lift(top, a, b, top[start], s, remaining, lo, hi)
                if not remaining:
                    break
            else:
                raise InternalError("a lift exceeded its proven sub-step bound")
    rows = [top]
    for bi in reversed(b):
        rows.append(list(map(add, rows[-1][1:], bi)))
    rows.reverse()
    return rows


def build_trapezoid(lam: "Sequence[Rat]", lam_bar: "Sequence[Rat]",
                    nu: "Sequence[Rat]") -> "StripConcaveArray":
    """Witness array with boundary ``(lam, lam_bar, 0^n, nu)`` on the trapezoid.

    Each lowering takes the largest exact step at once.  Integer inputs
    yield an integer array.  ``n = 0`` is refused, feasible or not, as no
    configuration has an empty top row; the other lengths are checked as
    :func:`check_general` checks them.
    """
    n, m = len(nu), len(lam_bar)
    return mu_general_build(ConvexConfig.trapezoid(n, m), BoundarySpec(lam, lam_bar, (0,) * n, nu))


def mu_general_build(config: "ConvexConfig", spec: "BoundarySpec") -> "StripConcaveArray":
    """Witness array for an arbitrary convex configuration and boundary.

    Decides once as :func:`check_general` does, and extends once to the
    enclosing trapezoid: the extension the decision was taken on, or on a
    parallelogram one made after a feasible verdict.  The pattern of the
    extended content ``nu - mu`` is solved there, integrated with ``mu``
    and restricted to ``config``; an extension of more than
    :data:`core.CELLS_MAX` entries is refused before it is solved.
    """
    verdict, extension = _decide(config, spec)
    if not verdict.feasible:
        raise InfeasibleError(verdict.certificate)
    tconfig, tspec = extension or extend_to_trapezoid(config, spec)
    n, m = tconfig.n, tconfig.m
    _check((n + 1) * (m + 1) + n * (n + 1) // 2, core.CELLS_MAX, "witness array", "cells")
    rows = _solve_trapezoid(tspec.lam, tspec.lam_bar, tuple(map(sub, tspec.nu, tspec.mu)))
    return restrict_to(integrate(GTPattern(tconfig, rows), tspec.mu), config)


def reduce_to_triangle(lam: "Sequence[Rat]", lam_bar: "Sequence[Rat]") -> tuple:
    """Triangular boundary tuple with the same feasible right boundaries.

    The prefix sums of ``lam'`` are the subset-free parts of the trapezoid
    inequality, ``lam'[1,k] = lam[1,k] - D_k``, so ``lam'`` is their sequence
    of consecutive differences.  With ``mu = 0`` the inequality reads
    ``lam'[1,|I|] - nu(I) >= 0``: a right boundary ``nu`` is feasible for
    ``(lam, lam_bar)`` exactly when it is majorized by ``lam'``.  The result
    is weakly decreasing with ``|lam'| = |lam| - |lam_bar|``.  The data may
    have any sign: the deficits do not move when both tuples move by ``t``,
    so ``lam'`` moves by ``t`` with them.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    profile = deficits(lam, lam_bar)  # refuses unordered tuples and a short lam
    for below, lb, top in zip(lam[len(lam) - len(lam_bar):], lam_bar, lam):
        if not below <= lb <= top:
            raise InputError(
                "incompatible shapes: need lam_{j+n} <= lam_bar_j <= lam_j"
            )
    base = [p - d for p, d in zip(accumulate(lam, initial=0), profile)]
    return tuple(b - a for a, b in zip(base, base[1:]))
