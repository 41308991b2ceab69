"""Witness construction for feasible boundary data.

The trapezoidal case repeatedly truncates matching extreme entries of the
two boundary tuples and otherwise lowers a run of entries of both tuples by a
common step, rebuilding the array through a ramp lift.  The step is the
largest one that keeps the tuples ordered (with the lift applied in exact
sub-steps).  Once ``lam_bar`` is empty, the triangle that is left is solved
row by row, peeling the last entry of ``nu`` off ``lam``; a triangle is the
trapezoid with ``m = 0`` and goes through the same builder.  The output is
integral for integer data, and on the triangle it is a vertex of the
corresponding polytope.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain
from operator import neg
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
    derivative,
    extend_to_trapezoid,
    integrate,
    is_weakly_decreasing,
    restrict_to,
    shift_mu,
)
from .feasibility import check_general, check_trapezoid


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
    m = len(lab)
    top = lab[0]
    r = max(j for j in range(1, len(lam) + 1) if lam[j - 1] >= top)
    s = 1
    while s < m and lab[s] == top:
        s += 1
    return r, s


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


def _solve_trapezoid(lam: tuple, lab: tuple, nu: tuple) -> list:
    """Pattern rows for a feasible normalized spec (mu = 0, lam nonnegative)."""
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
            rows = [list(r) for r in _triangular_rows(lam, nu)]
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
        lam = tuple(v - step if r - s + 1 <= j + 1 <= r else v for j, v in enumerate(lam))
        lab = tuple(v - step if j < s else v for j, v in enumerate(lab))
    for op in reversed(ops):
        if op[0] == "column":
            # re-add the truncated column: every row derivative there is value
            value = op[1]
            for row in rows:
                row.append(value)
        elif op[0] == "prepend":
            value = op[1]
            for row in rows:
                row.insert(0, value)
        else:
            _, r, s, step = op
            if step == 1 and integral:
                shape = _ramp_shape(rows, rows[-1][r - s])
                _apply_lift(rows, shape, s, 1)
            else:
                remaining = step
                inner_cap = 10 * (size + 1) ** 2
                inner = 0
                while remaining > 0:
                    inner += 1
                    if inner > inner_cap:
                        raise InternalError("lift phase exceeded its iteration cap")
                    shape = _ramp_shape(rows, rows[-1][r - s])
                    eps = _max_substep(rows, shape, s, remaining)
                    if eps <= 0:
                        raise InternalError("lift phase stalled with zero slack")
                    _apply_lift(rows, shape, s, eps)
                    remaining = remaining - eps
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
    yield an integer array.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    nu = tuple(nu)
    n, m = len(nu), len(lam_bar)
    if len(lam) != n + m:
        raise InputError("lambda must have length n+m")
    spec = BoundarySpec(lam, lam_bar, (0,) * n, nu)
    verdict = check_trapezoid(spec, n, m)
    if not verdict.feasible:
        raise InfeasibleError(verdict.certificate)
    # shift so that lambda is nonnegative (adds a constant to every pattern
    # entry and to each nu entry)
    t = max(0, -(min(lam, default=0) // 1))  # an int, so int entries stay int
    rows = _solve_trapezoid(
        tuple(v + t for v in lam),
        tuple(v + t for v in lam_bar),
        tuple(v + t for v in nu),
    )
    if t:
        rows = [[v - t for v in row] for row in rows]
    pattern = GTPattern(ConvexConfig.trapezoid(n, m), tuple(tuple(r) for r in rows))
    return integrate(pattern)


def mu_general_build(config: ConvexConfig, spec: BoundarySpec) -> StripConcaveArray:
    """Witness array for an arbitrary convex configuration and boundary.

    Extends to the trapezoid, normalizes the left boundary away, builds a
    trapezoidal witness, then undoes the shift and restricts back.
    """
    verdict = check_general(config, spec)
    if not verdict.feasible:
        raise InfeasibleError(verdict.certificate)
    tconfig, tspec = extend_to_trapezoid(config, spec)
    normalized = shift_mu(tspec)
    flat = build_trapezoid(normalized.lam, normalized.lam_bar, normalized.nu)
    witness = integrate(derivative(flat), tspec.mu)
    return restrict_to(witness, config)


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
    for j in range(len(lam_bar)):
        below = lam[j + n] if j + n < len(lam) else 0
        if not below <= lam_bar[j] <= lam[j]:
            raise InputError(
                "incompatible shapes: need lam_{j+n} <= lam_bar_j <= lam_j"
            )
    base = [p - d for p, d in zip(accumulate(lam, initial=0), deficits(lam, lam_bar, n))]
    return tuple(b - a for a, b in zip(base, base[1:]))
