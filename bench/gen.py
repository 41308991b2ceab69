"""Seeded input generators for the stripconcave benchmark.

Everything here is written from the definitions in the README and never
calls the library, so the inputs do not depend on the code being measured.

Conventions (0-based lists):

* A trapezoid pattern of size ``(n, m)`` has rows ``0..n``; row ``i`` holds
  ``i + m`` entries.  Row ``n`` is ``lambda``, row ``0`` is ``lambda_bar``.
* Interlacing: entry ``j`` of row ``i - 1`` lies in ``[row_i[j+1], row_i[j]]``.
* An array integrates a pattern row by row from a left column ``x_{i,a_i}``
  whose steps are ``mu``; ``nu_i`` is the step of the right column.
"""
from __future__ import annotations

import json
import random


def uniform(rng: random.Random, lo: int, hi: int) -> int:
    """Integer uniform on ``[lo, hi]``; cheaper than ``Random.randint``."""
    return lo + int(rng.random() * (hi - lo + 1))


def decreasing(rng: random.Random, length: int, lo: int, hi: int) -> list:
    return sorted((uniform(rng, lo, hi) for _ in range(length)), reverse=True)


def strictly_decreasing(rng: random.Random, length: int, lo: int, hi: int) -> list:
    return sorted(rng.sample(range(lo, hi + 1), length), reverse=True)


def up_row(rng: random.Random, row: list) -> list:
    """A random row one shorter than ``row`` that interlaces it."""
    return [uniform(rng, row[j + 1], row[j]) for j in range(len(row) - 1)]


def pattern_rows(rng: random.Random, n: int, m: int, hi: int, bottom=None) -> list:
    """Rows ``0..n`` of a random integer trapezoid pattern with entries in ``[0, hi]``."""
    row = list(bottom) if bottom is not None else decreasing(rng, n + m, 0, hi)
    rows = [row]
    for _ in range(n):
        row = up_row(rng, row)
        rows.append(row)
    rows.reverse()
    return rows


def trapezoid_boundary(rng: random.Random, n: int, m: int, hi: int, mu_span: int = 0) -> dict:
    """Boundary of a random pattern, with a random left column when ``mu_span > 0``.

    Only the current row is kept, so ``n = 800`` stays cheap in memory.
    """
    row = decreasing(rng, n + m, 0, hi)
    lam = tuple(row)
    sums = [sum(row)]
    for _ in range(n):
        row = up_row(rng, row)
        sums.append(sum(row))
    sums.reverse()
    mu = [uniform(rng, -mu_span, mu_span) if mu_span else 0 for _ in range(n)]
    nu = [mu[i] + sums[i + 1] - sums[i] for i in range(n)]
    return {"lam": list(lam), "lam_bar": list(row), "mu": mu, "nu": nu}


def parallelogram_boundary(rng: random.Random, n: int, m: int, hi: int) -> dict:
    """Boundary of a random pattern on the ``(n, m)`` parallelogram.

    Every row has ``m`` entries; the last entry of row ``i - 1`` is only
    bounded above by the last entry of row ``i``.
    """
    row = decreasing(rng, m, 0, hi)
    lam = tuple(row)
    sums = [sum(row)]
    for _ in range(n):
        row = up_row(rng, row) + [uniform(rng, 0, row[-1])]
        sums.append(sum(row))
    sums.reverse()
    nu = [sums[i + 1] - sums[i] for i in range(n)]
    return {"lam": list(lam), "lam_bar": list(row), "mu": [0] * n, "nu": nu}


def integrate(rows: list, mu: list) -> list:
    """Array rows from pattern rows and left steps ``mu``."""
    out = []
    left = 0
    for i, prow in enumerate(rows):
        if i:
            left += mu[i - 1]
        row = [left]
        for d in prow:
            row.append(row[-1] + d)
        out.append(row)
    return out


def array_boundary(a: list, b: list, xrows: list) -> dict:
    """Boundary of an array stored per row for columns ``a_i..b_i``."""
    n = len(a) - 1
    diff = [[r[k] - r[k - 1] for k in range(1, len(r))] for r in (xrows[0], xrows[n])]
    mu = [xrows[i][0] - xrows[i - 1][0] for i in range(1, n + 1)]
    nu = [xrows[i][-1] - xrows[i - 1][-1] for i in range(1, n + 1)]
    return {"lam": diff[1], "lam_bar": diff[0], "mu": mu, "nu": nu}


def hexagon(rng: random.Random, n: int, hi: int, mu_span: int = 5) -> tuple:
    """A random array restricted from the ``(n, n // 2)`` trapezoid to a hexagon.

    The hexagon is ``a_i = max(0, i - p)`` and ``b_i = m + min(i, q)`` with
    seeded corners ``p`` just above ``n/2`` and ``q`` near ``n/3``.  Narrow
    ranges keep the cost alike from seed to seed, and ``n - m <= p`` with
    ``q < p`` leaves subset sizes ``k >= n - p + q`` whose inequality does
    not involve the reduction constant (see ``make_infeasible``).  Returns
    the config as JSON data, the boundary and the restricted array rows.
    """
    m = max(1, n // 2)
    rows = pattern_rows(rng, n, m, hi)
    mu = [uniform(rng, -mu_span, mu_span) for _ in range(n)]
    x = integrate(rows, mu)
    p = uniform(rng, n - m, n - m + n // 8)
    q = uniform(rng, max(1, n // 3 - n // 8), n // 3 + n // 8)
    a = [max(0, i - p) for i in range(n + 1)]
    b = [m + min(i, q) for i in range(n + 1)]
    xr = [x[i][a[i] : b[i] + 1] for i in range(n + 1)]
    return {"n": n, "a": a, "b": b}, array_boundary(a, b, xr), xr


def spec_json(spec: dict) -> str:
    return json.dumps(
        {"lambda": spec["lam"], "lambda_bar": spec["lam_bar"], "mu": spec["mu"], "nu": spec["nu"]}
    )


# ---------------------------------------------------------------------------
# infeasible inputs: push nu past one subset inequality
# ---------------------------------------------------------------------------

def deficit(lam, lam_bar, k: int) -> int:
    """``D_k = sum_j max(0, lam_bar_{j-k} - lam_j)`` over ``1 <= j - k <= m``."""
    total = 0
    for t in range(len(lam_bar)):
        j = t + k  # 0-based index into lam
        if j < len(lam):
            d = lam_bar[t] - lam[j]
            if d > 0:
                total += d
    return total


def linear_constant(spec: dict) -> int:
    """A reduction constant from which the extension is linear in the constant.

    With ``alpha`` the largest absolute boundary entry, any ``c > alpha``
    fixes the sign of every deficit term, and ``c > 4 alpha`` fixes the order
    of the rows by ``nu - mu``.  So for ``c >= linear_constant(spec)`` every
    subset inequality of the extension reads ``A + B c``, and two values of
    ``c`` give ``A`` and ``B``, whatever constant the library uses.
    """
    entries = list(spec["lam"]) + list(spec["lam_bar"]) + list(spec["mu"]) + list(spec["nu"])
    return 4 * max((abs(e) for e in entries), default=0) + 1


def extend(config: dict, spec: dict, c: int) -> dict:
    """The boundary extension of a convex configuration to its trapezoid,
    with reduction constant ``c``."""
    n, a, b = config["n"], config["a"], config["b"]
    lam, mu, nu = list(spec["lam"]), list(spec["mu"]), list(spec["nu"])
    trapezoidal = all(v == 0 for v in a) and all(b[i] == b[0] + i for i in range(n + 1))
    if trapezoidal:
        return {"lam": lam, "lam_bar": list(spec["lam_bar"]), "mu": mu, "nu": nu}
    if a[n] != 0:
        p = max(i for i in range(n + 1) if a[i] == 0)
        lam = [c] * (n - p) + lam
        for i in range(p, n):
            mu[i] -= c
    if b[n] < b[0] + n:
        q = max(i for i in range(n + 1) if b[i] == b[0] + i)
        lam = lam + [-c] * (n - q)
        for i in range(q, n):
            nu[i] -= c
    return {"lam": lam, "lam_bar": list(spec["lam_bar"]), "mu": mu, "nu": nu}


def subset_base(shape: str, spec: dict, k: int):
    """Subset-free part of the size-``k`` inequality and the deficit it uses.

    ``shape`` is ``trapezoid`` or ``parallelogram``; a general configuration
    is handled by extending it first.  The deficit is ``None`` where the
    parallelogram inequality has saturated (``k > m``).
    """
    lam, lam_bar = spec["lam"], spec["lam_bar"]
    m = len(lam_bar)
    if shape == "parallelogram" and k > m:
        return sum(lam) - sum(lam_bar), None
    d = deficit(lam, lam_bar, k)
    base = sum(lam[:k]) - d
    if shape == "parallelogram":
        base -= sum(lam_bar[m - k :])
    return base, d


def subset_lhs(shape: str, spec: dict, subset) -> tuple:
    """``(lhs, deficit)`` of the inequality for a 1-based row subset."""
    base, d = subset_base(shape, spec, len(subset))
    return base + sum(spec["mu"][i - 1] - spec["nu"][i - 1] for i in subset), d


def make_infeasible(rng: random.Random, shape: str, spec: dict, config: dict = None) -> tuple:
    """Push ``nu`` past the size-``k`` inequality for a seeded ``k``.

    The tightest size-``k`` subset ``I`` (largest ``nu - mu``) has slack
    ``s >= 0``; moving ``s + delta`` of ``nu`` from a row outside ``I`` to a
    row inside it keeps the balance and makes that inequality read
    ``-delta``.  For a general configuration only sizes whose slack does not
    involve the reduction constant (the same for ``c`` and ``2c``, with ``c``
    from :func:`linear_constant`) are used,
    so the data stays small.
    Returns the new boundary and the violated ``k``.
    """
    n = len(spec["nu"])

    def slacks(work, shape):
        weights = [work["nu"][i] - work["mu"][i] for i in range(n)]
        order = sorted(range(n), key=lambda i: (-weights[i], i))
        return order, [
            subset_base(shape, work, k)[0] - sum(weights[i] for i in order[:k]) for k in range(n)
        ]

    if config is None:
        order, slack = slacks(spec, shape)
        candidates = [(k, slack[k]) for k in range(1, n)]
    else:
        c = linear_constant(spec)
        order, slack = slacks(extend(config, spec, c), "trapezoid")
        _, doubled = slacks(extend(config, spec, 2 * c), "trapezoid")
        candidates = [(k, slack[k]) for k in range(1, n) if slack[k] == doubled[k]]
    if not candidates:
        raise ValueError("no subset size with a slack free of the reduction constant")
    k, s = candidates[uniform(rng, 0, len(candidates) - 1)]
    delta = uniform(rng, 1, 9)
    inside = order[uniform(rng, 0, k - 1)]
    outside = order[uniform(rng, k, n - 1)]
    nu = list(spec["nu"])
    nu[inside] += s + delta
    nu[outside] -= s + delta
    return dict(spec, nu=nu), k


# ---------------------------------------------------------------------------
# skew shapes for counting and vertex enumeration
# ---------------------------------------------------------------------------

def skew_pattern(rng: random.Random, n: int, m: int, hi: int) -> list:
    """Rows of a random pattern whose bottom row has distinct parts."""
    return pattern_rows(rng, n, m, hi, bottom=strictly_decreasing(rng, n + m, 0, hi))


def content_of(rows: list) -> list:
    """Right-boundary steps (tableau content) of a pattern with zero left side."""
    sums = [sum(r) for r in rows]
    return [sums[i] - sums[i - 1] for i in range(1, len(rows))]


def pattern_spec(rows: list) -> dict:
    """Boundary of the array integrating a trapezoid pattern with zero left side."""
    n = len(rows) - 1
    return {"lam": rows[n], "lam_bar": rows[0], "mu": [0] * n, "nu": content_of(rows)}
