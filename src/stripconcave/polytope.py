"""Facets of the boundary cone and lattice-point counts.

The feasible boundary quadruples of the trapezoid form a polyhedral cone cut
out by subset-indexed linear inequalities; the facet-defining ones admit an
explicit classification.  The number of integer points of the pattern
polytope with fixed ``(lam, lam_bar, nu)`` is a (skew) Kostka coefficient,
computed here by interlacing-row enumeration with prescribed row sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import BoundarySpec, InputError, Rat


@dataclass(frozen=True)
class FacetInequality:
    """A facet of the cone of feasible boundary quadruples.

    ``horn`` facets are indexed by a row subset ``I`` of ``1..n`` and a
    column subset ``J`` of ``1..m`` and assert
    ``lam[1,|I|] + sum_{j in J} lam_{j+|I|} - lam_bar(J) + mu(I) - nu(I) >= 0``;
    ``chamber_lambda`` / ``chamber_lambda_bar`` assert the monotonicity step
    at position ``j``.
    """

    kind: str
    I: tuple = ()
    J: tuple = ()
    j: Optional[int] = None

    def evaluate(self, spec: BoundarySpec) -> Rat:
        if self.kind == "chamber_lambda":
            return spec.lam[self.j - 1] - (
                spec.lam[self.j] if self.j < len(spec.lam) else 0
            )
        if self.kind == "chamber_lambda_bar":
            return spec.lam_bar[self.j - 1] - (
                spec.lam_bar[self.j] if self.j < len(spec.lam_bar) else 0
            )
        k = len(self.I)
        total = sum(spec.lam[:k], 0)
        for j in self.J:
            total = total + spec.lam[j + k - 1] - spec.lam_bar[j - 1]
        for i in self.I:
            total = total + spec.mu[i - 1] - spec.nu[i - 1]
        return total

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "horn":
            out["I"] = list(self.I)
            out["J"] = list(self.J)
        else:
            out["j"] = self.j
        return out


def _subsets(universe):
    items = list(universe)
    out = [()]
    for x in items:
        out += [s + (x,) for s in out]
    return out


FACET_LISTING_MAX = 18


def facets(n: int, m: int) -> list:
    """The facet inequalities of the boundary cone for the (n, m) trapezoid.

    A pair ``(I, J)`` is facet-defining exactly when ``0 < |I|+|J| < n+m``
    and either ``0 < |I| < n`` (any ``J``), or ``|I| = 0`` with ``|J| = 1``,
    or ``|I| = n`` with ``|J| = m - 1``.  The monotonicity steps of ``lam``
    and ``lam_bar`` are facets as well unless ``n = 1`` or ``(n, m) = (2, 0)``.
    Deduplicated, sorted with horn facets first (by ``(|I|+|J|, I, J)``).
    The listing visits all ``2^(n+m)`` pairs, so ``n + m`` is capped at
    :data:`FACET_LISTING_MAX`; :func:`facet_count_consistent` counts any size.
    """
    if n < 1 or m < 0:
        raise InputError("facets need n >= 1 and m >= 0")
    if n + m > FACET_LISTING_MAX:
        raise InputError(
            f"listing facets needs n + m <= {FACET_LISTING_MAX}, got {n + m}; "
            "use --count-only for the number of facets"
        )
    horns = set()
    for I in _subsets(range(1, n + 1)):
        for J in _subsets(range(1, m + 1)):
            k, l = len(I), len(J)
            if not 0 < k + l < n + m:
                continue
            if (0 < k < n) or (k == 0 and l == 1) or (k == n and l == m - 1):
                horns.add((tuple(sorted(I)), tuple(sorted(J))))
    out = [
        FacetInequality("horn", I=I, J=J)
        for I, J in sorted(horns, key=lambda p: (len(p[0]) + len(p[1]), p))
    ]
    if not (n == 1 or (n == 2 and m == 0)):
        out += [FacetInequality("chamber_lambda", j=j) for j in range(1, n + m)]
        out += [FacetInequality("chamber_lambda_bar", j=j) for j in range(1, m)]
    return out


def facet_count_formula(n: int, m: int) -> int:
    """Closed-form facet count: ``(2^n - 2)*2^m + n + 4m - 2`` for n >= 2,
    ``2m`` for n = 1."""
    if n < 1:
        raise InputError("facet count needs n >= 1")
    if n == 1:
        return 2 * m
    return (2**n - 2) * 2**m + n + 4 * m - 2


def facet_count_consistent(n: int, m: int) -> dict:
    """Compare the number of :func:`facets` with the closed-form count.

    The number is read off the classification in :func:`facets` without
    listing the ``2^(n+m)`` subset pairs.  The two disagree for ``m = 0,
    n >= 3`` (the classification yields one more); this reports both
    numbers rather than hiding the discrepancy.
    """
    if n < 1 or m < 0:
        raise InputError("facets need n >= 1 and m >= 0")
    enumerated = (2**n - 2) * 2**m + (m if n + m > 1 else 0) + m
    if not (n == 1 or (n == 2 and m == 0)):
        enumerated += (n + m - 1) + max(0, m - 1)
    formula = facet_count_formula(n, m)
    return {
        "enumerated": enumerated,
        "formula": formula,
        "consistent": enumerated == formula,
    }


# ---------------------------------------------------------------------------
# lattice-point counting
# ---------------------------------------------------------------------------

def _require_ints(*seqs):
    for seq in seqs:
        for v in seq:
            if not isinstance(v, int):
                raise InputError("counting requires integer data")


def kostka(lam: Sequence[int], lam_bar: Sequence[int], nu: Sequence[int]) -> int:
    """Number of integer patterns with boundary ``(lam, lam_bar, nu)``.

    Equals the number of semi-standard skew Young tableaux of shape
    ``lam / lam_bar`` and content ``nu``.  Rows are enumerated from the
    bottom row ``lam`` upward; consecutive rows interlace and row ``i`` must
    sum to ``|lam_bar| + nu_1 + ... + nu_i``, ending at row 0 equal to
    ``lam_bar``.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    nu = tuple(nu)
    _require_ints(lam, lam_bar, nu)
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
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return 0
    if any(lam_bar[i] < lam_bar[i + 1] for i in range(len(lam_bar) - 1)):
        return 0
    sums = [sum(lam_bar)]
    for v in nu:
        sums.append(sums[-1] + v)
    if sums[-1] != sum(lam):
        return 0

    @lru_cache(maxsize=None)
    def above(i: int, row: tuple) -> int:
        # ways to extend upward from row i (given) to row 0 = lam_bar
        if i == 0:
            return 1 if row == lam_bar else 0
        target = sums[i - 1]
        total = 0

        def fill(prefix, remaining):
            nonlocal total
            j = len(prefix)
            if j == len(row) - 1:
                if remaining == 0:
                    total += above(i - 1, prefix)
                return
            lo, hi = row[j + 1], row[j]
            if prefix and prefix[-1] < hi:
                hi = prefix[-1]
            # prune by what later slots can still absorb
            for v in range(hi, lo - 1, -1):
                rest = len(row) - 1 - j - 1
                left = remaining - v
                min_rest = sum(row[j + 2 : j + 2 + rest], 0)
                max_rest = sum(row[j + 1 : j + 1 + rest], 0)
                if min_rest <= left <= max_rest:
                    fill(prefix + (v,), left)

        fill((), target)
        return total

    if n == 0:
        return 1 if lam == lam_bar else 0
    return above(n, lam)


def count_scaled_points(
    lam: Sequence[int], lam_bar: Sequence[int], nu: Sequence[int], k: int
) -> int:
    """Number of points whose entries are integer multiples of ``1/k``.

    By homogeneity this is the integer count for the boundary scaled by
    ``k``; equal for all rearrangements of ``nu``.
    """
    if not isinstance(k, int) or k < 1:
        raise InputError("k must be a positive integer")
    _require_ints(lam, lam_bar, nu)
    return kostka(
        tuple(k * v for v in lam),
        tuple(k * v for v in lam_bar),
        tuple(k * v for v in nu),
    )
