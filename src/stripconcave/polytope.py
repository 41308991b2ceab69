"""Facets of the boundary cone and lattice-point counts.

The feasible boundary quadruples of the trapezoid form a polyhedral cone cut
out by subset-indexed linear inequalities; the facet-defining ones admit an
explicit classification.  The number of integer points of the pattern
polytope with fixed ``(lam, lam_bar, nu)`` is a (skew) Kostka coefficient,
counted cell by cell on a frontier of partial patterns (the transfer-matrix
method) whose states are capped.
"""
from itertools import chain, combinations, repeat

from . import core
from .core import BoundarySpec, InputError, Record, _check, _is_int, _set
from .feasibility import check_trapezoid


class FacetInequality(Record):
    """A facet of the cone of feasible boundary quadruples.

    ``horn`` facets are indexed by a row subset ``I`` of ``1..n`` and a
    column subset ``J`` of ``1..m`` and assert
    ``lam[1,|I|] + sum_{j in J} lam_{j+|I|} - lam_bar(J) + mu(I) - nu(I) >= 0``;
    ``chamber_lambda`` / ``chamber_lambda_bar`` assert the monotonicity step
    at position ``j``.
    """

    __slots__ = ("kind", "I", "J", "j")

    def __init__(self, kind: str, I: tuple = (), J: tuple = (), j: "Optional[int]" = None):
        _set(self, "kind", kind)
        _set(self, "I", I)
        _set(self, "J", J)
        _set(self, "j", j)

    def evaluate(self, spec: "BoundarySpec") -> "Rat":
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
        """The record's own ``I`` and ``J`` tuples, which ``json`` writes as arrays."""
        if self.kind == "horn":
            return {"kind": "horn", "I": self.I, "J": self.J}
        return {"kind": self.kind, "j": self.j}


FACET_LISTING_MAX = 18  # n + m: (9, 9) lists 261 163 facets at 107 MB peak RSS
KOSTKA_STATES_MAX = 1_300_000  # summed over cells; the tests' largest count makes 1 269 281


def _require_shape(n, m) -> None:
    if not (_is_int(n) and _is_int(m)):
        raise InputError("facets need integer n and m")
    if n < 1 or m < 0:
        raise InputError("facets need n >= 1 and m >= 0")


def _chamber_steps(n: int, m: int) -> tuple:
    """The monotonicity steps ``j`` of ``lam`` and of ``lam_bar`` that
    :func:`facets` lists; :func:`facet_count` sums their lengths."""
    if n == 1 or (n, m) == (2, 0):
        return range(0), range(0)
    return range(1, n + m), range(1, m)


def facets(n: int, m: int) -> list:
    """The facet inequalities of the boundary cone for the (n, m) trapezoid.

    A pair ``(I, J)`` is facet-defining exactly when ``0 < |I|+|J| < n+m``
    and either ``0 < |I| < n`` (any ``J``), or ``|I| = 0`` with ``|J| = 1``,
    or ``|I| = n`` with ``|J| = m - 1``.  The monotonicity steps of ``lam``
    and ``lam_bar`` are facets as well unless ``n = 1`` or ``(n, m) = (2, 0)``.
    The tests prove this exact on every shape with ``n + m <= 5`` by an exact
    LP: each listed inequality is irredundant, and each left out is implied.
    Listed with horn facets first, in ``(|I|+|J|, I, J)`` order, from one
    pass over the sorted row subsets; the horn facets are made by one call of
    :meth:`~stripconcave.core.Record._trusted`, with no ``__init__`` per facet.
    The listing has about ``2^(n+m)`` entries, so ``n + m`` is capped at
    :data:`FACET_LISTING_MAX`; :func:`facet_count` counts up to
    ``n + m = 10^6``.  A facet and its ``to_json`` take about 265 B
    (tracemalloc, ``(7, 7)``), and ``stripconcave facets --n 9 --m 9`` prints
    its 261 163 facets in about 0.8 s at 107 MB peak RSS (2 CPUs, Python 3.11).
    """
    _require_shape(n, m)
    _check(n + m, FACET_LISTING_MAX, "facet listing", "(n + m)", "; --count-only counts the facets")
    # the column subsets of the listed sizes: all of them, but |J| = 1 and m - 1 for n = 1
    cols = [tuple(combinations(range(1, m + 1), l)) if n > 1 or l in (1, m - 1) else ()
            for l in range(m + 1)]
    # per |I| + |J|, each I in sorted order: the I of each facet (a run per I) and its J
    Is, Js = [[] for _ in range(n + m)], [[] for _ in range(n + m)]
    for I in sorted(I for k in range(n + 1) for I in combinations(range(1, n + 1), k)):
        k = len(I)
        for l in range(m + 1):
            if (0 < k < n) or (k == 0 and l == 1) or (k == n and l == m - 1):
                Is[k + l].append(repeat(I, len(cols[l])))
                Js[k + l].append(cols[l])
    # the classification above makes each (I, J); FacetInequality.__init__ would check nothing
    I_col, J_col = (chain.from_iterable(chain.from_iterable(runs)) for runs in (Is, Js))
    out = FacetInequality._trusted(sum(map(len, chain.from_iterable(Js))), repeat("horn"), I_col, J_col,
                                   repeat(None))
    lam_steps, bar_steps = _chamber_steps(n, m)
    out += [FacetInequality("chamber_lambda", j=j) for j in lam_steps]
    out += [FacetInequality("chamber_lambda_bar", j=j) for j in bar_steps]
    return out


def facet_count(n: int, m: int) -> int:
    """The number of :func:`facets`, read off its classification without
    listing the ``2^(n+m)`` subset pairs: ``(2^n - 2) 2^m`` pairs with
    ``0 < |I| < n``, ``m`` with ``|I| = 0`` and ``m`` with ``|I| = n``, and the
    chamber steps.  For ``n > 1`` the count lies in ``[2^(n+m-1), 2^(n+m+1))``,
    and ``n + m``, its binary digits, is counted as cells against
    :data:`core.CELLS_MAX` before it is computed: ``n + m = 10^6`` takes about
    9 ms.  For ``n = 1`` it is ``2m``, and no power of 2 is made.
    """
    _require_shape(n, m)
    if n > 1:
        _check(n + m, core.CELLS_MAX, "facet count", "binary digits")
    return ((2**n - 2) * 2**m if n > 1 else 0) + 2 * m + sum(map(len, _chamber_steps(n, m)))


# ---------------------------------------------------------------------------
# lattice-point counting
# ---------------------------------------------------------------------------

def _require_ints(*seqs):
    if not all(all(map(_is_int, seq)) for seq in seqs):
        raise InputError("counting requires integer data")


def kostka(lam: "Sequence[int]", lam_bar: "Sequence[int]", nu: "Sequence[int]") -> int:
    """Number of integer patterns with boundary ``(lam, lam_bar, nu)``.

    Equals the number of semi-standard skew Young tableaux of shape
    ``lam / lam_bar`` and content ``nu``.  It is 0 exactly when
    :func:`~stripconcave.feasibility.check_trapezoid` rejects the data with
    ``mu = 0`` (integer data that passes has an integral witness).  Else,
    with ``nu`` sorted ascending (the count is symmetric in it; that order
    needed the fewest states on seeded shapes), it counts up from ``lam`` one
    cell at a time: row ``i`` interlaces row ``i + 1`` and sums to
    ``|lam_bar| + nu_1 + ... + nu_i``, and the state after cell ``k`` of row
    ``i`` is that row up to cell ``k`` and row ``i + 1`` from cell ``k + 1``
    on; equal states merge.  It raises :class:`InputError` before a cell would
    bring the frontier states created, summed over cells, past :data:`KOSTKA_STATES_MAX`.
    """
    lam, lam_bar, nu = tuple(lam), tuple(lam_bar), tuple(nu)
    _require_ints(lam, lam_bar, nu)
    n, m = len(nu), len(lam_bar)
    # trailing zero parts are empty rows; rows beyond n+m cannot be filled
    if any(lam[n + m:]):
        return 0
    lam = lam[:n + m] + (0,) * (n + m - len(lam))  # a short lam ending below 0 now rises
    if not check_trapezoid(BoundarySpec(lam, lam_bar, (0,) * n, nu), n, m).feasible:
        return 0
    nu = sorted(nu)
    states = {lam: 1}  # frontier state -> ways it reaches lam
    total, created = sum(lam), 0  # created: states made so far, summed over cells
    for i in range(n - 1, -1, -1):
        total -= nu[i]
        # the chains up to row 0 (see interlacing_bounds): lam_bar[k] <= row_i[k] <= lam_bar[k-i]
        floor, ceil = lam_bar + (lam[-1],) * i, (lam[0],) * i + lam_bar
        for k, f, c in zip(range(m + i), floor, ceil):
            stop = None if k < m + i - 1 else k + 1  # the last cell drops row i + 1's last
            grown = []
            for s, ways in states.items():
                # cell k lies in [a, b] and leaves cells k+1.. of the row a sum
                # between those of s[k+2:] and s[k+1:-1]; if-else beats max/min here
                b, a = s[k], s[k + 1]
                d = total - sum(s) + b
                lo, hi = d + s[-1], d + a
                lo, hi = (a if lo < a else lo), (b if hi > b else hi)
                lo, hi = (f if lo < f else lo), (c if hi > c else hi)
                if lo <= hi:
                    grown.append((s[:k], s[k + 1:stop], ways, lo, hi))
                    created += hi - lo + 1
            _check(created, KOSTKA_STATES_MAX, "count", "frontier states")
            states = {}
            for head, tail, ways, lo, hi in grown:
                for v in range(lo, hi + 1):
                    t = (*head, v, *tail)
                    states[t] = states.get(t, 0) + ways
    # every cell of row 0 is pinned to lam_bar; for m = 0 the last row built is row 1
    return sum(states.values())


def count_scaled_points(
    lam: "Sequence[int]", lam_bar: "Sequence[int]", nu: "Sequence[int]", k: int
) -> int:
    """Number of points whose entries are integer multiples of ``1/k``.

    By homogeneity this is the integer count for the boundary scaled by
    ``k``; equal for all rearrangements of ``nu``.
    """
    if not _is_int(k) or k < 1:
        raise InputError("k must be a positive integer")
    _require_ints(lam, lam_bar, nu)
    return kostka(
        tuple(k * v for v in lam),
        tuple(k * v for v in lam_bar),
        tuple(k * v for v in nu),
    )
