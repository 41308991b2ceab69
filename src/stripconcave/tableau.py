"""Semi-standard skew Young tableaux and their pattern correspondence.

An integer pattern with nonnegative rows encodes a chain of nested
partitions; recording, for each cell, the first chain index covering it
yields a semi-standard skew tableau of shape ``outer / inner`` whose content
is the right-minus-left boundary of any integrating array.  Rows are
1-indexed top-down and columns 1-indexed left-right.
"""
from bisect import bisect_right
from itertools import chain, compress, repeat
from operator import add, le, lt, sub

from .core import ConvexConfig, GTPattern, InputError, Record, _check_cells, _is_int, _set


class SkewTableau(Record):
    """Filling of the cells of ``outer`` outside ``inner``.

    ``rows[r-1]`` lists the entries of row ``r`` left to right, occupying
    columns ``inner_r + 1 .. outer_r``.  Entries weakly increase along rows,
    strictly increase down columns, and lie in ``1..n`` where
    ``n = len(outer) - len(inner)``.  Each row is checked whole, against
    itself shifted by one and against the aligned part of the row above;
    an error names the first failing row or column.
    """

    __slots__ = ("outer", "inner", "rows")

    def __init__(self, outer: tuple, inner: tuple, rows: tuple):
        outer, inner, rows = tuple(outer), tuple(inner), tuple(tuple(r) for r in rows)
        _set(self, "outer", outer)
        _set(self, "inner", inner)
        _set(self, "rows", rows)
        for name, part in (("outer", outer), ("inner", inner)):
            if any(not _is_int(v) or v < 0 for v in part):
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
            if row and not (set(map(type, row)) <= {int} and 1 <= min(row) and max(row) <= n):
                if any(not _is_int(v) or not 1 <= v <= n for v in row):
                    raise InputError(f"entries must be integers in 1..{n}")
            if not all(map(le, row, row[1:])):
                raise InputError(f"row {r + 1} must be weakly increasing")
        for r in range(1, len(outer)):
            # pad decreases, so both start at column pad[r - 1] + 1; zip stops at the overlap
            upper, lower = rows[r - 1], rows[r][pad[r - 1] - pad[r]:]
            if not all(map(lt, upper, lower)):
                k = next(k for k, (u, v) in enumerate(zip(upper, lower)) if u >= v)
                raise InputError(f"column {pad[r - 1] + k + 1} must strictly increase downward")

    @classmethod
    def from_json(cls, data: dict) -> "SkewTableau":
        try:
            return cls(tuple(data["outer"]), tuple(data["inner"]), tuple(map(tuple, data["rows"])))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed tableau JSON: {exc}") from exc


def _padded_chain(p: "GTPattern"):
    """Pattern rows as nested partitions, padded with zeros to full length."""
    c = p.config
    if not c.is_trapezoidal:
        raise InputError("tableaux correspond to trapezoidal patterns")
    n, m = c.n, c.m
    width = n + m
    parts = []
    for row in p.rows:
        if not (set(map(type, row)) <= {int} and min(row, default=0) >= 0):
            if not all(map(_is_int, row)):
                raise InputError("tableaux need an integer pattern")
            if any(v < 0 for v in row):
                raise InputError("tableaux need nonnegative pattern rows; shift first")
        parts.append(row + (0,) * (width - len(row)))
    return parts, n, m


def pattern_to_tableau(p: "GTPattern") -> "SkewTableau":
    """Tableau whose entry at each cell is the first chain index covering it.

    Row ``i`` of the pattern is a partition; consecutive rows are nested, and
    the cells added at step ``i`` all receive entry ``i``.  The content of
    the result is the right boundary of the pattern integrated with zero
    left boundary.  A shape of more than :data:`core.CELLS_MAX` cells
    (``|outer| - |inner|``) is refused before any cell is made.
    """
    parts, n, m = _padded_chain(p)
    if not all(all(map(le, a, b)) for a, b in zip(parts, parts[1:])):
        raise InputError("pattern rows are not nested partitions")
    _check_cells(sum(parts[n]) - sum(parts[0]), "tableau")
    steps, rows = range(1, n + 1), []
    for col in zip(*parts):  # only the steps that add cells to this row are repeated
        gaps = [*map(sub, col[1:], col)]
        rows.append(tuple(chain.from_iterable(map(repeat, compress(steps, gaps), filter(None, gaps)))))
    return SkewTableau(parts[n], parts[0][:m], rows)


def tableau_to_pattern(t: "SkewTableau") -> "GTPattern":
    """The pattern whose row ``i`` is the region occupied by entries ``<= i``
    together with the inner shape; inverse of ``pattern_to_tableau``.  Its
    entries are counted against :data:`core.CELLS_MAX` before any is made."""
    m = len(t.inner)
    n = len(t.outer) - m
    _check_cells((n + 1) * m + n * (n + 1) // 2, "pattern")
    pad = t.inner + (0,) * n
    # row m + k holds no entry < k: a column strictly increases from 1 down from row m + 1
    rows = tuple(tuple(map(add, pad, map(bisect_right, t.rows[:i + m], repeat(i))))
                 for i in range(n + 1))
    return GTPattern(ConvexConfig.trapezoid(n, m), rows)


def content(t: "SkewTableau") -> tuple:
    """How many times each entry ``1..n`` occurs."""
    n = len(t.outer) - len(t.inner)
    counts = [0] * n
    for row in t.rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)
