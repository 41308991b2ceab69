"""Built-in worked examples used throughout the tests and the CLI.

A hexagonal array with a fractional entry, an integer trapezoidal array
with its derivative pattern, the flow image of that pattern, the flow after
the layer-2 zigzag swap, and the corresponding skew tableau.
"""
from __future__ import annotations

from fractions import Fraction

from .core import ConvexConfig, GTPattern, StripConcaveArray, array_to_json, pattern_to_json
from .flow import Flow, flow_to_json
from .tableau import SkewTableau


def hexagon_array() -> StripConcaveArray:
    """A strip-concave array on a hexagonal configuration (one entry is 11/2)."""
    config = ConvexConfig(3, (0, 0, 0, 1), (2, 3, 3, 3))
    rows = (
        (0, 2, 3),
        (2, 4, Fraction(11, 2), 4),
        (0, 3, 5, 4),
        (5, 8, 8),
    )
    return StripConcaveArray(config, rows)


def hexagon_pattern() -> GTPattern:
    """The row derivative of :func:`hexagon_array`."""
    config = ConvexConfig(3, (0, 0, 0, 1), (2, 3, 3, 3))
    rows = (
        (2, 1),
        (2, Fraction(3, 2), Fraction(-3, 2)),
        (3, 2, -1),
        (3, 0),
    )
    return GTPattern(config, rows)


def trapezoid_array() -> StripConcaveArray:
    """An integer strip-concave array on the (3, 2) trapezoid."""
    config = ConvexConfig.trapezoid(3, 2)
    rows = (
        (0, 5, 7),
        (1, 6, 9, 11),
        (-6, -1, 3, 5, 6),
        (-8, -2, 2, 5, 6, 7),
    )
    return StripConcaveArray(config, rows)


def trapezoid_pattern() -> GTPattern:
    """The row derivative of :func:`trapezoid_array` (a skew GT pattern)."""
    config = ConvexConfig.trapezoid(3, 2)
    rows = (
        (5, 2),
        (5, 3, 2),
        (5, 4, 2, 1),
        (6, 4, 3, 1, 1),
    )
    return GTPattern(config, rows)


def trapezoid_flow() -> Flow:
    """The flow image of :func:`trapezoid_pattern`."""
    return Flow(
        3, 2,
        e0=((1, 2, 0), (1, 1, 1, 1), (0, 1, 1, 1, 0)),
        e1=((0, 1, 2), (0, 1, 0, 1), (1, 0, 1, 0, 1)),
    )


def swapped_flow() -> Flow:
    """:func:`trapezoid_flow` after the zigzag swap around layer 2.

    The right boundary changes from (3, 2, 3) to (3, 3, 2).
    """
    return Flow(
        3, 2,
        e0=((1, 2, 0), (0, 2, 0, 1), (0, 2, 0, 2, 0)),
        e1=((0, 1, 2), (1, 0, 1, 1), (0, 1, 0, 0, 1)),
    )


def skew_tableau() -> SkewTableau:
    """The tableau of shape (6,4,3,1,1)/(5,2) encoding :func:`trapezoid_pattern`."""
    return SkewTableau(
        outer=(6, 4, 3, 1, 1),
        inner=(5, 2),
        rows=((3,), (1, 2), (1, 1, 3), (2,), (3,)),
    )


def all_fixtures() -> dict:
    """Every fixture as JSON-ready data, keyed by a descriptive name."""
    return {
        "hexagon_array": array_to_json(hexagon_array()),
        "hexagon_pattern": pattern_to_json(hexagon_pattern()),
        "trapezoid_array": array_to_json(trapezoid_array()),
        "trapezoid_pattern": pattern_to_json(trapezoid_pattern()),
        "flow": flow_to_json(trapezoid_flow()),
        "flow_swapped": flow_to_json(swapped_flow()),
        "tableau": skew_tableau().to_json(),
    }
