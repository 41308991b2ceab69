"""Built-in worked examples used throughout the tests and the CLI.

Two arrays are stored: a hexagonal array with a fractional entry and an
integer trapezoidal array.  The rest is derived by the library: the
derivative pattern of each, the flow image of the trapezoidal array, that
flow after the layer-2 zigzag swap, and the skew tableau of its pattern.
"""
from fractions import Fraction

from .core import ConvexConfig, StripConcaveArray, array_to_json, derivative, pattern_to_json
from .flow import flow_to_json, gamma, swap_flow
from .tableau import pattern_to_tableau


def hexagon_array() -> "StripConcaveArray":
    """A strip-concave array on a hexagonal configuration (one entry is 11/2)."""
    config = ConvexConfig(3, (0, 0, 0, 1), (2, 3, 3, 3))
    rows = (
        (0, 2, 3),
        (2, 4, Fraction(11, 2), 4),
        (0, 3, 5, 4),
        (5, 8, 8),
    )
    return StripConcaveArray(config, rows)


def trapezoid_array() -> "StripConcaveArray":
    """An integer strip-concave array on the (3, 2) trapezoid."""
    config = ConvexConfig.trapezoid(3, 2)
    rows = (
        (0, 5, 7),
        (1, 6, 9, 11),
        (-6, -1, 3, 5, 6),
        (-8, -2, 2, 5, 6, 7),
    )
    return StripConcaveArray(config, rows)


def all_fixtures() -> dict:
    """Every fixture as JSON-ready data, keyed by a descriptive name."""
    hexagon, trapezoid = hexagon_array(), trapezoid_array()
    pattern, flow = derivative(trapezoid), gamma(trapezoid)
    return {
        "hexagon_array": array_to_json(hexagon),
        "hexagon_pattern": pattern_to_json(derivative(hexagon)),
        "trapezoid_array": array_to_json(trapezoid),
        "trapezoid_pattern": pattern_to_json(pattern),
        "flow": flow_to_json(flow),
        "flow_swapped": flow_to_json(swap_flow(flow, 2)),
        "tableau": pattern_to_tableau(pattern).to_json(),
    }
