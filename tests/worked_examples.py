"""The worked examples that ``stripconcave.fixtures`` derives from its two
arrays, written out by hand once.

Tests compare the library's output with these literals, so that a change
in ``derivative``, ``gamma``, ``swap_flow`` or ``pattern_to_tableau`` shows
up as a mismatch instead of moving the expected value with it.
"""
from fractions import Fraction

from stripconcave import ConvexConfig, Flow, GTPattern, SkewTableau

# the row derivative of fixtures.hexagon_array()
HEXAGON_PATTERN = GTPattern(
    ConvexConfig(3, (0, 0, 0, 1), (2, 3, 3, 3)),
    ((2, 1), (2, Fraction(3, 2), Fraction(-3, 2)), (3, 2, -1), (3, 0)),
)

# the row derivative of fixtures.trapezoid_array(), a skew GT pattern
TRAPEZOID_PATTERN = GTPattern(
    ConvexConfig.trapezoid(3, 2),
    ((5, 2), (5, 3, 2), (5, 4, 2, 1), (6, 4, 3, 1, 1)),
)

# the flow image of TRAPEZOID_PATTERN
TRAPEZOID_FLOW = Flow(
    3, 2,
    e0=((1, 2, 0), (1, 1, 1, 1), (0, 1, 1, 1, 0)),
    e1=((0, 1, 2), (0, 1, 0, 1), (1, 0, 1, 0, 1)),
)

# TRAPEZOID_FLOW after the zigzag swap around layer 2: the right boundary
# changes from (3, 2, 3) to (3, 3, 2)
SWAPPED_FLOW = Flow(
    3, 2,
    e0=((1, 2, 0), (0, 2, 0, 1), (0, 2, 0, 2, 0)),
    e1=((0, 1, 2), (1, 0, 1, 1), (0, 1, 0, 0, 1)),
)

# the tableau of shape (6,4,3,1,1)/(5,2) encoding TRAPEZOID_PATTERN
SKEW_TABLEAU = SkewTableau(
    outer=(6, 4, 3, 1, 1),
    inner=(5, 2),
    rows=((3,), (1, 2), (1, 1, 3), (2,), (3,)),
)
