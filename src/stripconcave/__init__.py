"""Exact-arithmetic toolkit for strip-concave arrays on convex triangular grids.

Feasibility of boundary data, witness construction, network-flow and skew
tableau correspondences, and the vertex/facet/lattice-point combinatorics of
the associated polyhedra.  All computation is over exact rationals.
"""
from .core import (
    BoundarySpec,
    ConvexConfig,
    GTPattern,
    InfeasibleError,
    InputError,
    InternalError,
    StripConcaveArray,
    array_from_json,
    array_to_json,
    boundary,
    canonical_json,
    config_from_json,
    config_to_json,
    deficits,
    derivative,
    extend_to_trapezoid,
    integrate,
    pattern_from_json,
    pattern_to_json,
    rat,
    rat_to_json,
    restrict_to,
    rough_bound,
    shift_mu,
    spec_from_json,
    spec_to_json,
    validate_array,
    validate_pattern,
)
from .feasibility import (
    Certificate,
    FeasibilityVerdict,
    check_general,
    check_parallelogram,
    check_trapezoid,
)
from .construct import (
    build_trapezoid,
    build_triangular,
    mu_general_build,
    reduce_to_triangle,
)
from .flow import (
    Flow,
    PathDecomposition,
    boundary_of_flow,
    enumerate_vertices,
    flow_from_json,
    flow_to_json,
    gamma,
    gamma_inv,
    generator_array,
    nu_of_flow,
    path_decompose,
    permute_nu,
    swap_flow,
    zigzag_swap,
)
from .polytope import (
    FacetInequality,
    count_scaled_points,
    facet_count_consistent,
    facet_count_formula,
    facets,
    kostka,
)
from .tableau import (
    SkewTableau,
    content,
    pattern_to_tableau,
    tableau_to_pattern,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["Rat"]


def __getattr__(name):  # Rat, which core builds on first read
    if name != "Rat":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .core import Rat
    return Rat
