"""Skew tableaux, Kostka numbers and the facets of the boundary cone.

Run with: python3 demos/tableaux_and_counting.py
"""
from itertools import permutations

from stripconcave import (
    boundary,
    content,
    count_scaled_points,
    derivative,
    facet_count,
    facets,
    kostka,
    pattern_to_tableau,
    tableau_to_pattern,
)
from stripconcave.fixtures import trapezoid_array

print("=== Integer patterns are skew Young tableaux ===")
pattern = derivative(trapezoid_array())
t = pattern_to_tableau(pattern)
print("shape:", t.outer, "minus", t.inner)
for r, row in enumerate(t.rows, start=1):
    pad = t.inner[r - 1] if r <= len(t.inner) else 0
    print("   row", r, ":", "." * pad + "".join(str(v) for v in row))
print("content (how often each entry occurs):", content(t))
print("the bijection inverts:", tableau_to_pattern(t).rows == pattern.rows)

print()
print("=== Counting lattice points = counting tableaux ===")
lam, bar = (6, 4, 3, 1, 1), (5, 2)
for nu in sorted(set(permutations((3, 2, 3)))):
    print(f"   K(lam/bar, nu={nu}) =", kostka(lam, bar, nu))
print("the count is invariant under rearranging nu (Bender-Knuth swaps)")

print()
print("=== Scaled counts see the polytope volume ===")
lam, bar, nu = (2, 1, 0), (), (1, 1, 1)
for k in (1, 2, 3, 4):
    print(f"   points at denominator {k}:", count_scaled_points(lam, bar, nu, k))

print()
print("=== Facets of the boundary cone ===")
for n, m in ((1, 2), (2, 0), (2, 1), (3, 0), (4, 0)):
    print(f"   (n,m)=({n},{m}):", facet_count(n, m), "facets")
print("at m = 0, n >= 3 the closed form (2^n - 2) 2^m + n + 4m - 2 says 7 and 16:")
print("it counts m - 1 = -1 steps of lambda_bar, where there are none. An exact LP")
print("in the tests proves each listed facet irredundant and each other inequality implied.")

print()
print("=== Every facet inequality holds on a valid boundary ===")
spec = boundary(trapezoid_array())
values = [f.evaluate(spec) for f in facets(3, 2)]
print("minimum slack over all", len(values), "facets:", min(values))
