"""Arrays as network flows: swaps, vertices and path generators.

Run with: python3 demos/flows_and_vertices.py
"""
from stripconcave import (
    boundary,
    boundary_of_flow,
    derivative,
    enumerate_vertices,
    gamma,
    gamma_inv,
    generator_array,
    integrate,
    nu_of_flow,
    path_decompose,
    zigzag_swap,
)
from stripconcave.fixtures import trapezoid_array

pattern = derivative(trapezoid_array())
x = integrate(pattern)  # left boundary normalized to zero
print("=== The flow image of the fixture pattern ===")
g = gamma(x)
print("horizontal edge values (per layer):")
for row in g.e0:
    print("   ", row)
print("diagonal edge values (per layer):")
for row in g.e1:
    print("   ", row)
lam, lam_bar = boundary_of_flow(g)
print("boundary recovered from divergences:", lam, lam_bar)
print("right boundary off the diagonal edges:", nu_of_flow(g))

print()
print("=== Zigzag swap: exchange two right-boundary entries ===")
y = zigzag_swap(x, 2)
print("nu before:", boundary(x).nu, " after swapping layer 2:", boundary(y).nu)
print("applying the swap twice returns the original:",
      zigzag_swap(y, 2).rows == x.rows)

print()
print("=== Vertices correspond to forests in the flow graph ===")
for lam_small, bar_small in (((2, 1), ()), ((3, 2), (1,))):
    vs = enumerate_vertices(lam_small, bar_small)
    print(f"lambda={lam_small}, lambda_bar={bar_small}: {len(vs)} vertices")
    for v in vs:
        print("    nu =", boundary(v).nu, " rows =", v.rows)

print()
print("=== Every nonnegative pattern is a sum of 0/1 generators ===")
decomposition = path_decompose(g)
print(f"{len(decomposition.paths)} weighted source-to-sink paths:")
reconstructed = [[0] * len(row) for row in pattern.rows]
for nodes, weight in decomposition.paths:
    print("    weight", weight, "through", nodes)
    for i, row in enumerate(generator_array(nodes, 2).rows):
        for j, v in enumerate(row):
            reconstructed[i][j] += weight * v
print("weighted generator sum reproduces the pattern:",
      tuple(map(tuple, reconstructed)) == pattern.rows)

print()
print("=== gamma is a bijection ===")
print("round trip recovers the array:", gamma_inv(g).rows == x.rows)
