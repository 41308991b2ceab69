"""From boundary data to a witness array, step by step.

Run with: python3 demos/feasibility_walkthrough.py
"""
from stripconcave import (
    BoundarySpec,
    boundary,
    build_trapezoid,
    build_triangular,
    check_trapezoid,
    deficits,
    extend_to_trapezoid,
    mu_general_build,
    reduce_to_triangle,
    rough_bound,
    shift_mu,
    validate_array,
)
from stripconcave.fixtures import hexagon_array, trapezoid_array


def show(x):
    for row in x.rows:
        print("   ", row)


print("=== A strip-concave array on the (3,2) trapezoid ===")
x = trapezoid_array()
show(x)
spec = boundary(x)
print("boundary quadruple:")
print("  lambda    =", spec.lam, " (bottom-row differences)")
print("  lambda_bar=", spec.lam_bar, "(top-row differences)")
print("  mu        =", spec.mu, "(left-edge jumps)")
print("  nu        =", spec.nu, "(right-edge jumps)")
print("balance |lam|-|lam_bar|+|mu|-|nu| =", spec.balance())

print()
print("=== Deficits measure how much the top row sticks out ===")
d = deficits(spec.lam, spec.lam_bar)
print("D_k for k = 0..n:", d)

print()
print("=== Feasibility needs only n+1 subset inequalities ===")
verdict = check_trapezoid(spec, 3, 2)
print("the fixture boundary is feasible:", verdict.feasible)

bad = BoundarySpec(spec.lam, spec.lam_bar, spec.mu, (14, -15, 1))
verdict = check_trapezoid(bad, 3, 2)
print("pushing nu_1 up to 14 fails; certificate:", verdict.certificate)

print()
print("=== Rebuilding a witness from scratch ===")
normalized = shift_mu(spec)  # absorb mu into the rows
w = build_trapezoid(normalized.lam, normalized.lam_bar, normalized.nu)
show(w)
print("valid:", validate_array(w), "- boundary reproduced:",
      boundary(w) == BoundarySpec(normalized.lam, normalized.lam_bar, (0, 0, 0), normalized.nu))

print()
print("=== A triangle is the trapezoid with m = 0 ===")
t = build_triangular((5, 2, 1), (3, 2, 3))
show(t)

print()
print("=== Any skew pair reduces to a plain triangle ===")
lam_prime = reduce_to_triangle(spec.lam, spec.lam_bar)
print("lambda' =", lam_prime,
      "- its prefix sums are lambda[1..k] - D_k, so nu is feasible exactly"
      " when it is majorized by lambda'")

print()
print("=== General configurations embed into a trapezoid ===")
hexagon = hexagon_array()
hspec = boundary(hexagon)
tconfig, tspec = extend_to_trapezoid(hexagon.config, hspec)
print("hexagon boundary", hspec.lam, "extends to", tspec.lam,
      "with c = 4 * sum|e| + 1 =", rough_bound(hspec))
w = mu_general_build(hexagon.config, hspec)
print("witness on the hexagon (boundary reproduced:", boundary(w) == hspec, ")")
show(w)
