"""Two exact forms of the same integral.

The raw propagator integrates over the moving cone interval; the
substitution sinh(s/2) = z sinh(t/2) maps each half of the cone,
x' = x + s and x' = x - s, onto z in [0, 1], which keeps the integrand
O(1) down to t = 0.  Both forms integrate only where the cone meets the
support and are exact transforms of each other, so their gap is pure
quadrature error and collapses under panel refinement.
"""

from liouwave import BumpProfile, gauss_legendre, solve_cauchy, solve_cauchy_regularized

bump = BumpProfile(-1.0, 1.0)
rule = gauss_legendre(16)

print("raw vs substituted form, k = 2, t = 2, x = 0.3:")
print(f"{'panels':>7} {'raw':>20} {'substituted':>20} {'gap':>10}")
panels = 1
while panels <= 64:
    raw = solve_cauchy(2.0, bump, 2.0, 0.3, rule, panels)
    reg = solve_cauchy_regularized(2.0, bump, 2.0, 0.3, rule, panels)
    print(f"{panels:7d} {raw:20.15f} {reg:20.15f} {abs(raw - reg):10.2e}")
    panels *= 2

print("\nsmall-time behavior of the substituted form (k = 1, x = 0.2):")
print(f"{'t':>8} {'u(t, x)':>16} {'u/t':>14}")
for t in (1e-1, 1e-2, 1e-3, 1e-4):
    u = solve_cauchy_regularized(1.0, bump, t, 0.2)
    print(f"{t:8.0e} {u:16.10e} {u / t:14.9f}")
print(f"{'f(0.2)':>8} {'':>16} {bump(0.2):14.9f}   (the slope limit)")
