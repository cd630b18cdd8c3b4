"""Cross-validating the closed form against brute force.

The quadrature propagator and an explicit leapfrog finite-difference
solver share no machinery, so their agreement on the exponential-potential
problem is strong evidence for both.  The script compares them on the
standard case k = 1, canonical bump, and shows the leapfrog error
contracting fourfold when the mesh is halved.
"""

import numpy as np

from liouwave import BumpProfile, FDConfig, fd_wave_solve, solve_cauchy

bump = BumpProfile(-1.0, 1.0)
targets = np.linspace(-3.0, 3.0, 13)

print("k = 1, t = 1: quadrature route vs leapfrog (dx = 1e-3, cfl 0.9)")
cfg = FDConfig(x_min=-4.5, x_max=4.5, dx=1e-3, t_final=1.0)
field = fd_wave_solve(lambda x: np.exp(2.0 * x), bump, cfg)
t = float(field.times[0])
print(f"{'x':>7} {'quadrature':>14} {'leapfrog':>14} {'diff':>10}")
for x in targets:
    j = field.position_index(float(x))
    xg = float(field.positions[j])
    q = solve_cauchy(1.0, bump, t, xg)
    fd = field.values[0, j]
    print(f"{xg:7.2f} {q:14.9f} {fd:14.9f} {abs(q - fd):10.2e}")
print("   (values vanish outside |x| <= 2: finite propagation speed 1)\n")

print("mesh refinement study (worst relative mismatch over the grid):")
for dx in (2e-3, 1e-3, 5e-4):
    cfg = FDConfig(x_min=-4.5, x_max=4.5, dx=dx, t_final=1.0)
    field = fd_wave_solve(lambda x: np.exp(2.0 * x), bump, cfg)
    t = float(field.times[0])
    idx = [field.position_index(float(x)) for x in targets]
    xs = field.positions[idx]
    q = solve_cauchy(1.0, bump, t, xs)
    rel = np.max(np.abs(field.values[0, idx] - q)) / np.max(np.abs(q))
    print(f"  dx = {dx:g}: relative error {rel:.3e}")
print("   (each halving of dx divides the error by ~4: second-order scheme)")
