"""Radial profile of a point defect.

Solves the two-point boundary value problem for the scalar amplitude
h(r) of a radially symmetric defect: h(0) = 0 at the core, h(R) = s+
in the far field.  Prints the profile shape and verifies second-order
self-convergence under grid refinement; exits 1 if the observed order
is not within 0.05 of 2.
"""

import sys

import numpy as np

from nematicq import BulkParams, solve_profile
from nematicq.hedgehog import ode_residual

p = BulkParams(-1.0, 1.0, 1.0)
prof = solve_profile(p, R=10.0, N=512)
print(f"far-field amplitude s+ = {prof.s_plus:.6f}")
print(f"max interior equation residual = {np.abs(ode_residual(prof, p)).max():.2e}\n")

print("  r      h(r)    h/s+")
for frac in (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
    i = min(int(frac * (prof.r.size - 1)), prof.r.size - 1)
    print(f"{prof.r[i]:6.2f} {prof.h[i]:8.4f} {prof.h[i] / prof.s_plus:8.4f}")

print("\nnear the core the amplitude vanishes quadratically (h ~ C r^2):")
for i in (1, 2, 3):
    print(f"  r = {prof.r[i]:.4f}:  h/r^2 = {prof.h[i] / prof.r[i] ** 2:.6f}")

coarse = solve_profile(p, R=10.0, N=128)
mid = solve_profile(p, R=10.0, N=256)
e1 = np.abs(coarse.h - mid.h[::2]).max()
e2 = np.abs(mid.h - prof.h[::2]).max()
print(f"\nself-convergence: |h_128 - h_256| = {e1:.2e}, |h_256 - h_512| = {e2:.2e}")
order = np.log2(e1 / e2)
print(f"observed order = {order:.2f} (second-order discretization)")
sys.exit(0 if abs(order - 2.0) <= 0.05 else 1)
