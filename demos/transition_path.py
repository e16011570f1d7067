"""Minimal energy paths with the string method.

First a closed-form double well, where the exact barrier is 1 and the
transition state is the origin; then a real field problem, connecting
the two diagonal states of a nematic square through their lowest
barrier.  Takes about 2 s on a 2-core VM; exits 1 if a printed claim
fails.
"""

import sys

import numpy as np

from nematicq import (
    BulkParams,
    Domain,
    LdGSystem,
    MinimizeOptions,
    find_mep,
    minimize,
    seed_field,
)
from nematicq.toys import DoubleWell2D

print("-- double well E = (x^2 - 1)^2 + y^2 --")
well = DoubleWell2D()
res = find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=16, tol=1e-8, system=well)
print(f"transition state at ({res.ts_field[0]:+.2e}, {res.ts_field[1]:+.2e})")
print(f"forward barrier = {res.barrier_forward:.8f} (exact: 1)")
print(f"unstable curvature at the top = {res.ts_lambda1:.4f} (exact: -4)")
failures = int(np.abs(res.ts_field).max() >= 1e-8)
failures += abs(res.barrier_forward - 1.0) > 1e-8
failures += abs(res.ts_lambda1 + 4.0) > 1e-6

# a coarse string's top node is far from stationary; the climb from it
# certifies the transition state all the same
coarse = find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=8, tol=1e-6, system=well)
g_top = np.abs(well.gradient(coarse.path.nodes[coarse.ts_index])).max()
g_ts = np.abs(well.gradient(coarse.ts_field)).max()
print(f"8-node string: |grad E|_inf = {g_top:.2e} at its top node, {g_ts:.2e} at the certified transition state")
print(f"its barriers = {coarse.barrier_forward:.8f}, {coarse.barrier_backward:.8f} (exact: 1)\n")
failures += not g_ts < 1e-8 < g_top
failures += max(abs(coarse.barrier_forward - 1.0), abs(coarse.barrier_backward - 1.0)) > 1e-8

print("-- nematic square: path between the two diagonal states --")
# just past the cross state's instability, the cross itself is the
# index-1 transition state between the mirror-image diagonal minima
domain = Domain(
    nx=16, ny=16, lambda2=25.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar"
)
system = LdGSystem(domain)
opts = MinimizeOptions(tol_grad=1e-9, max_iters=20000)
d1 = minimize(system, seed_field(domain, "diagonal(d1)").flat, opts)
d2 = minimize(system, seed_field(domain, "diagonal(d2)").flat, opts)
print(f"endpoint energies: {d1.energy:.6f}, {d2.energy:.6f}")

# the string residual floors at the node-spacing resolution; the
# transition state is refined past it by the climbing correction
res = find_mep(d1.x, d2.x, n_nodes=16, tol=2e-3, ts_tol=1e-6, system=system)
print(f"barrier between diagonal states = {res.barrier_forward:.6f}")
print(f"transition-state energy = {system.energy(res.ts_field):.6f}")
print(f"lowest curvature at the transition state = {res.ts_lambda1:.3e} (index 1)")
profile = " ".join(f"{e - d1.energy:.5f}" for e in res.path.energies)
print(f"energy profile along the path (relative): {profile}")

print("\non larger squares the symmetric midpoint state gains a second")
print("unstable direction, and the straight string - which preserves the")
print("mirror symmetry of its endpoints - rides the ridge instead of the")
print("lower asymmetric channel; the climbing correction detects this:")
from nematicq.errors import NotIndexOne

big = Domain(
    nx=16, ny=16, lambda2=50.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar"
)
big_system = LdGSystem(big)
b1 = minimize(big_system, seed_field(big, "diagonal(d1)").flat, opts)
b2 = minimize(big_system, seed_field(big, "diagonal(d2)").flat, opts)
try:
    find_mep(b1.x, b2.x, n_nodes=16, tol=2e-3, ts_tol=1e-6, system=big_system)
except NotIndexOne as err:
    print(f"  NotIndexOne: {err}")
else:
    print("  the climb reported index 1: the trap went undetected")
    failures += 1
sys.exit(1 if failures else 0)
