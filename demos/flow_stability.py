"""Unconditionally stable gradient flow.

The auxiliary-variable scheme keeps its modified energy non-increasing
at any step size.  This demo runs the same relaxation with step sizes
spanning four orders of magnitude, counts violations (none), then runs
`flow_to_equilibrium`, whose relaxed scalar and step ladder keep that
guarantee, from each of those step sizes to equilibrium; its Newton
endgame keeps it on the Newton rows too.  It then flows a 32x32 start at
lambda2 = 50, where Newton steps that take an indefinite Hessian land on
a saddle, and certifies the end state.  It exits with status 1 if the
modified energy rises anywhere, on a SAV or a Newton row, a flow does
not converge, or the lambda2 = 50 flow does not end on a minimum (index 0).
Last it shows the flow landing on the same state as direct minimization.
"""

import sys

import numpy as np

from nematicq import (
    BulkParams,
    Domain,
    LdGSystem,
    MinimizeOptions,
    NoConvergence,
    classify_stationary,
    flow_to_equilibrium,
    minimize,
    sav_init,
    sav_split,
    sav_step,
    seed_field,
)

domain = Domain(nx=16, ny=16, lambda2=5.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
split = sav_split(domain)
start = seed_field(domain, "random(0.3)", seed=4)

m0 = split.modified_energy(start.flat, sav_init(start).r)
print(f"modified energy at the start: {m0:.4f}")
print("step size | modified energy after 200 steps | violations")
failures = 0
for dt in (1e-3, 1e-1, 1.0, 10.0):
    state = sav_init(start)
    m_prev = m0
    violations = 0
    for _ in range(200):
        state = sav_step(state, dt)
        m = split.modified_energy(state.field.flat, state.r)
        if m > m_prev + 1e-9:
            violations += 1
        m_prev = m
    print(f"{dt:9.0e} | {m_prev:31.10f} | {violations}")
    failures += violations



def largest_rise(rows) -> float:
    """Largest relative rise of the modified energy between trace rows."""
    modified = np.array([row[3] for row in rows])
    return float(np.max(np.diff(modified) / np.abs(modified[:-1])))


print("\nfirst step | flow steps | Newton steps | largest relative rise of the modified energy")
for dt in (1e-3, 1e-1, 1.0, 10.0):
    rows = []
    try:
        _, steps = flow_to_equilibrium(start, dt=dt, tol_grad=1e-8, max_steps=3000, trace=rows)
    except NoConvergence as err:
        print(f"{dt:10.0e} | did not converge: {err}")
        failures += 1
        continue
    rise = largest_rise(rows)
    failures += rise > 1e-12
    print(f"{dt:10.0e} | {steps:10d} | {len(rows) - 1 - steps:12d} | {rise:.1e}")

print("\nlambda2 = 50, 32x32, bulk (-1, 1, 1), seed 1, first step 2:")
deep = Domain(nx=32, ny=32, lambda2=50.0, bulk=BulkParams(-1.0, 1.0, 1.0), boundary="planar")
rows = []
flowed, steps = flow_to_equilibrium(seed_field(deep, "random(0.2)", seed=1), dt=2.0, tol_grad=1e-8, trace=rows)
index = classify_stationary(LdGSystem(deep), flowed.flat, tol_grad=1e-8)[0]
rise = largest_rise(rows)
failures += index != 0 or rise > 1e-12
print(f"  {steps} flow steps and {len(rows) - 1 - steps} Newton steps to E = {flowed.energy():.10f}, index {index}")
print(f"  largest relative rise of the modified energy {rise:.1e}")

print("\nflow vs direct minimization from the same start:")
flowed, steps = flow_to_equilibrium(start, dt=0.5, tol_grad=1e-8)
system = LdGSystem(domain)
direct = minimize(system, start.flat, MinimizeOptions(tol_grad=1e-10, max_iters=50000))
rel = np.linalg.norm(flowed.flat - direct.x) / np.linalg.norm(direct.x)
print(f"  flow converged in {steps} steps to E = {flowed.energy():.10f}")
print(f"  minimizer E = {direct.energy:.10f}; relative field distance = {rel:.2e}")
sys.exit(1 if failures else 0)
