"""Branch structure of the homogeneous molecular model.

Sweeps the interaction strength alpha across the ordering transition,
prints which distributions exist (isotropic / prolate / oblate), their
order parameters, and the Leslie viscosities of a nematic state; exits 1
if the Parodi relation fails by more than 1e-12.
"""

import sys

from nematicq import critical_alpha, leslie_coefficients, solve_branches

alpha_star, eta_star = critical_alpha()
print(f"critical interaction strength alpha* = {alpha_star:.6f} (eta* = {eta_star:.4f})")
print(f"the isotropic state loses stability at alpha = 7.5 exactly\n")

header = f"{'alpha':>6} | {'branch':>9} {'eta':>9} {'S2':>8} {'S4':>8} {'stable':>7}"
print(header)
print("-" * len(header))
for alpha in (6.0, 6.6, 6.8, 7.0, 7.5, 8.0):
    for rec in solve_branches(alpha):
        star = " (marginal)" if rec.marginal else ""
        print(
            f"{alpha:6.2f} | {rec.branch:>9} {rec.eta:9.4f} {rec.s2:8.4f} "
            f"{rec.s4:8.4f} {str(rec.stable):>7}{star}"
        )
    print()

prolate = [r for r in solve_branches(8.0) if r.branch == "prolate"][0]
ls = leslie_coefficients(prolate.s2, prolate.s4, gamma1=1.0)
print("Leslie coefficients of the stable prolate state at alpha = 8.0 (gamma1 = 1):")
for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "gamma2"):
    print(f"  {name} = {getattr(ls, name):+.6f}")
check = ls.alpha6 - ls.alpha5 - (ls.alpha2 + ls.alpha3)
print(f"  Parodi relation alpha2 + alpha3 = alpha6 - alpha5 holds to {abs(check):.1e}")
sys.exit(0 if abs(check) <= 1e-12 else 1)
