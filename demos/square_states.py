"""States of a nematic confined to a square well.

On a small square every initial guess relaxes to the same cross state
whose in-plane order melts on the diagonals.  On a larger square that
cross becomes an unstable parent: two diagonal states take over as the
minima, and downward saddle searches from the parent recover the
transition states between them.  Runs in about two minutes.
"""

import numpy as np

from nematicq import (
    BulkParams,
    Domain,
    LdGSystem,
    MinimizeOptions,
    QField,
    SaddleOptions,
    branch_search,
    classify_stationary,
    make_record,
    minimize,
    seed_field,
    symmetrize,
)
from nematicq.qtensor import biaxiality, frob2

BULK = BulkParams(-2.0 / 3.0, 2.0, 2.0)
OPTS = MinimizeOptions(tol_grad=1e-8, max_iters=20000)


def diagonal_report(domain, flat):
    values = flat.reshape(domain.shape)
    idx = np.arange(domain.nx)
    q_max = np.sqrt(frob2(values)).max()
    along = max(
        np.sqrt(frob2(values[idx, idx])).max(),
        np.sqrt(frob2(values[idx, idx[::-1]])).max(),
    )
    beta = max(
        biaxiality(values[idx, idx]).max(), biaxiality(values[idx, idx[::-1]]).max()
    )
    return along / q_max, beta


print("-- small square (lambda2 = 5): one stable state --")
d5 = Domain(nx=32, ny=32, lambda2=5.0, bulk=BULK, boundary="planar")
sy5 = LdGSystem(d5)
energies = []
for name in ("isotropic", "diagonal(d1)", "rotated(bottom)", "random(0.2)"):
    res = minimize(sy5, seed_field(d5, name, seed=1).flat, OPTS)
    energies.append(res.energy)
    print(f"  seed {name:16s} -> E = {res.energy:.8f}")
print(f"  spread across seeds: {max(energies) - min(energies):.2e}")
index, _, _ = classify_stationary(sy5, res.x, tol_grad=1e-6)
ratio, beta = diagonal_report(d5, res.x)
print(f"  Morse index = {index} (a true minimum)")
print(f"  |Q| on the diagonals = {ratio:.3f} of the global max, biaxiality {beta:.4f}")
print("  -> the diagonals are nearly isotropic: the cross state\n")

print("-- large square (lambda2 = 50): the cross becomes a parent saddle --")
d50 = Domain(nx=32, ny=32, lambda2=50.0, bulk=BULK, boundary="planar")
sy50 = LdGSystem(d50)
r1 = minimize(sy50, seed_field(d50, "diagonal(d1)").flat, OPTS)
r2 = minimize(sy50, seed_field(d50, "diagonal(d2)").flat, OPTS)
print(f"  diagonal minima: E = {r1.energy:.8f} and {r2.energy:.8f}")
print(f"  field distance between them: {np.linalg.norm(r1.x - r2.x):.2f}")


def project(flat):
    return symmetrize(QField.from_flat(d50, flat)).flat


x, y = np.meshgrid(d50.xs, d50.ys, indexing="ij")
sign = np.where(np.abs(y - 0.5) > np.abs(x - 0.5), 1.0, -1.0)
ramp = np.minimum(1.0, 3.0 * np.minimum(np.abs(x - y), np.abs(x + y - 1.0)))
cross0 = np.zeros(d50.shape)
cross0[:, :, 0] = 0.5 * d50.s_plus * sign * ramp
cross0[:, :, 3] = -cross0[:, :, 0]

cross = minimize(
    sy50,
    project(cross0.reshape(-1)),
    MinimizeOptions(tol_grad=1e-8, max_iters=20000, project=project),
)
index, spectrum, _ = classify_stationary(sy50, cross.x, tol_grad=1e-6, k_hint=3)
print(f"  symmetric cross state: E = {cross.energy:.8f}, Morse index = {index}")
print(f"  leading curvatures: {np.round(spectrum[: index + 2], 5)}")

parent = make_record(sy50, cross.x, tol_grad=1e-6, k_hint=index)
search = SaddleOptions(tol_grad=1e-6)
children = branch_search(sy50, parent, 1, opts=search)
print(f"  downward search from the parent found {len(children)} index-1 saddle(s):")
for child in children:
    print(f"    E = {child.energy:.8f}, barrier over minima = {child.energy - r1.energy:.6f}")
grandchildren = branch_search(sy50, children[0], 0, opts=search)
for g in grandchildren:
    closer = min(np.linalg.norm(g.field - r1.x), np.linalg.norm(g.field - r2.x))
    print(f"  descent from that saddle lands on a minimum (distance {closer:.3f})")
print("\n  hierarchy: cross parent (index >= 2) -> rotated saddles (index 1) -> diagonal minima")
