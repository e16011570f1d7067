"""Square-well states at small and large domain sizes.

Integration-level contracts tying minimization, flow, symmetry
projection and classification together on the two boundary kinds:
with tangent walls the small-square minimizer keeps uniaxial,
lowest-|Q| diagonals; with planar walls the diagonal |Q| is small
outright.  On large squares a diagonal-biased start relaxes to a
stable state distinct from the symmetric cross.
"""

import numpy as np

from nematicq.energy import LdGSystem
from nematicq.field import Domain, QField, seed_field, symmetrize
from nematicq.hisd import classify_stationary
from nematicq.minimize import MinimizeOptions, minimize
from nematicq.qtensor import BulkParams, biaxiality, frob2
from nematicq.sav import flow_to_equilibrium

BULK = BulkParams(-2.0 / 3.0, 2.0, 2.0)
N = 16
OPTS = MinimizeOptions(tol_grad=1e-8, max_iters=20000)


def small_square(boundary):
    return Domain(nx=N, ny=N, lambda2=5.0, bulk=BULK, boundary=boundary)


def large_square(boundary):
    return Domain(nx=N, ny=N, lambda2=50.0, bulk=BULK, boundary=boundary)


def diagonal_profiles(domain, flat):
    values = flat.reshape(domain.shape)
    norms = np.sqrt(frob2(values))
    idx = np.arange(domain.nx)
    beta = max(
        float(biaxiality(values[idx, idx]).max()),
        float(biaxiality(values[idx, idx[::-1]]).max()),
    )
    return norms, beta


def test_small_square_tangent_minimizer_has_uniaxial_low_diagonals():
    d = small_square("tangent")
    sy = LdGSystem(d)
    res = minimize(sy, seed_field(d, "random(0.2)", seed=3).flat, OPTS)
    assert res.converged
    index, _, _ = classify_stationary(sy, res.x, tol_grad=1e-6)
    assert index == 0
    norms, beta = diagonal_profiles(d, res.x)
    # the tensor on the diagonals is uniaxial (out-of-plane axis), and
    # |Q| attains its minimum there: in-plane order melts on the cross
    assert beta < 1e-6
    i, j = np.unravel_index(int(np.argmin(norms)), norms.shape)
    assert abs(i - j) <= 1 or abs(i + j - (d.nx - 1)) <= 1
    idx = np.arange(d.nx)
    assert norms[idx, idx].mean() < norms.mean()


def test_small_square_planar_minimizer_has_small_diagonal_norm():
    d = small_square("planar")
    sy = LdGSystem(d)
    res = minimize(sy, seed_field(d, "random(0.2)", seed=3).flat, OPTS)
    norms, beta = diagonal_profiles(d, res.x)
    idx = np.arange(d.nx)
    along = max(norms[idx, idx].max(), norms[idx, idx[::-1]].max())
    assert along < 0.1 * norms.max()
    assert beta < 0.05


def test_large_square_diagonal_init_reaches_distinct_stable_state():
    d = large_square("tangent")
    sy = LdGSystem(d)
    r_diag = minimize(sy, seed_field(d, "diagonal(d1)").flat, OPTS)
    index, _, _ = classify_stationary(sy, r_diag.x, tol_grad=1e-6)
    assert index == 0

    def project(flat):
        return symmetrize(QField.from_flat(d, flat)).flat

    r_sym = minimize(
        sy, project(r_diag.x), MinimizeOptions(tol_grad=1e-8, max_iters=20000, project=project)
    )
    # the symmetric cross is a genuine stationary point of the full
    # energy, sits above the diagonal state, and is far from it
    assert float(np.abs(sy.gradient(r_sym.x)).max()) < 1e-6
    assert r_sym.energy > r_diag.energy + 1e-3
    assert np.linalg.norm(r_diag.x - r_sym.x) > 1.0


def test_large_square_flow_from_diagonal_seed_reaches_stable_state():
    d = large_square("tangent")
    sy = LdGSystem(d)
    flowed, steps = flow_to_equilibrium(seed_field(d, "diagonal(d1)"), dt=0.5, tol_grad=1e-7)
    assert steps > 0
    index, _, _ = classify_stationary(sy, flowed.flat, tol_grad=1e-6)
    assert index == 0
    # the state keeps the diagonal bias: it is not square-symmetric
    sym = symmetrize(QField.from_flat(d, flowed.flat)).flat
    assert np.linalg.norm(flowed.flat - sym) > 1.0
    # and it matches the minimizer from the same seed
    r_diag = minimize(sy, seed_field(d, "diagonal(d1)").flat, OPTS)
    assert np.linalg.norm(flowed.flat - r_diag.x) < 1e-3
