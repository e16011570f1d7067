"""The base-class block evaluations, the finite-difference Hessian product and the identity metric."""

import numpy as np
import pytest

from nematicq.energy import LdGSystem
from nematicq.field import Domain
from nematicq.hisd import _m_orthonormalize
from nematicq.minimize import lbfgs_direction
from nematicq.qtensor import BulkParams
from nematicq.spectrum import inverse_factor, solve_smallest
from nematicq.systems import EUCLIDEAN, default_probe_length, make_rng, preconditioner_of
from nematicq.toys import DiagQuadratic, Quartic2D


class CountingQuartic(Quartic2D):
    def __init__(self):
        self.blocks = []
        self.n_grad = 0

    def gradient(self, x):
        self.n_grad += 1
        return super().gradient(x)

    def gradients(self, xs):
        self.blocks.append(np.shape(xs))
        return super().gradients(xs)


def test_default_blocks_loop_over_rows():
    sy = Quartic2D()
    xs = make_rng(1, "test:systems").normal(size=(4, 2))
    assert np.array_equal(sy.energies(xs), [sy.energy(x) for x in xs])
    assert np.array_equal(sy.gradients(xs), [sy.gradient(x) for x in xs])


def test_default_fused_block_returns_the_pair():
    sy = Quartic2D()
    xs = make_rng(2, "test:systems").normal(size=(4, 2))
    energies, gradients = sy.energies_gradients(xs)
    assert np.array_equal(energies, sy.energies(xs))
    assert np.array_equal(gradients, sy.gradients(xs))


def test_hessian_vec_takes_both_probes_in_one_block():
    sy = CountingQuartic()
    x, v = np.array([0.3, -1.2]), np.array([0.7, 0.4])
    hv = sy.hessian_vec(x, v)
    assert sy.blocks == [(2, 2)] and sy.n_grad == 2
    l = default_probe_length(x, v)
    assert np.array_equal(hv, (sy.gradient(x + l * v) - sy.gradient(x - l * v)) / (2.0 * l))
    # a block of three columns: all six probes in one call
    sy.blocks, sy.n_grad = [], 0
    block = np.array([[0.7, -0.2, 1.5], [0.4, 0.9, 0.3]])
    assert sy.hessian_vec(x, block).shape == (2, 3)
    assert sy.blocks == [(6, 2)] and sy.n_grad == 6


def ldg(grid, boundary, l23):
    d = Domain(nx=grid[0], ny=grid[1], lambda2=5.0, bulk=BulkParams(-1.0, 1.0, 1.0),
               boundary=boundary, l2=l23[0], l3=l23[1])
    return LdGSystem(d)


BLOCK_SYSTEMS = [
    pytest.param(lambda: Quartic2D(), id="quartic"),
    pytest.param(lambda: DiagQuadratic(np.linspace(-2.0, 3.0, 11)), id="diag"),
] + [
    pytest.param(lambda g=g, b=b, l=l: ldg(g, b, l), id=f"ldg-{g[0]}x{g[1]}-{b}-{l[0]}")
    for g in ((8, 8), (9, 6))
    for b in ("tangent", "planar")
    for l in ((0.0, 0.0), (0.6, 0.4))
]


@pytest.mark.parametrize("make", BLOCK_SYSTEMS)
def test_hessian_block_equals_columns(make):
    """One block product equals the column-by-column products, bit for bit."""
    sy = make()
    gen = make_rng(17, "test:systems:block")
    x = 0.4 * gen.normal(size=sy.n)
    block = gen.normal(size=(sy.n, 3))
    block[:, 1] = 0.0
    for v in (block, block[:, :1], np.zeros((sy.n, 2))):
        for l in (None, 1e-3):
            hv = sy.hessian_vec(x, v, l)
            assert hv.shape == v.shape
            cols = [sy.hessian_vec(x, v[:, j], l) for j in range(v.shape[1])]
            assert np.array_equal(hv, np.column_stack(cols))
    assert not sy.hessian_vec(x, block)[:, 1].any()


def test_a_system_without_a_preconditioner_gets_the_identity_metric():
    assert preconditioner_of(Quartic2D()) is EUCLIDEAN
    gen = make_rng(2, "test:systems:metric")
    v, g = gen.normal(size=(6, 3)), gen.normal(size=6)
    s, y = gen.normal(size=6), gen.normal(size=6)
    pairs = [(s, y, 1.0 / float(s @ y))]
    # the identity is every metric argument's default: passing it changes no bit
    # HiSD's directions under M = I take the same bits as LOBPCG's Euclidean step
    assert np.array_equal(_m_orthonormalize(v, EUCLIDEAN), v @ inverse_factor(v.T).T)
    assert np.array_equal(lbfgs_direction(g, pairs, 0.7), lbfgs_direction(g, pairs, 0.7, EUCLIDEAN))
    assert np.array_equal(EUCLIDEAN.apply(g), g) and np.array_equal(EUCLIDEAN.solve(g), g)


def test_identity_metric_leaves_lobpcg_unchanged():
    d = np.linspace(-1.0, 4.0, 300)  # above the dense cutoff, so LOBPCG runs
    sy = DiagQuadratic(d)
    x = np.ones(300)

    def solve(**metric):
        return solve_smallest(lambda v: sy.hessian_vec(x, v), 300, 4, **metric)

    plain, identity = solve(), solve(precond=EUCLIDEAN)
    assert plain.iterations > 0
    assert np.array_equal(plain.eigenvalues, identity.eigenvalues)
    assert np.array_equal(plain.eigenvectors, identity.eigenvectors)
