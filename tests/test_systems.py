"""The base-class block evaluations, the finite-difference Hessian product, the identity metric
and the one stationarity measure, ``System.grad_inf``."""

import numpy as np
import pytest

from nematicq.energy import LdGSystem
from nematicq.errors import NotStationary
from nematicq.field import Domain, seed_field
from nematicq.hisd import _m_orthonormalize, classify_stationary, find_saddle, make_record
from nematicq.mep import Path, find_mep, perpendicular_residual
from nematicq.minimize import MinimizeOptions, lbfgs_direction, minimize
from nematicq.sav import flow_to_equilibrium
from nematicq.qtensor import BulkParams
from nematicq.spectrum import inverse_factor, solve_smallest
from nematicq.systems import EUCLIDEAN, System, default_probe_length, make_rng, preconditioner_of
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


class Strict(Quartic2D):
    """The quartic whose stationarity measure is 1e3 times |g|inf."""

    def grad_inf(self, g):
        return 1e3 * System.grad_inf(self, g)


# 1e-10 off the minimum (1, 1): |g|inf = 8e-10, below 1e-8, and 8e-7 to Strict
NEAR_MINIMUM = np.array([1.0 + 1e-10, 1.0])


def true_grad_inf(sy, x):
    return float(np.abs(sy.gradient(x)).max())


@pytest.mark.parametrize(
    "g", [[3.0, -1.5], [-0.0, -0.0], [0.5, -2.0, np.inf], [[-np.inf, 1.0], [2.0, 0.0]], [1.0, np.nan, -3.0]]
)
def test_grad_inf_is_the_inf_norm_bit_for_bit(g):
    for block in (np.array(g), -np.array(g)):
        measure = Quartic2D().grad_inf(block)
        assert type(measure) is float
        assert np.array_equal(measure, float(np.abs(block).max()), equal_nan=True)
        assert np.signbit(measure) == np.signbit(float(np.abs(block).max()))


def test_the_measure_decides_where_minimize_stops():
    base = minimize(Quartic2D(), NEAR_MINIMUM, MinimizeOptions(tol_grad=1e-8))
    assert base.converged and base.iterations == 0
    strict = minimize(Strict(), NEAR_MINIMUM, MinimizeOptions(tol_grad=1e-8))
    assert strict.converged and strict.iterations > 0
    assert strict.grad_inf == 1e3 * true_grad_inf(Strict(), strict.x) < 1e-8


def test_the_measure_decides_where_a_saddle_search_lands():
    assert np.array_equal(find_saddle(Quartic2D(), 0, NEAR_MINIMUM).field, NEAR_MINIMUM)
    rec = find_saddle(Strict(), 0, NEAR_MINIMUM)
    assert not np.array_equal(rec.field, NEAR_MINIMUM)
    assert rec.grad_inf == 1e3 * true_grad_inf(Strict(), rec.field) < 1e-8


def test_the_measure_decides_what_is_stationary():
    assert classify_stationary(Quartic2D(), NEAR_MINIMUM)[0] == 0
    assert make_record(Quartic2D(), NEAR_MINIMUM).morse_index == 0
    for certify in (classify_stationary, make_record):
        with pytest.raises(NotStationary) as err:
            certify(Strict(), NEAR_MINIMUM)
        assert err.value.grad_norm == 1e3 * true_grad_inf(Strict(), NEAR_MINIMUM)


def test_the_measure_decides_the_string_checks():
    # the endpoints pass 10 tol = 1e-8 by |g|inf and fail it by Strict's
    other = np.array([-1.0, 1.0])
    assert find_mep(NEAR_MINIMUM, other, tol=1e-9, system=Quartic2D()).ts_lambda1 < 0.0
    with pytest.raises(NotStationary):
        find_mep(NEAR_MINIMUM, other, tol=1e-9, system=Strict())
    # and the string's residual on a bent path
    t = np.linspace(0.0, 1.0, 9)
    nodes = np.stack([2.0 * t - 1.0, 1.0 + 0.3 * np.sin(np.pi * t)], axis=1)
    residual = perpendicular_residual(Path.from_nodes(Quartic2D(), nodes))
    assert residual > 0.0
    assert perpendicular_residual(Path.from_nodes(Strict(), nodes)) == 1e3 * residual


def test_the_measure_decides_where_the_flow_stops(monkeypatch):
    # 5 SAV steps and 2 Newton steps stop at |g|inf = 7.4e-7; with the measure
    # 1e3 times larger, a third Newton step goes below 1e-9
    d = Domain(nx=5, ny=5, lambda2=5.0, bulk=BulkParams(-1.0, 1.0, 1.0))
    start = seed_field(d, "random(0.2)", seed=8)
    out, _ = flow_to_equilibrium(start, dt=0.5, tol_grad=1e-6)
    assert 1e-9 <= true_grad_inf(LdGSystem(d), out.flat) < 1e-6
    monkeypatch.setattr(LdGSystem, "grad_inf", Strict.grad_inf)
    out, _ = flow_to_equilibrium(start, dt=0.5, tol_grad=1e-6)
    assert true_grad_inf(LdGSystem(d), out.flat) < 1e-9
