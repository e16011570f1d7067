"""Free energy and gradient against independent summation and FD oracles."""

import gc
import math
import weakref

import numpy as np
import pytest

import scipy.sparse as sp

import nematicq.energy as energy_module
from nematicq.energy import (
    LdGSystem,
    elastic_apply,
    elastic_affine,
    free_energy,
    gradient,
    l1_operator,
    linear_shift,
)
from nematicq.errors import ShapeMismatch, ValidationError
from nematicq.field import Domain
from nematicq.field import QField, seed_field, symmetrize
from nematicq.minimize import MinimizeOptions, minimize
from nematicq.qtensor import (
    BulkParams,
    bulk_energy,
    bulk_energy_gradient,
    bulk_gradient,
    frob2,
    to_matrix,
    uniaxial_components,
)
from nematicq.sav import SavSplit
from nematicq.systems import System, make_rng
from nematicq.toys import DiagQuadratic, DoubleWell2D, Quartic2D
from oracles import dual_components, elastic_form, elastic_matrix, metric_matrix

BULK = BulkParams(-1.0 / 3.0, 1.0, 1.0)


def make_domain(n=6, lambda2=5.0, **kw):
    kw.setdefault("bulk", BULK)
    return Domain(nx=n, ny=n, lambda2=lambda2, **kw)


def oracle_energy(domain: Domain, vals: np.ndarray) -> float:
    """Direct double-loop summation with matrix-level densities."""
    ext = domain.extend(vals)
    nx, ny = domain.nx, domain.ny
    hx, hy = domain.hx, domain.hy
    mats = to_matrix(ext)
    total = 0.0
    # x-edges: rows of interior y only; all nx+1 edges per row
    for i in range(nx + 1):
        for j in range(1, ny + 1):
            diff = mats[i + 1, j] - mats[i, j]
            total += 0.5 * (hy / hx) * float(np.sum(diff * diff))
    # y-edges
    for i in range(1, nx + 1):
        for j in range(ny + 1):
            diff = mats[i, j + 1] - mats[i, j]
            total += 0.5 * (hx / hy) * float(np.sum(diff * diff))
    # bulk over interior nodes
    for i in range(1, nx + 1):
        for j in range(1, ny + 1):
            q = ext[i, j]
            total += domain.lambda2 * hx * hy * float(bulk_energy(q, domain.bulk))
    # optional l2/l3 cell terms
    if domain.l2 != 0.0 or domain.l3 != 0.0:
        for i in range(nx + 1):
            for j in range(ny + 1):
                ax = (
                    mats[i + 1, j] + mats[i + 1, j + 1] - mats[i, j] - mats[i, j + 1]
                ) / (2.0 * hx)
                ay = (
                    mats[i, j + 1] + mats[i + 1, j + 1] - mats[i, j] - mats[i + 1, j]
                ) / (2.0 * hy)
                div = ax[0, :] + ay[1, :]
                dens = 0.5 * domain.l2 * float(div @ div)
                dens += 0.5 * domain.l3 * float(
                    ax[0] @ ax[0] + 2.0 * (ax[1] @ ay[0]) + ay[1] @ ay[1]
                )
                total += hx * hy * dens
    return total


def test_zero_field_zero_boundary_is_zero():
    d = make_domain(boundary="zero")
    assert free_energy(d, np.zeros(d.shape)) == 0.0


def test_constant_field_constant_boundary_is_pure_bulk():
    qc = uniaxial_components(0.7, np.array([1.0, 2.0, 0.5]) / np.sqrt(5.25))

    def bc(x, y):
        return np.broadcast_to(qc, x.shape + (5,)).copy()

    d = make_domain(n=7, lambda2=3.0, boundary=bc, l2=0.3, l3=0.2)
    vals = np.broadcast_to(qc, d.shape).copy()
    expected = d.lambda2 * d.hx * d.hy * d.nx * d.ny * float(bulk_energy(qc, d.bulk))
    assert free_energy(d, vals) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("l23", [(0.0, 0.0), (0.8, 0.5)])
def test_energy_matches_double_loop_oracle(l23):
    l2, l3 = l23
    d = make_domain(n=6, lambda2=4.0, l2=l2, l3=l3)
    gen = make_rng(21, "test:energy")
    vals = 0.5 * gen.normal(size=d.shape)
    assert free_energy(d, vals) == pytest.approx(oracle_energy(d, vals), rel=1e-12)


def test_rectangular_grid_matches_oracle():
    d = Domain(nx=5, ny=9, lambda2=2.0, bulk=BULK, l2=0.4, l3=0.3)
    gen = make_rng(22, "test:energy")
    vals = 0.4 * gen.normal(size=d.shape)
    assert free_energy(d, vals) == pytest.approx(oracle_energy(d, vals), rel=1e-12)


@pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
def test_gradient_matches_directional_fd(l23):
    l2, l3 = l23
    d = make_domain(n=6, lambda2=5.0, l2=l2, l3=l3)
    gen = make_rng(23, "test:energy")
    vals = 0.4 * gen.normal(size=d.shape)
    g = gradient(d, vals).reshape(-1)
    eps = 1e-6
    for _ in range(20):
        direction = gen.normal(size=d.shape)
        direction /= np.linalg.norm(direction)
        fp = free_energy(d, vals + eps * direction)
        fm = free_energy(d, vals - eps * direction)
        fd = (fp - fm) / (2.0 * eps)
        exact = float(g @ direction.reshape(-1))
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-10)


def test_gradient_on_16x16_acceptance_shape():
    d = make_domain(n=16, lambda2=5.0)
    gen = make_rng(24, "test:energy")
    vals = 0.4 * gen.normal(size=d.shape)
    g = gradient(d, vals).reshape(-1)
    eps = 1e-6
    for _ in range(5):
        direction = gen.normal(size=d.shape)
        direction /= np.linalg.norm(direction)
        fd = (free_energy(d, vals + eps * direction) - free_energy(d, vals - eps * direction)) / (
            2 * eps
        )
        assert fd == pytest.approx(float(g @ direction.reshape(-1)), rel=1e-6, abs=1e-10)


def test_elastic_operator_decomposition():
    """gradient = K q + c + bulk part, with K the sparse matrix and c the ring shift."""
    d = make_domain(n=6, lambda2=3.0)
    gen = make_rng(25, "test:energy")
    q = 0.5 * gen.normal(size=d.n_dof)
    k = elastic_matrix(d)
    c = elastic_affine(d)[0]
    kq = elastic_apply(d, q)
    assert np.allclose(k @ q, kq, atol=1e-12 * max(1.0, np.abs(kq).max()))
    g_full = gradient(d, q.reshape(d.shape)).reshape(-1)
    from nematicq.qtensor import bulk_gradient

    g_bulk = d.lambda2 * d.hx * d.hy * bulk_gradient(q.reshape(d.shape), d.bulk).reshape(-1)
    assert np.allclose(g_full, kq + c + g_bulk, atol=1e-12)


def test_elastic_matrix_symmetric_psd():
    d = make_domain(n=5)
    k = elastic_matrix(d).toarray()
    assert np.abs(k - k.T).max() < 1e-14
    w = np.linalg.eigvalsh(k)
    assert w.min() > 0  # Dirichlet boundary: strictly positive


def test_metric_matrix_matches_frobenius():
    d = make_domain(n=4)
    gen = make_rng(26, "test:energy")
    q = gen.normal(size=d.n_dof)
    from nematicq.qtensor import frob2

    lhs = float(q @ (metric_matrix(d) @ q))
    rhs = float(np.sum(frob2(q.reshape(d.shape))))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_boundary_values_enter_energy():
    """Tangent versus zero boundary must change energy via boundary-adjacent edges."""
    d_t = make_domain(n=5)
    d_z = make_domain(n=5, boundary="zero")
    vals = np.zeros(d_t.shape)
    e_t = free_energy(d_t, vals)
    e_z = free_energy(d_z, vals)
    assert e_t > e_z  # the tangent ring creates nonzero boundary-adjacent edges


class TestLdGSystem:
    def test_energy_gradient_flat_interface(self):
        d = make_domain(n=5)
        sy = LdGSystem(d)
        gen = make_rng(27, "test:energy")
        x = 0.3 * gen.normal(size=sy.n)
        assert sy.energy(x) == pytest.approx(free_energy(d, x.reshape(d.shape)))
        assert np.array_equal(sy.gradient(x), gradient(d, x.reshape(d.shape)).reshape(-1))

    @pytest.mark.parametrize("method", ["energy", "gradient", "energy_gradient"])
    def test_single_point_methods_reject_a_block(self, method):
        sy = LdGSystem(make_domain(n=8))
        call = getattr(sy, method)
        call(np.zeros(sy.n))
        call(np.zeros(sy.domain.shape))
        with pytest.raises(ShapeMismatch, match="one field"):
            call(np.zeros((2, sy.n)))

    def test_hessian_vec_quadratic_l_independent(self):
        # quadratic-only energy: cubic and quartic bulk terms disabled
        d = make_domain(n=5, lambda2=2.0, bulk=BulkParams(0.5, 0.0, 0.0), boundary="zero")
        sy = LdGSystem(d)
        gen = make_rng(28, "test:energy")
        x = 0.01 * gen.normal(size=sy.n)
        v = gen.normal(size=sy.n)
        v /= np.linalg.norm(v)
        h1 = sy.hessian_vec(x, v, l=1e-2)
        h2 = sy.hessian_vec(x, v, l=1e-6)
        assert np.abs(h1 - h2).max() < 1e-10

    def test_hessian_vec_of_the_wrong_length_names_both_shapes(self):
        sy = LdGSystem(make_domain(n=5))
        with pytest.raises(ShapeMismatch, match=r"v has shape \(120,\), need \(125,\) or \(125, m\)"):
            sy.hessian_vec(np.zeros(sy.n), np.ones(sy.n - 5))

    def test_hessian_vec_zero_vector(self):
        d = make_domain(n=5)
        sy = LdGSystem(d)
        assert not sy.hessian_vec(np.zeros(sy.n), np.zeros(sy.n)).any()

    def test_hessian_vec_symmetric(self):
        d = make_domain(n=5)
        sy = LdGSystem(d)
        gen = make_rng(29, "test:energy")
        x = 0.3 * gen.normal(size=sy.n)
        for _ in range(10):
            v = gen.normal(size=sy.n)
            w = gen.normal(size=sy.n)
            hv = sy.hessian_vec(x, v)
            hw = sy.hessian_vec(x, w)
            a, b = float(w @ hv), float(v @ hw)
            assert a == pytest.approx(b, rel=1e-12)

    def test_hessian_vec_matches_dense_fd_oracle(self):
        d = make_domain(n=4, lambda2=3.0)
        sy = LdGSystem(d)
        gen = make_rng(30, "test:energy")
        x = 0.3 * gen.normal(size=sy.n)
        delta = 1e-5
        eye = np.eye(sy.n)
        cols = []
        for j in range(sy.n):
            cols.append((sy.gradient(x + delta * eye[:, j]) - sy.gradient(x - delta * eye[:, j])) / (2 * delta))
        hd = np.column_stack(cols)
        hd = 0.5 * (hd + hd.T)
        for _ in range(5):
            v = gen.normal(size=sy.n)
            v /= np.linalg.norm(v)
            hv = sy.hessian_vec(x, v)
            assert np.linalg.norm(hv - hd @ v) <= 1e-5 * max(1.0, np.linalg.norm(hv))


def _swirl_boundary(x, y):
    out = np.zeros(x.shape + (5,))
    out[..., 0] = 0.3 * np.sin(3.0 * x)
    out[..., 1] = 0.2 * x * y
    out[..., 4] = 0.1 * np.cos(y)
    return out


def _bulk_hessian_oracle(q: np.ndarray, p: BulkParams) -> np.ndarray:
    """5 x 5 bulk Hessian at one tensor from the matrix-form derivative of
    a Q - b (Q^2 - |Q|^2/3 I) + c |Q|^2 Q along each component direction."""
    qm = to_matrix(q)
    cols = []
    for e in np.eye(5):
        vm = to_matrix(e)
        qv = float(np.sum(qm * vm))
        dm = (
            p.a * vm
            - p.b * (qm @ vm + vm @ qm - (2.0 / 3.0) * qv * np.eye(3))
            + p.c * (float(np.sum(qm * qm)) * vm + 2.0 * qv * qm)
        )
        cols.append(dual_components(dm))
    return np.column_stack(cols)


class TestExactHessian:
    """LdGSystem.hessian_vec: the closed-form action against dense and finite-difference oracles."""

    def test_matches_dense_oracle(self):
        d = Domain(nx=4, ny=4, lambda2=3.0, bulk=BULK, boundary="planar")
        sy = LdGSystem(d)
        x = 0.4 * make_rng(32, "test:energy:exact").normal(size=sy.n)
        blocks = [_bulk_hessian_oracle(q, d.bulk) for q in x.reshape(-1, 5)]
        h = elastic_matrix(d).toarray() + d.lambda2 * d.hx * d.hy * sp.block_diag(blocks).toarray()
        assert sy.n == 80
        assert np.linalg.norm(sy.hessian_vec(x, np.eye(sy.n)) - h) <= 1e-12 * np.linalg.norm(h)

    def test_matches_dense_l23_oracle_on_a_rectangle(self):
        # the dense l2/l3 form of the oracles, a callable ring, and a 9 x 6 grid
        # whose 270 columns go through in 9 chunks of 30
        d = Domain(nx=9, ny=6, lambda2=3.0, bulk=BULK, boundary=_swirl_boundary, l2=0.6, l3=0.4)
        sy = LdGSystem(d)
        x = 0.4 * make_rng(37, "test:energy:exact").normal(size=sy.n)
        blocks = [_bulk_hessian_oracle(q, d.bulk) for q in x.reshape(-1, 5)]
        h = elastic_form(d, d.l2, d.l3) + d.lambda2 * d.hx * d.hy * sp.block_diag(blocks).toarray()
        assert np.linalg.norm(sy.hessian_vec(x, np.eye(sy.n)) - h) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_blocks_around_the_chunk_width_equal_column_calls(self, l23):
        # at 16^2 a chunk holds six columns: widths 1 to 7 fill one chunk
        # partly, exactly, and spill one column into a second
        d = Domain(nx=16, ny=16, lambda2=50.0, bulk=BULK, boundary="planar", l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        assert max(1, energy_module._CHUNK_BYTES // (8 * d.n_dof)) == 6
        gen = make_rng(38, "test:energy:chunks")
        x = 0.4 * gen.normal(size=sy.n)
        v = gen.normal(size=(sy.n, 7))
        columns = np.column_stack([sy.hessian_vec(x, col) for col in v.T])
        for width in range(1, 8):
            assert np.array_equal(sy.hessian_vec(x, v[:, :width]), columns[:, :width])

    @pytest.mark.parametrize("boundary", ["planar", "tangent", "zero", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_matches_finite_differences(self, boundary, l23):
        d = Domain(nx=7, ny=6, lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        gen = make_rng(33, "test:energy:exact")
        x = 0.4 * gen.normal(size=sy.n)
        v = gen.normal(size=(sy.n, 3))
        exact = sy.hessian_vec(x, v)
        fd = System.hessian_vec(sy, x, v)
        assert np.linalg.norm(exact - fd, axis=0).max() <= 1e-8 * np.linalg.norm(fd, axis=0).min()

    @pytest.mark.parametrize("boundary", ["tangent", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    @pytest.mark.parametrize("grid", [(8, 8), (9, 6)])
    def test_block_columns_equal_vector_calls(self, boundary, l23, grid):
        d = Domain(nx=grid[0], ny=grid[1], lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        gen = make_rng(34, "test:energy:exact")
        x = 0.4 * gen.normal(size=sy.n)
        v = gen.normal(size=(sy.n, 5))
        v[:, 2] = 0.0
        hv = sy.hessian_vec(x, v)
        assert hv.shape == v.shape
        assert np.array_equal(hv, np.column_stack([sy.hessian_vec(x, col) for col in v.T]))
        assert np.array_equal(sy.hessian_vec(x, v[:, :1]), hv[:, :1])
        assert not hv[:, 2].any()
        # no probe is taken, so the probe length changes nothing
        assert np.array_equal(sy.hessian_vec(x, v, l=1e-2), hv)

    @pytest.mark.parametrize("grid, m", [(64, 3), (16, 13)])
    def test_chunked_block_equals_column_calls(self, grid, m, monkeypatch):
        d = Domain(nx=grid, ny=grid, lambda2=5.0, bulk=BULK, boundary="planar")
        sy = LdGSystem(d)
        gen = make_rng(35, "test:energy:chunks")
        x = 0.4 * gen.normal(size=sy.n)
        v = gen.normal(size=(sy.n, m))
        assert v.nbytes > energy_module._CHUNK_BYTES  # more than one chunk
        hv = sy.hessian_vec(x, v)
        assert np.array_equal(hv, np.column_stack([sy.hessian_vec(x, col) for col in v.T]))
        monkeypatch.setattr(energy_module, "_CHUNK_BYTES", v.nbytes)  # the block in one chunk
        assert np.array_equal(sy.hessian_vec(x, v), hv)


class TestBulkHessianReuse:
    """LdGSystem.hessian_vec keeps the last point's bulk matrices and reuses
    them only at a point equal to it by content."""

    @staticmethod
    def setup(n=8):
        d = Domain(nx=n, ny=n, lambda2=5.0, bulk=BULK, boundary="planar")
        gen = make_rng(36, "test:energy:reuse")
        return d, 0.4 * gen.normal(size=d.n_dof), gen.normal(size=(d.n_dof, 3))

    def test_reused_product_equals_a_fresh_systems(self, monkeypatch):
        d, x, v = self.setup()
        sy = LdGSystem(d)
        assemblies = []
        original = energy_module.bulk_hessian
        monkeypatch.setattr(energy_module, "bulk_hessian", lambda *a: assemblies.append(1) or original(*a))
        first = sy.hessian_vec(x, v)
        again = sy.hessian_vec(x.copy(), v[:, 1])  # equal content, another array
        assert len(assemblies) == 1
        assert np.array_equal(first, LdGSystem(d).hessian_vec(x, v))
        assert np.array_equal(again, LdGSystem(d).hessian_vec(x, v[:, 1]))

    def test_x_changed_in_place_gets_its_own_product(self):
        d, x, v = self.setup()
        sy = LdGSystem(d)
        sy.hessian_vec(x, v)
        x[7] += 0.25
        assert np.array_equal(sy.hessian_vec(x, v), LdGSystem(d).hessian_vec(x, v))

    def test_non_finite_x_still_raises(self):
        d, x, v = self.setup()
        sy = LdGSystem(d)
        sy.hessian_vec(x, v)
        x[3] = np.nan
        with pytest.raises(ShapeMismatch):
            sy.hessian_vec(x, v)


class TestBatchedKernels:
    """One kernel call on a block of fields equals the row-by-row calls, bit for bit."""

    @pytest.mark.parametrize("boundary", ["tangent", "planar", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    @pytest.mark.parametrize("grid", [(8, 8), (9, 6)])
    @pytest.mark.parametrize("m", [1, 5])
    def test_block_equals_rows(self, boundary, l23, grid, m):
        d = Domain(nx=grid[0], ny=grid[1], lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        xs = 0.4 * make_rng(31, "test:energy:batch").normal(size=(m, sy.n))
        energies, gradients = sy.energies(xs), sy.gradients(xs)
        assert energies.shape == (m,) and gradients.shape == (m, sy.n)
        assert np.array_equal(energies, [sy.energy(x) for x in xs])
        assert np.array_equal(gradients, [sy.gradient(x) for x in xs])
        fields = xs.reshape((m,) + d.shape)
        assert np.array_equal(free_energy(d, fields), energies)
        assert np.array_equal(gradient(d, fields), gradients.reshape(fields.shape))

    @pytest.mark.parametrize("boundary", ["tangent", "planar", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    @pytest.mark.parametrize("m", [1, 5])
    def test_fused_block_equals_the_two_calls(self, boundary, l23, m):
        d = Domain(nx=9, ny=6, lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        xs = 0.4 * make_rng(32, "test:energy:batch").normal(size=(m, sy.n))
        for block in (xs, xs.reshape((m,) + d.shape)):
            energies, gradients = sy.energies_gradients(block)
            assert energies.shape == (m,) and gradients.shape == block.shape
            assert np.array_equal(energies, sy.energies(block))
            assert np.array_equal(gradients, sy.gradients(block))

    def test_non_finite_row_raises(self):
        sy = LdGSystem(make_domain(n=5))
        xs = np.zeros((3, sy.n))
        xs[1, 7] = np.inf
        with pytest.raises(ShapeMismatch):
            sy.energies(xs)
        with pytest.raises(ShapeMismatch):
            sy.gradients(xs)
        with pytest.raises(ShapeMismatch):
            sy.energies_gradients(xs)


class TestSineSolver:
    """The domain's L1 solve, shifted solve and apply against the assembled sparse operators."""

    @staticmethod
    def assert_solves_and_applies(op, solver, gen, shift=0.0):
        # vectors and blocks of 2 and 5 columns: the transforms run on
        # (5m, nx, ny) planes, which must keep the columns and axes apart;
        # op is L1 + shift I
        n = op.shape[0]
        for r in (gen.normal(size=n), gen.normal(size=(n, 2)), gen.normal(size=(n, 5))):
            x = solver.solve(r, shift)
            assert x.shape == r.shape
            assert np.linalg.norm(op @ x - r) <= 1e-12 * np.linalg.norm(r)
            y = solver.apply(r) + shift * r
            assert y.shape == r.shape
            assert np.linalg.norm(y - op @ r) <= 1e-12 * np.linalg.norm(op @ r)
            assert np.linalg.norm(solver.solve(y, shift) - r) <= 1e-12 * np.linalg.norm(r)

    @pytest.mark.parametrize("boundary", ["tangent", "planar", "zero"])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_inverts_preconditioner_and_sav_operators(self, boundary, l23):
        d = Domain(nx=12, ny=9, lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        gen = make_rng(7, "test:energy:sine")
        # the preconditioner M = L1 = K + a1 hx hy kron(I, G), the one-constant
        # part of the flow's linear operator, assembled as the oracle
        sigma = linear_shift(d) * d.hx * d.hy
        assert SavSplit(d).a1 == linear_shift(d)
        l1 = elastic_matrix(d) + sigma * metric_matrix(d)
        self.assert_solves_and_applies(l1, LdGSystem(d).preconditioner(), gen)
        # the flow's step solves (L1 + (2/dt) I)^-1
        eye = sp.identity(d.n_dof)
        for dt in (1e-3, 2.0):
            self.assert_solves_and_applies(eye * (2.0 / dt) + l1, l1_operator(d), gen, 2.0 / dt)

    @pytest.mark.parametrize("grid, m", [(64, 4), (16, 30), (9, 3)])
    def test_block_columns_match_vector_calls(self, grid, m):
        # at 64^2 and 16^2 the block goes through in several chunks
        d = Domain(nx=grid, ny=grid, lambda2=5.0, bulk=BULK, boundary="planar")
        solver = LdGSystem(d).preconditioner()
        r = make_rng(9, "test:energy:sine").normal(size=(d.n_dof, m))
        for act in (solver.solve, solver.apply, lambda v: solver.solve(v, 0.7)):
            block = act(r)
            cols = np.column_stack([act(col) for col in r.T])
            assert block.shape == r.shape and block.flags.c_contiguous
            assert np.all(np.abs(block - cols).max(axis=0) <= 1e-14 * np.abs(cols).max(axis=0))
            assert act(r[:, :0]).shape == (d.n_dof, 0)  # k = 0 saddle dynamics carry an empty V

    def test_shift_must_keep_the_operator_spd(self):
        """A shift at or below -mu0, or not finite, is refused; -0.8 mu0, the
        eigensolver's, solves L1 - 0.8 mu0 I."""
        d = Domain(nx=7, ny=5, lambda2=5.0, bulk=BULK, boundary="planar")
        solver = l1_operator(d)
        mu0 = solver.lowest_eigenvalue
        assert mu0 == solver.eigenvalues.min() > 0.0
        r = make_rng(10, "test:energy:shift").normal(size=d.n_dof)
        for shift in (-mu0, -1.01 * mu0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="not SPD"):
                solver.solve(r, shift)
        l1 = (elastic_matrix(d) + linear_shift(d) * d.hx * d.hy * metric_matrix(d)).toarray()
        x = solver.solve(r, -0.8 * mu0)
        assert np.linalg.norm(l1 @ x - 0.8 * mu0 * x - r) <= 1e-10 * np.linalg.norm(r)

    def test_one_operator_per_domain(self):
        d = make_domain(6)
        op = l1_operator(d)
        assert LdGSystem(d).preconditioner() is op and LdGSystem(d).preconditioner() is op
        assert l1_operator(make_domain(6)) is not op
        dropped = weakref.ref(d)
        del d, op
        gc.collect()
        assert dropped() is None


class TestEnergyGradient:
    """``energy_gradient`` is ``(energy, gradient)`` bit for bit."""

    @pytest.mark.parametrize("boundary", ["planar", "tangent", "zero", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    @pytest.mark.parametrize("grid", [(8, 8), (9, 6)])
    def test_ldg_equals_the_two_calls(self, boundary, l23, grid):
        d = Domain(nx=grid[0], ny=grid[1], lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        gen = make_rng(35, "test:energy:fused")
        for scale in (0.1, 0.4, 1.5):
            x = scale * gen.normal(size=sy.n)
            e, g = sy.energy_gradient(x)
            assert type(e) is float and e == sy.energy(x)
            assert g.shape == (sy.n,) and np.array_equal(g, sy.gradient(x))

    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_ldg_single_field_is_a_one_row_block(self, l23):
        # the single-field case of the fused block pass keeps the bits of
        # energy and gradient, for flat and (nx, ny, 5) fields
        d = Domain(nx=9, ny=6, lambda2=5.0, bulk=BULK, boundary="planar", l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        x = 0.4 * make_rng(37, "test:energy:fused").normal(size=sy.n)
        (e_row,), (g_row,) = sy.energies_gradients(x[None])
        for y in (x, x.reshape(d.shape)):
            e, g = sy.energy_gradient(y)
            assert type(e) is float and e == sy.energy(y) == e_row
            assert g.shape == (sy.n,) and np.array_equal(g, sy.gradient(y)) and np.array_equal(g, g_row)

    def test_bulk_pass_equals_the_two_kernels(self):
        q = 0.7 * make_rng(36, "test:energy:fused").normal(size=(9, 6, 5))
        density, grad = bulk_energy_gradient(q[1:-1, 1:-1], BULK)
        assert np.array_equal(density, bulk_energy(q[1:-1, 1:-1], BULK))
        assert np.array_equal(grad, bulk_gradient(q[1:-1, 1:-1], BULK))

    def test_toy_default_makes_the_two_calls(self):
        x = np.array([0.3, -1.2])
        for sy, y in ((Quartic2D(), x), (DoubleWell2D(), x), (DiagQuadratic([-1.0, 2.0, 3.0]), np.array([0.5, 1.0, -2.0]))):
            e, g = sy.energy_gradient(y)
            assert e == sy.energy(y) and np.array_equal(g, sy.gradient(y))


class TestAffineEnergy:
    """The energy read off the elastic gradient: 1/2 x.(g + c) + e0 plus the bulk sum."""

    @pytest.mark.parametrize("boundary", ["tangent", "planar", "zero", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_matches_double_loop_oracle_for_every_boundary(self, boundary, l23):
        d = make_domain(n=6, lambda2=4.0, boundary=boundary, l2=l23[0], l3=l23[1])
        vals = 0.5 * make_rng(39, "test:energy:affine").normal(size=d.shape)
        assert free_energy(d, vals) == pytest.approx(oracle_energy(d, vals), rel=1e-13)

    @pytest.mark.parametrize("boundary", ["tangent", "planar", "zero", _swirl_boundary])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_zero_field_gives_the_kept_ring_energy(self, boundary, l23):
        d = Domain(nx=9, ny=6, lambda2=5.0, bulk=BULK, boundary=boundary, l2=l23[0], l3=l23[1])
        c, e0 = elastic_affine(d)
        assert elastic_affine(d)[0] is c and not c.flags.writeable
        assert e0 == pytest.approx(oracle_energy(d, np.zeros(d.shape)), rel=1e-13)
        assert free_energy(d, np.zeros(d.shape)) == e0
        assert LdGSystem(d).energy_gradient(np.zeros(d.n_dof))[0] == e0
        assert np.array_equal(gradient(d, np.zeros(d.shape)).reshape(-1), c)

    @staticmethod
    def fsum_energy(d: Domain, vals: np.ndarray) -> float:
        """The energy as one math.fsum of its edge and node terms (l2 = l3 = 0)."""
        ext = d.extend(vals)
        terms = [
            0.5 * (d.hy / d.hx) * frob2(ext[1:, 1:-1] - ext[:-1, 1:-1]),
            0.5 * (d.hx / d.hy) * frob2(ext[1:-1, 1:] - ext[1:-1, :-1]),
            d.lambda2 * d.hx * d.hy * bulk_energy(ext[1:-1, 1:-1], d.bulk),
        ]
        return math.fsum(np.concatenate([t.ravel() for t in terms]))

    @pytest.mark.parametrize("state", ["minimum64", "cross16"])
    def test_within_four_ulps_of_an_exact_sum(self, state):
        # the 64^2 stable state at lambda2 = 5 and the 16^2 index-2 cross at
        # lambda2 = 50; minimize judges energies to a band of 16 ulps, which
        # the affine form's rounding must not use up
        bulk = BulkParams(-2.0 / 3.0, 2.0, 2.0)
        if state == "minimum64":
            d = Domain(nx=64, ny=64, lambda2=5.0, bulk=bulk, boundary="planar")
            x0, opts = seed_field(d, "isotropic").flat, MinimizeOptions(tol_grad=1e-8)
        else:
            d = Domain(nx=16, ny=16, lambda2=50.0, bulk=bulk, boundary="planar")
            x, y = np.meshgrid(d.xs, d.ys, indexing="ij")
            q = np.zeros(d.shape)
            sign = np.where(np.abs(y - 0.5) > np.abs(x - 0.5), 1.0, -1.0)
            q[..., 0] = 0.5 * d.s_plus * sign * np.minimum(1.0, 3.0 * np.minimum(np.abs(x - y), np.abs(x + y - 1.0)))
            q[..., 3] = -q[..., 0]

            def project(flat):
                return symmetrize(QField.from_flat(d, flat)).flat

            x0, opts = project(q.reshape(-1)), MinimizeOptions(tol_grad=1e-8, project=project)
        res = minimize(LdGSystem(d), x0, opts)
        assert res.converged
        exact = self.fsum_energy(d, res.x)
        assert abs(free_energy(d, res.x) - exact) <= 4 * np.spacing(abs(exact))
