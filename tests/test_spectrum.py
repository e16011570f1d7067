"""Eigensolver contracts: dense oracles, known spectra, determinism."""

import importlib.util
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import nematicq.energy as energy
import nematicq.hisd as hisd
import nematicq.spectrum as spectrum
from nematicq.energy import LdGSystem
from nematicq.errors import NoConvergence, ShapeMismatch
from nematicq.field import Domain, QField, seed_field, symmetrize
from nematicq.minimize import MinimizeOptions, minimize
from nematicq.qtensor import BulkParams
from nematicq.spectrum import _DENSE_CUTOFF, _GUARD, _MAXITER, operator_scale, smallest_eigs, solve_smallest
from nematicq.systems import EUCLIDEAN, make_rng
from nematicq.toys import DiagQuadratic, Quartic2D
from oracles import elastic_matrix, metric_matrix, scipy_lobpcg

BULK = BulkParams(-1.0 / 3.0, 1.0, 1.0)


def unpreconditioned(sy, x, k):
    """The smallest_eigs solve with LOBPCG run in the identity metric."""

    def apply_h(v):
        return sy.hessian_vec(x, v)

    return solve_smallest(apply_h, x.size, k)


def test_known_spectrum_diag_small_dense_path():
    sy = DiagQuadratic(np.arange(1.0, 41.0))
    rep = smallest_eigs(sy, np.zeros(40), k=5)
    assert rep.eigenvalues == pytest.approx(np.arange(1.0, 6.0), abs=1e-10)
    assert rep.morse_index == 0


def test_known_spectrum_diag_lobpcg_path():
    n = 400
    sy = DiagQuadratic(np.arange(1.0, n + 1.0))
    rep = smallest_eigs(sy, np.zeros(n), k=4)
    assert rep.eigenvalues == pytest.approx(np.arange(1.0, 5.0), abs=1e-7)
    assert np.abs(rep.eigenvectors.T @ rep.eigenvectors - np.eye(4)).max() < 1e-8
    assert rep.residuals.max() < 1e-6 * rep.scale


def test_negative_spectrum_counted():
    diag = np.concatenate([[-3.0, -1.0], np.arange(1.0, 199.0)])
    sy = DiagQuadratic(diag)
    rep = smallest_eigs(sy, np.zeros(sy.n), k=4)
    assert rep.eigenvalues[:2] == pytest.approx([-3.0, -1.0], abs=1e-7)
    assert rep.morse_index == 2
    assert not rep.stable


def test_operator_scale_power_iterations():
    diag = np.linspace(-7.0, 5.0, 300)
    sy = DiagQuadratic(diag)
    scale = operator_scale(lambda v: sy.gradient(v), 300)
    assert scale == pytest.approx(7.0, rel=0.05)


def test_k_validation():
    sy = DiagQuadratic(np.ones(10))
    with pytest.raises(ShapeMismatch):
        smallest_eigs(sy, np.zeros(10), k=0)
    with pytest.raises(ShapeMismatch):
        smallest_eigs(sy, np.zeros(10), k=31)
    with pytest.raises(ShapeMismatch):
        solve_smallest(lambda v: v, 3, 5)


def test_determinism_same_seed():
    d = Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK, boundary="planar")
    ldg = 0.3 * make_rng(5, "test:spectrum:repeat").normal(size=d.n_dof)
    cases = [
        (lambda: DiagQuadratic(np.arange(1.0, 301.0)), np.zeros(300)),
        (lambda: LdGSystem(d), ldg),
    ]
    for make, x in cases:
        r1 = smallest_eigs(make(), x, k=3)
        r2 = smallest_eigs(make(), x, k=3)
        assert r1.iterations == r2.iterations > 0
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(r1, field), getattr(r2, field))


def test_quartic_hessians():
    sy = Quartic2D()
    rep = smallest_eigs(sy, np.array([0.0, 0.0]), k=2)
    assert rep.eigenvalues == pytest.approx([-4.0, -4.0], rel=1e-6)
    assert rep.morse_index == 2
    rep = smallest_eigs(sy, np.array([1.0, 0.0]), k=2)
    assert rep.eigenvalues == pytest.approx([-4.0, 8.0], rel=1e-6)
    assert rep.morse_index == 1
    rep = smallest_eigs(sy, np.array([1.0, 1.0]), k=2)
    assert rep.morse_index == 0 and rep.stable


class DiagonalMetric:
    """M = diag(m), m ascending, recording the shapes ``solve`` and
    ``add_lowest_modes`` see."""

    def __init__(self, m):
        self.m = m
        self.lowest_eigenvalue = float(m[0])
        self.solves, self.starts = [], []

    def solve(self, r, shift=0.0):
        self.solves.append(r.shape)
        return (r.T / (self.m + shift)).T

    def apply(self, v):
        return (v.T * self.m).T

    def add_lowest_modes(self, x):
        """sqrt(n) e_j, M's j-th lowest eigenvector, added to column j."""
        self.starts.append(x.shape)
        n, width = x.shape
        x[np.arange(width), np.arange(width)] += np.sqrt(n)


def record_lobpcg_blocks(monkeypatch) -> list:
    """Record the start block of every LOBPCG call that ``solve_smallest`` makes."""
    blocks = []
    lobpcg = spectrum.lobpcg

    def recorded(op, x, **kwargs):
        blocks.append(np.array(x))
        return lobpcg(op, x, **kwargs)

    monkeypatch.setattr(spectrum, "lobpcg", recorded)
    return blocks


class TestGuardColumns:
    """LOBPCG iterates k + _GUARD columns and reports the smallest k."""

    def test_guarded_report_has_k_columns(self, monkeypatch):
        blocks = record_lobpcg_blocks(monkeypatch)
        n, k = 400, 3
        rep = smallest_eigs(DiagQuadratic(np.arange(1.0, n + 1.0)), np.zeros(n), k=k)
        assert [b.shape for b in blocks] == [(n, k + _GUARD)]
        assert rep.eigenvalues.shape == (k,) and rep.residuals.shape == (k,)
        assert rep.eigenvectors.shape == (n, k)
        assert rep.eigenvalues == pytest.approx([1.0, 2.0, 3.0], abs=1e-7)

    def test_one_lobpcg_call_with_the_whole_budget(self, monkeypatch):
        blocks = record_lobpcg_blocks(monkeypatch)
        monkeypatch.setattr(spectrum, "_MAXITER", 2)  # too few to converge
        n, k = 400, 2
        with pytest.raises(NoConvergence) as err:
            smallest_eigs(DiagQuadratic(np.arange(1.0, n + 1.0)), np.zeros(n), k=k)
        assert len(blocks) == 1
        assert err.value.iterations == 2

    def test_dense_cutoff_is_the_size_alone(self):
        """Dense up to _DENSE_CUTOFF and LOBPCG above it, whatever k: at
        k = 30, n = 161 still holds the 3 (k + 2) rows of [X; W; P]."""
        k = 30
        for n in (_DENSE_CUTOFF, _DENSE_CUTOFF + 1):
            rep = smallest_eigs(DiagQuadratic(np.arange(1.0, n + 1.0)), np.zeros(n), k=k)
            assert (rep.iterations > 0) == (n > _DENSE_CUTOFF)
            assert rep.eigenvalues == pytest.approx(np.arange(1.0, k + 1.0), abs=1e-7)


class TestFreshCheck:
    """Dense or LOBPCG, the reported pairs pass one fresh product of their k columns."""

    @pytest.mark.parametrize("n", [100, 400], ids=["dense", "lobpcg"])
    def test_last_product_is_the_k_reported_columns(self, n):
        shapes = []
        apply_h = partial(DiagQuadratic(np.arange(1.0, n + 1.0)).hessian_vec, np.zeros(n))

        def recorded(v):
            shapes.append(np.shape(v))
            return apply_h(v)

        rep = solve_smallest(recorded, n, 3)
        assert shapes[-1] == (n, 3)
        assert rep.residuals.max() <= 1e-6 * rep.scale

    def test_rotated_ritz_block_is_refused(self, monkeypatch):
        lobpcg = spectrum.lobpcg

        def rotated(op, x, **kwargs):
            w, v, iterations = lobpcg(op, x, **kwargs)
            c, s = np.cos(1e-3), np.sin(1e-3)
            v[:, [0, -1]] = v[:, [0, -1]] @ np.array([[c, -s], [s, c]])
            return w, v, iterations

        monkeypatch.setattr(spectrum, "lobpcg", rotated)
        n = 400
        with pytest.raises(NoConvergence):
            smallest_eigs(DiagQuadratic(np.arange(1.0, n + 1.0)), np.zeros(n), k=2)


class TestStartBlock:
    """LOBPCG starts from the fixed random block plus the metric's k + 2
    lowest eigenvectors; the identity adds none."""

    @pytest.mark.parametrize("metric", [{}, {"precond": EUCLIDEAN}], ids=["default", "euclidean"])
    def test_identity_start_is_the_random_block(self, metric, monkeypatch):
        blocks = record_lobpcg_blocks(monkeypatch)
        n, k = 300, 2
        sy = DiagQuadratic(np.linspace(-1.0, 4.0, n))
        solve_smallest(partial(sy.hessian_vec, np.ones(n)), n, k, **metric)
        assert np.array_equal(blocks[0], make_rng(0, "spectrum:init").normal(size=(n, k + _GUARD)))

    def test_sine_modes_are_the_lowest_eigenvectors_of_l1(self):
        d = Domain(nx=7, ny=5, lambda2=5.0, bulk=BULK, boundary="planar")
        pre = energy.l1_operator(d)
        x = np.zeros((d.n_dof, 6))
        pre.add_lowest_modes(x)
        x /= np.sqrt(d.n_dof)
        lowest = np.sort(pre.eigenvalues, axis=None)[:6]
        assert np.allclose(x.T @ x, np.eye(6), rtol=0, atol=1e-12)
        assert np.allclose(pre.apply(x), x * lowest, rtol=0, atol=1e-12)
        dense = np.linalg.eigvalsh(pre.apply(np.eye(d.n_dof)))
        assert np.allclose(lowest, dense[:6], rtol=1e-12)

    def test_iterations_at_the_lambda5_minimum(self):
        """The 32^2 and 64^2 certificates take at most 7 and 6 iterations
        (9 and 8 with the unshifted metric, 13 and 12 from the random block
        alone), no more at the finer grid, and agree with a solve from the
        random block alone."""
        iterations = {}
        for nx in (32, 64):
            d = Domain(nx=nx, ny=nx, lambda2=5.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
            sy = LdGSystem(d)
            opts = MinimizeOptions(tol_grad=1e-8, max_iters=20000)
            x = minimize(sy, seed_field(d, "isotropic").flat, opts).x
            rep = smallest_eigs(sy, x, k=2)
            iterations[nx] = rep.iterations
            random_start, _ = np.linalg.qr(make_rng(0, "spectrum:init").normal(size=(sy.n, 2 + _GUARD)))
            tol = 1e-8 * rep.scale
            w, _, _ = spectrum.lobpcg(
                partial(sy.hessian_vec, x), random_start, k=2, tol=tol, precond=sy.preconditioner()
            )
            assert rep.morse_index == 0
            assert np.abs(rep.eigenvalues - w[:2]).max() <= tol
        assert iterations[32] <= 7 and iterations[64] <= 6
        assert iterations[64] <= iterations[32]


def _cross_guess(domain: Domain) -> np.ndarray:
    """Cross-shaped in-plane start whose order melts on the two diagonals."""
    x, y = np.meshgrid(domain.xs, domain.ys, indexing="ij")
    sign = np.where(np.abs(y - 0.5) > np.abs(x - 0.5), 1.0, -1.0)
    ramp = np.minimum(1.0, 3.0 * np.minimum(np.abs(x - y), np.abs(x + y - 1.0)))
    q = np.zeros(domain.shape)
    q[:, :, 0] = 0.5 * domain.s_plus * sign * ramp
    q[:, :, 3] = -q[:, :, 0]
    return q.reshape(-1)


@pytest.fixture(scope="module")
def cross_state():
    """The index-2 cross state at 16^2, lambda2 = 50, and its system."""
    d = Domain(nx=16, ny=16, lambda2=50.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
    sy = LdGSystem(d)

    def project(flat):
        return symmetrize(QField.from_flat(d, flat)).flat

    opts = MinimizeOptions(tol_grad=1e-8, max_iters=20000, project=project)
    cross = minimize(sy, project(_cross_guess(d)), opts)
    assert cross.converged
    h = sy.hessian_vec(cross.x, np.eye(sy.n))
    return sy, cross.x, np.linalg.eigvalsh(0.5 * (h + h.T))


def test_cross_parent_certificate_with_degenerate_pairs(cross_state, monkeypatch):
    """The k = 4 window at the cross state ends on a degenerate pair, with
    the next pair 2 % above it; LOBPCG takes at most 19 iterations (25 with
    the unshifted metric)."""
    sy, x, w_ref = cross_state
    reports = []

    def recorded(*args, **kwargs):
        reports.append(smallest_eigs(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(hisd, "smallest_eigs", recorded)
    rec = hisd.make_record(sy, x, tol_grad=1e-6, k_hint=2)
    assert rec.morse_index == 2
    (rep,) = reports
    assert rep.eigenvalues.shape == (4,)
    assert 0 < rep.iterations <= 19
    assert np.abs(rep.eigenvalues - w_ref[:4]).max() <= 1e-8 * rep.scale
    # the window cuts between lambda4 and lambda5, 2 % apart
    assert w_ref[3] == pytest.approx(w_ref[2], rel=1e-9)
    assert w_ref[4] == pytest.approx(1.018 * w_ref[3], rel=1e-3)


def test_guard_columns_do_not_decide_when_to_stop(cross_state):
    """k = 2 at the cross state: the guards sit on the degenerate pair just
    below the next one and converge slowly, but the loop stops once the two
    reported pairs have."""
    sy, x, w_ref = cross_state
    rep = smallest_eigs(sy, x, k=2)
    assert 0 < rep.iterations <= 40
    assert np.abs(rep.eigenvalues - w_ref[:2]).max() <= 1e-8 * rep.scale
    assert rep.residuals.max() <= 1e-6 * rep.scale


@pytest.mark.parametrize("k", [1, 2])
def test_random_start_finds_what_the_sine_modes_miss(cross_state, k):
    """The cross state's lowest eigenvectors lie in symmetry classes that
    L1's low modes do not reach: from the modes alone LOBPCG reports
    lambda1 = -0.053 (the true one is -0.163) and index 1 for k = 2."""
    sy, x, w_ref = cross_state
    rep = smallest_eigs(sy, x, k=k)
    assert np.abs(rep.eigenvalues - w_ref[:k]).max() <= 1e-8 * rep.scale
    assert rep.morse_index == k


class TestShiftedMetric:
    """LOBPCG's W solves with M - _THETA mu0 I, mu0 the metric's smallest eigenvalue."""

    @pytest.mark.parametrize("nx, ny", [(6, 6), (7, 5)], ids=["square", "oblong"])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)], ids=["one-constant", "l2-l3"])
    def test_shifted_metric_is_spd_with_floor_one_minus_theta_mu0(self, nx, ny, l23):
        d = Domain(nx=nx, ny=ny, lambda2=5.0, bulk=BULK, boundary="planar", l2=l23[0], l3=l23[1])
        pre = LdGSystem(d).preconditioner()
        eye = np.eye(d.n_dof)
        mu0 = np.linalg.eigvalsh(pre.apply(eye))[0]
        assert pre.lowest_eigenvalue == pytest.approx(mu0, rel=1e-12)
        shifted = np.linalg.inv(pre.solve(eye, -spectrum._THETA * pre.lowest_eigenvalue))
        floor = np.linalg.eigvalsh(0.5 * (shifted + shifted.T))[0]
        assert 0.0 < floor == pytest.approx((1.0 - spectrum._THETA) * mu0, rel=1e-10)

    def test_identity_metric_keeps_its_bits(self, monkeypatch):
        """The identity's shifted solve returns R itself, so a Euclidean solve is
        bit for bit the unshifted one."""
        n = 200
        apply_h = partial(DiagQuadratic(np.linspace(-1.0, 4.0, n)).hessian_vec, np.zeros(n))
        r = np.ones((n, 2))
        assert EUCLIDEAN.solve(r, -spectrum._THETA * EUCLIDEAN.lowest_eigenvalue) is r
        shifted = solve_smallest(apply_h, n, 4)
        monkeypatch.setattr(spectrum, "_THETA", 0.0)
        plain = solve_smallest(apply_h, n, 4)
        assert shifted.iterations == plain.iterations > 0
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(shifted, field), getattr(plain, field))

    @pytest.mark.parametrize("name", ["relax64", "landscape16", "string16"])
    def test_workload_certificates_match_unshifted_solves(self, name, benchmark_workloads, monkeypatch, tmp_path):
        """Every certificate of the benchmark's workloads agrees with a solve in
        the unshifted metric to 1e-10 scale, in fewer iterations over the run."""
        workloads = benchmark_workloads
        pairs = []

        def compared(system, x, k):
            rep = smallest_eigs(system, x, k)
            with monkeypatch.context() as unshifted:
                unshifted.setattr(spectrum, "_THETA", 0.0)
                pairs.append((rep, smallest_eigs(system, x, k)))
            return rep

        monkeypatch.setattr(hisd, "smallest_eigs", compared)
        ops = workloads.Ops(time.perf_counter)
        workload = workloads.WORKLOADS[name]
        workload.run(workload.setup(1, ops, lambda s: s), ops, lambda s: s, tmp_path)
        assert ops.attempted > 0 and ops.failures == []
        assert pairs
        for rep, plain in pairs:
            assert np.abs(rep.eigenvalues - plain.eigenvalues).max() <= 1e-10 * rep.scale
            assert rep.morse_index == plain.morse_index
        assert sum(rep.iterations for rep, _ in pairs) < sum(plain.iterations for _, plain in pairs)


@pytest.fixture(scope="module")
def benchmark_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``, registered
    while its dataclasses are built."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


class TestLdGSpectrum:
    def test_quadratic_only_matches_dense_oracle_8x8(self):
        """Exact Hessian is K + a lambda2 hx hy G; compare lobpcg to eigh."""
        d = Domain(nx=8, ny=8, lambda2=2.0, bulk=BulkParams(0.7, 0.0, 0.0), boundary="zero")
        sy = LdGSystem(d)
        h_exact = (
            elastic_matrix(d) + d.bulk.a * d.lambda2 * d.hx * d.hy * metric_matrix(d)
        ).toarray()
        w_ref = np.linalg.eigvalsh(h_exact)
        x = np.zeros(sy.n)
        rep = smallest_eigs(sy, x, k=6)
        assert rep.eigenvalues == pytest.approx(w_ref[:6], abs=1e-8)
        assert rep.residuals.max() < 1e-6 * rep.scale
        assert np.abs(rep.eigenvectors.T @ rep.eigenvectors - np.eye(6)).max() < 1e-8

    def test_nonlinear_field_matches_dense_fd_oracle(self):
        d = Domain(nx=5, ny=5, lambda2=4.0, bulk=BULK)
        sy = LdGSystem(d)
        gen = make_rng(31, "test:spectrum")
        x = 0.3 * gen.normal(size=sy.n)
        delta = 1e-5
        eye = np.eye(sy.n)
        cols = [
            (sy.gradient(x + delta * eye[:, j]) - sy.gradient(x - delta * eye[:, j]))
            / (2 * delta)
            for j in range(sy.n)
        ]
        hd = 0.5 * (np.column_stack(cols) + np.column_stack(cols).T)
        w_ref = np.linalg.eigvalsh(hd)
        rep = smallest_eigs(sy, x, k=4)
        scale = max(1.0, np.abs(w_ref).max())
        assert np.abs(rep.eigenvalues - w_ref[:4]).max() < 1e-5 * scale

    def test_preconditioned_run_on_16x16(self):
        d = Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK)
        sy = LdGSystem(d)
        x = np.zeros(sy.n)
        rep = smallest_eigs(sy, x, k=3)
        assert rep.residuals.max() < 1e-6 * rep.scale
        rep2 = unpreconditioned(sy, x, k=3)
        assert rep.eigenvalues == pytest.approx(rep2.eigenvalues, abs=1e-6 * rep.scale)

    def test_iterations_count_what_lobpcg_ran(self):
        d = Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK)
        sy = LdGSystem(d)
        x = np.zeros(sy.n)
        rep = smallest_eigs(sy, x, k=3)
        plain = unpreconditioned(sy, x, k=3)
        assert 0 < rep.iterations < _MAXITER
        assert 0 < plain.iterations < _MAXITER
        # the factored elastic operator is what makes the solve cheap
        assert rep.iterations < plain.iterations

    def test_lobpcg_hands_hessian_products_blocks(self):
        shapes = []

        class Recording(LdGSystem):
            def hessian_vec(self, x, v, l=None):
                shapes.append(np.shape(v))
                return super().hessian_vec(x, v, l)

        sy = Recording(Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK))
        rep = smallest_eigs(sy, np.zeros(sy.n), k=3)
        assert rep.residuals.max() < 1e-6 * rep.scale
        # LOBPCG's iterations and the residual check act on blocks
        assert any(len(s) == 2 and s[1] > 1 for s in shapes)

    def test_one_bulk_hessian_assembly_per_certificate(self, monkeypatch):
        # every product of one eigensolve is taken at the same x
        d = Domain(nx=8, ny=8, lambda2=5.0, bulk=BULK, boundary="planar")
        x = 0.3 * make_rng(6, "test:spectrum:reuse").normal(size=d.n_dof)
        assemblies, products = [], []
        original = energy.bulk_hessian
        monkeypatch.setattr(energy, "bulk_hessian", lambda *a: assemblies.append(1) or original(*a))

        class Counting(LdGSystem):
            def hessian_vec(self, x, v, l=None):
                products.append(1)
                return super().hessian_vec(x, v, l)

        rep = smallest_eigs(Counting(d), x, k=2)
        assert rep.iterations > 0
        assert len(products) > 10
        assert len(assemblies) == 1

    def test_preconditioner_is_one_cached_spd_object(self):
        d = Domain(nx=6, ny=6, lambda2=5.0, bulk=BULK)
        sy = LdGSystem(d)
        pre = sy.preconditioner()
        assert sy.preconditioner() is pre
        gen = make_rng(4, "test:spectrum:precond")
        v = gen.normal(size=(sy.n, 2))
        assert np.allclose(pre.solve(pre.apply(v)), v, rtol=0, atol=1e-10)
        m = pre.apply(np.eye(sy.n))
        assert np.allclose(m, m.T) and np.linalg.eigvalsh(m).min() > 0.0


class TestLobpcgLoop:
    """``spectrum.lobpcg`` against scipy's LOBPCG and dense spectra."""

    def test_ldg_spectrum_matches_scipy_8x8(self, monkeypatch):
        d = Domain(nx=8, ny=8, lambda2=5.0, bulk=BULK, boundary="planar")
        sy = LdGSystem(d)
        x = 0.3 * make_rng(8, "test:spectrum:scipy").normal(size=sy.n)
        ours = smallest_eigs(sy, x, k=4)
        monkeypatch.setattr(spectrum, "lobpcg", scipy_lobpcg)
        ref = smallest_eigs(sy, x, k=4)
        gap = np.abs(ours.eigenvalues - ref.eigenvalues).max()
        assert gap <= 1e-12 * np.abs(ref.eigenvalues).max()
        assert ours.morse_index == ref.morse_index

    def test_multiplicity_above_the_block_width(self, monkeypatch):
        """Eigenvalue 1 ten times over, seven columns: a start block with a zero
        column is orthonormalized by QR, and the loop still finds the pairs."""
        failed = []
        inverse_factor = spectrum.inverse_factor

        def spied(*args):
            try:
                return inverse_factor(*args)
            except np.linalg.LinAlgError:
                failed.append(sys._getframe(1).f_code.co_name)
                raise

        monkeypatch.setattr(spectrum, "inverse_factor", spied)
        diag = np.repeat(np.arange(1.0, 31.0), 10)
        n, k = diag.size, 5
        x0 = make_rng(2, "test:spectrum:multiple").normal(size=(n, k + _GUARD))
        x0[:, -1] = 0.0
        tol = 1e-8 * diag.max()
        apply_h = partial(DiagQuadratic(diag).hessian_vec, np.zeros(n))
        w, v, iterations = spectrum.lobpcg(apply_h, x0, k=k, tol=tol)
        assert failed[0] == "_orthonormalize"
        assert 0 < iterations < _MAXITER
        assert w[:k] == pytest.approx(np.ones(k), abs=1e-12)
        assert np.abs(v.T @ v - np.eye(k + _GUARD)).max() < 1e-12
        assert np.linalg.norm(diag[:, None] * v[:, :k] - v[:, :k] * w[:k], axis=0).max() <= 2 * tol

    @pytest.mark.parametrize("where", ["cholesky", "pencil"])
    def test_dropped_directions_still_converge(self, where, monkeypatch):
        """With P dropped at every iteration (its Cholesky factor or the
        generalized eigensolve of [X; W; P] failing), the loop runs on [X; W]."""
        diag = np.arange(1.0, 301.0)
        apply_h = partial(DiagQuadratic(diag).hessian_vec, np.zeros(diag.size))
        x0 = np.linalg.qr(make_rng(3, "test:spectrum:drop").normal(size=(diag.size, 4)))[0]
        tol = 1e-8 * diag.max()
        _, _, plain = spectrum.lobpcg(apply_h, x0, k=2, tol=tol)
        dropped = []
        if where == "cholesky":
            inverse_factor = spectrum.inverse_factor

            def failing(*args):
                # lobpcg factors P itself; X and W go through _orthonormalize
                if sys._getframe(1).f_code.co_name == "lobpcg":
                    dropped.append(1)
                    raise np.linalg.LinAlgError("P not positive definite")
                return inverse_factor(*args)

            monkeypatch.setattr(spectrum, "inverse_factor", failing)
        else:
            eigh = scipy.linalg.eigh

            def failing(a, b, **kwargs):
                # the first solve of each iteration fails, the retry without P runs
                dropped.append(len(dropped) % 2 == 0)
                if dropped[-1]:
                    raise np.linalg.LinAlgError("pencil not positive definite")
                return eigh(a, b, **kwargs)

            monkeypatch.setattr(scipy.linalg, "eigh", failing)
        w, v, iterations = spectrum.lobpcg(apply_h, x0, k=2, tol=tol)
        assert sum(dropped) >= iterations - 1 > 0
        assert plain < iterations < _MAXITER
        assert w[:2] == pytest.approx([1.0, 2.0], abs=1e-10)
        assert np.linalg.norm(diag[:, None] * v[:, :2] - v[:, :2] * w[:2], axis=0).max() <= 2 * tol

    def test_converged_columns_leave_the_active_set(self):
        """Columns that converge early get no W or P: M^-1 sees only the
        residuals above tol, fewer than k + 2 of them once some column has
        converged, and the pairs still match a dense solve."""
        diag = np.arange(1.0, 301.0)
        n, k, tol = diag.size, 2, 1e-10
        apply_h = partial(DiagQuadratic(diag).hessian_vec, np.zeros(n))
        widths = []

        def solve(r, shift=0.0):
            assert np.linalg.norm(r, axis=0).min() > tol
            widths.append(r.shape[1])
            return r / (diag + 1.0 + shift)[:, None]

        x0 = np.linalg.qr(make_rng(5, "test:spectrum:shrink").normal(size=(n, k + _GUARD)))[0]
        precond = SimpleNamespace(solve=solve, lowest_eigenvalue=2.0)
        w, v, iterations = spectrum.lobpcg(apply_h, x0, k=k, tol=tol, precond=precond)
        assert len(widths) == iterations and widths[0] == k + _GUARD
        assert min(widths) < k + _GUARD
        ref_w, ref_v = np.linalg.eigh(np.diag(diag))
        assert np.abs(w[:k] - ref_w[:k]).max() <= 1e-10
        assert np.abs(np.abs(np.einsum("ij,ij->j", v[:, :k], ref_v[:, :k])) - 1.0).max() <= 1e-10

    def test_a_metric_is_an_object_without_a_call(self):
        """``solve_smallest`` and ``lobpcg`` take a metric as the object every
        solver takes: ``solve`` (M^-1, on blocks), ``apply`` and
        ``add_lowest_modes``; nothing calls it."""
        n, k = 300, 3
        diag = np.linspace(-1.0, 4.0, n)
        apply_h = partial(DiagQuadratic(diag).hessian_vec, np.zeros(n))
        metric = DiagonalMetric(np.linspace(1.0, 2.0, n))
        assert not callable(metric)
        rep = solve_smallest(apply_h, n, k, precond=metric)
        assert metric.starts == [(n, k + _GUARD)]
        assert 0 < len(metric.solves) == rep.iterations
        assert all(len(shape) == 2 for shape in metric.solves)
        assert rep.eigenvalues == pytest.approx(diag[:k], abs=1e-7)
        metric.solves.clear()
        x0 = make_rng(7, "test:spectrum:metric").normal(size=(n, k + _GUARD))
        tol = 1e-8 * np.abs(diag).max()
        w, _, iterations = spectrum.lobpcg(apply_h, x0, k=k, tol=tol, precond=metric)
        assert 0 < len(metric.solves) == iterations
        assert w[:k] == pytest.approx(diag[:k], abs=1e-7)

    def test_peak_memory_at_most_scipys_32x32(self, monkeypatch):
        d = Domain(nx=32, ny=32, lambda2=5.0, bulk=BULK, boundary="planar")
        sy = LdGSystem(d)
        x = 0.1 * make_rng(1, "test:spectrum:memory").normal(size=sy.n)
        smallest_eigs(sy, x, k=2)  # the preconditioner and the bulk Hessian map

        def peak():
            tracemalloc.start()
            try:
                smallest_eigs(sy, x, k=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # tracemalloc does not see the loop's workspace, an anonymous mapping of
        # eight (k + 2, n) blocks: S = [X; W; P], H S, P and H P
        ours = peak() + 8 * (2 + _GUARD) * sy.n * 8
        monkeypatch.setattr(spectrum, "lobpcg", scipy_lobpcg)
        assert ours <= peak()
