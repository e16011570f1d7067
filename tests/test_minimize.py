"""Descent contracts: monotone energies, idempotence, the steepest-descent fallback."""

import importlib
from functools import partial

import numpy as np
import pytest

from nematicq.energy import LdGSystem
from nematicq.errors import NotStationary, ShapeMismatch
from nematicq.field import Domain, QField, seed_field, symmetrize
from nematicq.hisd import classify_stationary
from nematicq.minimize import MinimizeOptions, MinimizeResult, lbfgs_direction, minimize
from nematicq.qtensor import BulkParams
from nematicq.systems import EUCLIDEAN, System, make_rng, preconditioner_of
from nematicq.toys import DiagQuadratic, Quartic2D

BULK = BulkParams(-1.0 / 3.0, 1.0, 1.0)
# the package re-exports the function ``minimize`` under the module's name
minimize_mod = importlib.import_module("nematicq.minimize")


def test_quadratic_converges_to_zero_field():
    d = Domain(nx=6, ny=6, lambda2=2.0, bulk=BulkParams(0.5, 0.0, 0.0), boundary="zero")
    sy = LdGSystem(d)
    gen = make_rng(41, "test:minimize")
    res = minimize(sy, gen.normal(size=sy.n))
    assert res.converged
    assert res.grad_inf < 1e-8
    assert np.abs(res.x).max() < 1e-8


def test_minimize_is_idempotent_at_solution():
    sy = Quartic2D()
    res = minimize(sy, np.array([0.7, 1.4]), MinimizeOptions(tol_grad=1e-12))
    assert res.converged
    res2 = minimize(sy, res.x, MinimizeOptions(tol_grad=1e-12))
    assert res2.iterations == 0
    assert np.array_equal(res2.x, res.x)


def test_energies_non_increasing():
    d = Domain(nx=8, ny=8, lambda2=5.0, bulk=BULK)
    sy = LdGSystem(d)
    res = minimize(sy, seed_field(d, "random(0.4)", seed=2).flat)
    assert res.converged
    diffs = np.diff(res.energies)
    assert np.all(diffs <= 1e-12 * (1.0 + np.abs(res.energies[:-1])))


def test_adversarial_history_falls_back_to_steepest_descent():
    gen = make_rng(42, "test:minimize")
    g = gen.normal(size=10)
    # without pairs the two-loop direction is steepest descent
    assert np.array_equal(lbfgs_direction(g, [], 1.0), -g)
    # end-to-end: minimize never increases energy even from such states
    sy = DiagQuadratic(np.linspace(1.0, 4.0, 10))
    res = minimize(sy, g)
    assert res.converged and np.all(np.diff(res.energies) <= 0)


class DiagMetric:
    """The diagonal SPD metric M = diag(m): ``solve`` divides by m, ``apply`` multiplies."""

    def __init__(self, m):
        self.m = np.asarray(m, dtype=float)
        self.lowest_eigenvalue = float(self.m.min())

    def solve(self, r, shift=0.0):
        return (r.T / (self.m + shift)).T

    def apply(self, v):
        return (v.T * self.m).T


class _MeteredQuadratic(DiagQuadratic):
    """A diagonal quadratic in the metric M = diag(m) that records every point it evaluates."""

    def __init__(self, diag, m):
        super().__init__(diag)
        self.metric = DiagMetric(m)
        self.points = []

    def preconditioner(self):
        return self.metric

    def energy_gradient(self, x):
        self.points.append(x.copy())
        return super().energy_gradient(x)


def test_uphill_two_loop_direction_falls_back_to_steepest_descent(monkeypatch):
    # the one fallback, seen through minimize: the second iteration's two-loop
    # direction is flipped uphill; it must get no line search, the history must
    # be cleared, and -M^-1 g must be taken
    m = np.array([4.0, 2.0, 1.0, 3.0])
    sy = _MeteredQuadratic([1.0, 2.0, 3.0, 4.0], m)
    calls = []  # (curvature pairs, gamma, points evaluated so far, g, direction) per call

    def flipped_once(g, pairs, gamma, precond):
        d = lbfgs_direction(g, pairs, gamma, precond)
        if len(calls) == 1:
            d = -d
        calls.append((len(pairs), gamma, len(sy.points), g, d))
        return d

    monkeypatch.setattr(minimize_mod, "lbfgs_direction", flipped_once)
    res = minimize(sy, np.array([1.0, -1.0, 0.5, 2.0]))
    assert res.converged
    (_, _, _, _, _), (pairs, _, seen, g, d), (pairs_sd, gamma_sd, seen_sd, g_sd, d_sd) = calls[:3]
    assert pairs == 1 and float(g @ d) > 0
    # no point was evaluated along the uphill direction
    assert seen_sd == seen and g_sd is g
    # the history is cleared and the step is -M^-1 g, searched from its full length
    assert pairs_sd == 0 and gamma_sd == 1.0
    assert np.array_equal(d_sd, -g / m)
    assert np.array_equal(sy.points[seen], sy.points[seen - 1] + d_sd)
    # the next iteration's history holds only the fallback's own pair
    assert calls[3][0] == 1


def test_max_iters_tags_nonconverged():
    d = Domain(nx=8, ny=8, lambda2=5.0, bulk=BULK)
    sy = LdGSystem(d)
    res = minimize(sy, seed_field(d, "random(0.4)", seed=3).flat, MinimizeOptions(max_iters=3))
    assert isinstance(res, MinimizeResult)
    assert not res.converged
    assert res.iterations == 3
    assert np.isfinite(res.energy)


def test_quartic_minima_reached():
    sy = Quartic2D()
    res = minimize(sy, np.array([0.3, -0.2]), MinimizeOptions(tol_grad=1e-10))
    assert res.converged
    closest = min(sy.MINIMA, key=lambda m: np.linalg.norm(res.x - m))
    assert np.linalg.norm(res.x - closest) < 1e-6
    assert res.energy == pytest.approx(0.0, abs=1e-12)


def stall_case():
    """A 5 x 5 field whose Armijo test is decided by rounding below |g| ~ 1e-8."""
    d = Domain(nx=5, ny=5, lambda2=5.0, bulk=BulkParams(-1.0, 1.0, 1.0))
    return LdGSystem(d), seed_field(d, "random(0.4)", seed=11).flat


def test_gradient_decides_within_the_rounding_band_of_the_energy():
    # Armijo alone traded rounding noise here for 2000 iterations and
    # stopped short above |g| = 1e-9; judged by the gradient it converges
    sy, x0 = stall_case()
    res = minimize(sy, x0, MinimizeOptions(tol_grad=1e-10))
    assert res.converged and res.grad_inf < 1e-10
    assert res.iterations <= 50
    diffs = np.diff(res.energies)
    assert np.all(diffs <= 16 * np.spacing(np.abs(res.energies[:-1])))


def test_unreachable_tolerance_stops_at_the_rounding_floor():
    sy, x0 = stall_case()
    res = minimize(sy, x0, MinimizeOptions(tol_grad=1e-30))
    assert not res.converged
    assert res.iterations <= 200
    assert res.grad_inf < 1e-10


class _PairOnly(System):
    """Another system evaluated through ``energy_gradient`` alone."""

    def __init__(self, inner: System):
        self.inner, self.n = inner, inner.n

    def energy(self, x):
        raise AssertionError("energy called on its own")

    gradient = energy

    def energy_gradient(self, x):
        return self.inner.energy_gradient(x)

    def preconditioner(self):
        return preconditioner_of(self.inner)


@pytest.mark.parametrize("project", [False, True])
def test_each_trial_is_one_energy_gradient(project):
    # the rounding-band case, which judges trials by their gradient, and the
    # projected points of a symmetry average
    sy, x0 = stall_case()
    if project:
        d = sy.domain
        x0 = seed_field(d, "random(0.2)", seed=3).flat
        opts = MinimizeOptions(tol_grad=1e-10, project=lambda x: symmetrize(QField.from_flat(d, x)).flat)
    else:
        opts = MinimizeOptions(tol_grad=1e-10)
    res = minimize(_PairOnly(sy), x0, opts)
    ref = minimize(sy, x0, opts)
    assert res.converged and res.n_grad == res.n_energy == ref.n_energy
    assert np.array_equal(res.x, ref.x) and res.energies == ref.energies


def test_wrong_sized_start_raises_shape_mismatch():
    sy = LdGSystem(Domain(nx=8, ny=8, lambda2=5.0, bulk=BULK))
    with pytest.raises(ShapeMismatch, match=r"\(7,\)"):
        minimize(sy, np.zeros(7))


class _Plain(System):
    """The energy of another system without its preconditioner."""

    def __init__(self, inner: System):
        self.inner, self.n = inner, inner.n

    def energy(self, x):
        return self.inner.energy(x)

    def gradient(self, x):
        return self.inner.gradient(x)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_preconditioned_iterations_do_not_grow_with_the_grid(n):
    # planar cross state at lambda^2 = 5; unpreconditioned L-BFGS takes
    # 73 / 162 / 314 iterations from the isotropic start at 16^2 / 32^2 / 64^2
    d = Domain(nx=n, ny=n, lambda2=5.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
    sy = LdGSystem(d)
    x0 = seed_field(d, "isotropic").flat
    opts = MinimizeOptions(tol_grad=1e-8, max_iters=5000)
    res = minimize(sy, x0, opts)
    plain = minimize(_Plain(sy), x0, opts)
    assert res.converged and plain.converged
    assert res.iterations <= 20 < plain.iterations
    assert res.energy == pytest.approx(plain.energy, abs=1e-9)


class TestCertify:
    def test_minimizer_certified_stable(self):
        d = Domain(nx=6, ny=6, lambda2=5.0, bulk=BULK)
        sy = LdGSystem(d)
        res = minimize(sy, seed_field(d, "isotropic").flat)
        assert res.converged
        index, spectrum, rep = classify_stationary(sy, res.x)
        assert index == 0
        assert spectrum[0] > -rep.tol_eig

    def test_not_stationary_raises(self):
        d = Domain(nx=6, ny=6, lambda2=5.0, bulk=BULK)
        sy = LdGSystem(d)
        x = seed_field(d, "random(0.5)", seed=4).flat
        with pytest.raises(NotStationary):
            classify_stationary(sy, x)


class _Counted(System):
    """A 1-D or 2-D test energy whose ``energy_gradient`` records each point."""

    def __init__(self):
        self.points = []

    def energy_gradient(self, x):
        self.points.append(np.array(x))
        return super().energy_gradient(x)

    def hessian_vec(self, x, v, l=None):
        return (self.curvature(x) * np.asarray(v).T).T


class _TooFlat(_Counted):
    """E = x^2 / 2 with a Hessian action 1e160 times too small."""

    n = 1

    def energy(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        return np.array(x, dtype=float)

    def curvature(self, x):
        return np.array([1e-160])


class _Shoulder(_Counted):
    """E = x^2 / 2 + sqrt(1 + y^2): Newton overshoots in y to a smaller |g|inf at a higher E."""

    n = 2

    def energy(self, x):
        return 0.5 * x[0] ** 2 + np.sqrt(1.0 + x[1] ** 2)

    def gradient(self, x):
        return np.array([x[0], x[1] / np.sqrt(1.0 + x[1] ** 2)])

    def curvature(self, x):
        return np.array([1.0, (1.0 + x[1] ** 2) ** -1.5])


class _QuarticWell(_Counted):
    """E = x^4: each Newton step multiplies x by 2/3 and |g| by (2/3)^3."""

    n = 1

    def energy(self, x):
        return float(x[0] ** 4)

    def gradient(self, x):
        return 4.0 * x**3

    def curvature(self, x):
        return 12.0 * x**2


def test_descent_step_in_the_identity_metric():
    # the identity's solve returns its argument, the residual CG updates in
    # place; two CG steps still solve a 2-D diagonal system
    sy = _Shoulder()
    x = np.array([1.0, 1.5])
    d = minimize_mod._descent_step(partial(sy.hessian_vec, x), sy.gradient(x), EUCLIDEAN)
    assert d is not None and np.abs(d + sy.gradient(x) / sy.curvature(x)).max() < 1e-14


class TestNewtonEndgameGuards:
    """``_polish`` at k = 0 gives up, and returns None, on each failed guard."""

    @staticmethod
    def polish(sy, x, tol_grad=1e-8):
        x = np.array(x, dtype=float)
        e, g = sy.energy_gradient(x)
        sy.points.clear()
        return minimize_mod._polish(sy, x, e, g, np.zeros((x.size, 0)), tol_grad)

    def test_a_non_finite_iterate(self, monkeypatch):
        steps = []
        descent_step = minimize_mod._descent_step
        monkeypatch.setattr(minimize_mod, "_descent_step", lambda *a: steps.append(descent_step(*a)) or steps[-1])
        sy = _TooFlat()
        with np.errstate(over="ignore"):  # the step overflows
            assert self.polish(sy, [1e150]) is None
        # CG solved for the step, which overflows; the iterate is never evaluated
        assert len(steps) == 1 and np.isneginf(steps[0]).all()
        assert sy.points == []

    def test_an_energy_rise(self):
        sy = _Shoulder()
        x = np.array([1.0, 1.5])
        assert self.polish(sy, x) is None
        # one step was evaluated, to (0, -3.375): |g|inf fell from 1 to 0.96
        # and the energy rose by 1.2
        (x1,) = sy.points
        assert np.abs(sy.gradient(x1)).max() < np.abs(sy.gradient(x)).max()
        assert sy.energy(x1) > sy.energy(x) + 1.0

    def test_ten_steps_short_of_the_tolerance(self):
        sy = _QuarticWell()
        assert self.polish(sy, [1.0]) is None
        assert len(sy.points) == minimize_mod._NEWTON_STEPS == 10
        assert np.abs(sy.points[-1][0] - (2.0 / 3.0) ** 10) < 1e-12
        # the same steps reach a tolerance just above their last |g|
        last = 4.0 * (2.0 / 3.0) ** 30
        path = self.polish(sy, [1.0], tol_grad=1.01 * last)
        assert len(path) == 10 and path[-1][2] < 1.01 * last
