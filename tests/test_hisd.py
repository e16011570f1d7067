"""Saddle dynamics, verified records, and landscape assembly on known
stationary sets."""

import importlib
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from nematicq.energy import LdGSystem
from nematicq.errors import (
    DegenerateStationary,
    NoConvergence,
    ShapeMismatch,
    SolveError,
    ValidationError,
    WrongIndex,
)
from nematicq.field import Domain, QField, seed_field, symmetrize
from nematicq.hisd import (
    LandscapeOptions,
    SaddleOptions,
    SaddleSearchState,
    _m_orthonormalize,
    _records_match,
    branch_search,
    build_landscape,
    classify_stationary,
    find_saddle,
    hisd_step,
    make_record,
)
from nematicq.minimize import MinimizeOptions, _polish, minimize
from nematicq.qtensor import BulkParams
from nematicq.systems import EUCLIDEAN, System, make_rng
from nematicq.toys import DiagQuadratic, DoubleWell2D, Quartic2D
from oracles import gram_schmidt

hisd = importlib.import_module("nematicq.hisd")

BULK = BulkParams(-1.0, 1.0, 1.0)


def quartic_record(point, k_hint=0):
    return make_record(Quartic2D(), np.array(point, dtype=float), k_hint=k_hint)


def count_calls(monkeypatch, module, name):
    """Rebind module.name to a wrapper; the returned list collects the
    positional arguments of every call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class WeightedQuartic(System):
    """E(x) = sum_i c_i (x_i^2 - 1)^2 with c = 1..5: stationary points
    have coordinates in {0, +-1}, and the index counts the zeros."""

    c = np.arange(1.0, 6.0)
    n = 5

    def energy(self, x):
        return float(self.c @ (x * x - 1.0) ** 2)

    def gradient(self, x):
        return 4.0 * self.c * x * (x * x - 1.0)


class DiagMetric:
    """The diagonal SPD metric M = diag(m): ``solve`` divides by m, ``apply`` multiplies."""

    def __init__(self, m):
        self.m = np.asarray(m, dtype=float)
        self.lowest_eigenvalue = float(self.m.min())

    def solve(self, r, shift=0.0):
        return (r.T / (self.m + shift)).T

    def apply(self, v):
        return (v.T * self.m).T


class MetricQuadratic(DiagQuadratic):
    """DiagQuadratic that brings the diagonal SPD preconditioner M = diag(m)."""

    def __init__(self, diag, m):
        super().__init__(diag)
        self.m = np.asarray(m, dtype=float)
        self._pre = DiagMetric(self.m)

    def preconditioner(self):
        return self._pre


class TestStep:
    def test_k0_matches_plain_gradient_descent(self):
        sy = DoubleWell2D()
        beta = 0.05
        state = SaddleSearchState(np.array([0.3, 0.7]), np.zeros((2, 0)))
        manual = np.array([0.3, 0.7])
        for _ in range(50):
            state = hisd_step(sy, state, beta)
            manual = manual - beta * sy.gradient(manual)
            assert np.array_equal(state.x, manual)

    def test_fixed_point_at_exact_saddle(self):
        sy = Quartic2D()
        state = SaddleSearchState(np.array([0.0, 1.0]), np.eye(2)[:, :1])
        out = hisd_step(sy, state, 0.1)
        assert np.array_equal(out.x, state.x)
        assert np.allclose(out.v, state.v, atol=1e-12)

    def test_step_size_validation(self):
        sy = Quartic2D()
        state = SaddleSearchState(np.zeros(2), np.zeros((2, 0)))
        with pytest.raises(ValidationError):
            hisd_step(sy, state, 0.0)
        with pytest.raises(ValidationError):
            hisd_step(sy, state, -1.0)

    @pytest.mark.parametrize("v", [np.ones(2), np.ones((3, 1)), np.ones((2, 1, 1))])
    def test_directions_must_be_an_n_by_k_block(self, v):
        # the index of a state is the width of v, so v has to have one
        with pytest.raises(ShapeMismatch):
            SaddleSearchState(np.zeros(2), v)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_nonfinite_step_size_is_rejected(self, dt):
        state = SaddleSearchState(np.array([0.3, 0.7]), np.eye(2)[:, :1])
        with pytest.raises(ValidationError):
            hisd_step(DoubleWell2D(), state, dt)

    def test_directions_stay_orthonormal(self):
        gen = make_rng(7, "test:hisd:orth")
        d = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        sy = DiagQuadratic(d)
        v = _m_orthonormalize(gen.normal(size=(5, 2)), EUCLIDEAN)
        state = SaddleSearchState(gen.normal(size=5), v)
        for _ in range(100):
            state = hisd_step(sy, state, 0.05)
            gram = state.v.T @ state.v
            assert np.abs(gram - np.eye(2)).max() < 1e-10
        # with a preconditioner the directions are orthonormal in <a, b>_M
        m = 0.5 + gen.random(5) * 4.0
        msy = MetricQuadratic(d, m)
        pre = msy.preconditioner()
        state = SaddleSearchState(gen.normal(size=5), _m_orthonormalize(gen.normal(size=(5, 2)), pre))
        for _ in range(100):
            state = hisd_step(msy, state, 0.05)
            gram = state.v.T @ (m[:, None] * state.v)
            assert np.abs(gram - np.eye(2)).max() < 1e-10

    def test_metric_step_matches_dense_formula(self):
        gen = make_rng(5, "test:hisd:metric")
        d = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        m = 0.5 + gen.random(5) * 4.0
        sy = MetricQuadratic(d, m)
        v = _m_orthonormalize(gen.normal(size=(5, 2)), sy.preconditioner())
        x = gen.normal(size=5)
        out = hisd_step(sy, SaddleSearchState(x, v), 0.1)
        # x <- x - dt (M^-1 g - 2 V V^T g), with g = H x and H = diag(d)
        g = d * x
        assert np.allclose(out.x, x - 0.1 * (g / m - 2.0 * v @ (v.T @ g)), rtol=0, atol=1e-12)
        # v_i relaxes along M^-1 H v_i against the shielded coefficients V^T H V
        hv = d[:, None] * v
        coef = v.T @ hv
        raw = v - 0.1 * (hv / m[:, None] - v @ (np.array([[1.0, 2.0], [0.0, 1.0]]) * coef))
        q0 = raw[:, 0] / np.sqrt(raw[:, 0] @ (m * raw[:, 0]))
        q1 = raw[:, 1] - (q0 @ (m * raw[:, 1])) * q0
        q1 /= np.sqrt(q1 @ (m * q1))
        assert np.allclose(out.v, np.column_stack([q0, q1]), rtol=0, atol=1e-12)

    def test_euclidean_metric_is_bitwise_the_plain_step(self):
        # toys have no preconditioner: M = I must reproduce the plain
        # reflected step exactly
        gen = make_rng(9, "test:hisd:euclid")
        sy = DiagQuadratic(np.array([-3.0, -1.0, 0.5, 2.0, 4.0]))
        v = _m_orthonormalize(gen.normal(size=(5, 2)), EUCLIDEAN)
        x = gen.normal(size=5)
        out = hisd_step(sy, SaddleSearchState(x, v), 0.1)
        g = sy.gradient(x)
        assert np.array_equal(out.x, x - 0.1 * (g - 2.0 * v @ (v.T @ g)))

    def test_k2_step_takes_one_hessian_product(self):
        calls = []

        class Counting(DiagQuadratic):
            def hessian_vec(self, x, v, l=None):
                calls.append(np.shape(v))
                return super().hessian_vec(x, v, l)

        gen = make_rng(11, "test:hisd:block")
        sy = Counting(np.array([-3.0, -1.0, 0.5, 2.0, 4.0]))
        state = SaddleSearchState(gen.normal(size=5), _m_orthonormalize(gen.normal(size=(5, 2)), EUCLIDEAN))
        hisd_step(sy, state, 0.1)
        assert calls == [(5, 2)]

    def test_orthonormalization_applies_the_metric_once(self):
        d = Domain(nx=6, ny=6, lambda2=5.0, bulk=BULK, l2=0.6, l3=0.4)
        pre = LdGSystem(d).preconditioner()
        applied = []

        class Counting:
            solve = pre.solve

            def apply(self, v):
                applied.append(np.shape(v))
                return pre.apply(v)

        v = _m_orthonormalize(make_rng(12, "test:hisd:gsm").normal(size=(d.n_dof, 4)), Counting())
        assert applied == [v.shape]
        assert np.abs(v.T @ pre.apply(v) - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("metric", ["l1", "euclidean"])
    def test_dependent_directions_raise(self, metric):
        """A column with nothing left once the earlier ones are projected out:
        two columns of ones, a zero column, a repeat and a combination.  In
        floating point their Gram matrices are singular only to rounding."""
        d = Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK)
        pre = LdGSystem(d).preconditioner() if metric == "l1" else EUCLIDEAN
        a = make_rng(13, "test:hisd:dependent").normal(size=(d.n_dof, 3))
        blocks = (np.ones((d.n_dof, 2)), np.column_stack([a, 0.0 * a[:, 0]]), a[:, [0, 1, 0]],
                  np.column_stack([a, a @ [1.0, 2.0, 3.0]]))
        for v in blocks:
            with pytest.raises(NoConvergence):
                _m_orthonormalize(v, pre)

    @pytest.mark.parametrize("metric", ["l1", "euclidean"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_orthonormalization_matches_gram_schmidt(self, k, metric):
        """One Cholesky factor in the metric, M applied once, gives classical
        Gram-Schmidt's columns: M-orthonormal, in order (nested spans) and
        oriented alike."""
        d = Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK)
        pre = LdGSystem(d).preconditioner() if metric == "l1" else EUCLIDEAN
        a = make_rng(k, "test:hisd:gs").normal(size=(d.n_dof, k))
        applied = []
        q = _m_orthonormalize(a, SimpleNamespace(apply=lambda v: applied.append(v.shape) or pre.apply(v)))
        assert applied == [a.shape]
        assert np.abs(q - gram_schmidt(a, pre)).max() < 1e-12
        assert np.abs(q.T @ pre.apply(q) - np.eye(k)).max() < 1e-12
        # <q_j, a_i>_M vanishes for i < j and is positive for i = j: the first
        # j + 1 columns of q span those of a
        c = q.T @ pre.apply(a)
        assert np.abs(np.tril(c, -1)).max(initial=0.0) < 1e-12 * np.abs(c).max()
        assert np.all(np.diag(c) > 0.0)


class TestFindSaddle:
    def test_index1_transition_state(self):
        rec = find_saddle(Quartic2D(), 1, np.array([0.2, 0.8]))
        assert np.abs(rec.field - [0.0, 1.0]).max() < 1e-6
        assert abs(rec.energy - 1.0) < 1e-8
        assert rec.morse_index == 1
        assert rec.lambda_spectrum[0] < 0 < rec.lambda_spectrum[1]
        assert rec.grad_inf < 1e-8

    @pytest.mark.parametrize(
        "start, steps",
        [((0.0, 0.05), (27, 2)), ((0.3, 0.2), (51, 2)), ((0.1, 0.9), (2, 3)), ((-0.4, 0.3), (8, 3))],
    )
    def test_index1_step_counts_are_pinned(self, start, steps):
        # the k > 0 dynamics keep the fixed step 1/|M^-1 H| and its re-cap
        rec = find_saddle(Quartic2D(), 1, np.array(start))
        assert rec.morse_index == 1 and (rec.iterations, rec.newton_steps) == steps

    @pytest.mark.parametrize(
        "system, start, budget",
        [
            # condition number 1000, identity metric: the fixed step 1/rho took
            # 4,708 steps and 1 Newton step, the capped BB step takes 1,694 in all
            (DiagQuadratic(np.logspace(0, 3, 8)), np.ones(8), 2000),
            # the curvature grows from 2.1 to 8 on the way to (1, -1): the fixed
            # step took 8 steps and 1 Newton step, the BB step takes 8 and 2, and
            # a step held at or above the start's 1/rho took 424
            (Quartic2D(), np.array([0.7, -0.4]), 12),
        ],
    )
    def test_index0_barzilai_borwein_steps_descend(self, monkeypatch, system, start, budget):
        starts = count_calls(monkeypatch, hisd, "hisd_step")
        rec = find_saddle(system, 0, start)
        assert rec.morse_index == 0 and rec.iterations + rec.newton_steps <= budget
        # every step starts from the last accepted point: no accepted step raised the energy
        energies = [system.energy(state.x) for _, state, _ in starts]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert len({dt for *_, dt in starts}) > 2  # the step did adapt

    def test_index2_top(self):
        rec = find_saddle(Quartic2D(), 2, np.array([0.3, -0.25]))
        assert np.abs(rec.field - [0.0, 0.0]).max() < 1e-6
        assert abs(rec.energy - 2.0) < 1e-8
        assert rec.morse_index == 2
        assert rec.lambda_spectrum.shape == (2,)
        assert np.all(rec.lambda_spectrum < 0)

    def test_wrong_index_carries_verified_record(self):
        # descent from (eps, 0) stays on the x-axis and lands on the
        # index-1 point (1, 0), not a minimum
        with pytest.raises(WrongIndex) as info:
            find_saddle(Quartic2D(), 0, np.array([1e-2, 0.0]))
        err = info.value
        assert err.wanted == 0 and err.found == 1
        assert err.record is not None
        assert err.record.morse_index == 1
        assert np.abs(err.record.field - [1.0, 0.0]).max() < 1e-6

    def test_record_is_fixed_point_of_search(self):
        rec = find_saddle(Quartic2D(), 1, np.array([0.2, 0.8]))
        again = find_saddle(Quartic2D(), 1, rec.field)
        assert np.array_equal(again.field, rec.field)
        assert again.energy == rec.energy

    def test_max_iters_raises_no_convergence(self):
        opts = SaddleOptions(max_iters=5)
        with pytest.raises(NoConvergence) as info:
            find_saddle(Quartic2D(), 1, np.array([0.4, 0.6]), opts=opts)
        assert info.value.iterations == 5

    def test_diverging_position_raises(self):
        # plain descent (k = 0) from near a saddle runs off along the
        # unstable axis; that is divergence, not a step-size problem
        with pytest.raises(NoConvergence, match="position diverged"):
            find_saddle(DiagQuadratic([-1.0, 1.0]), 0, np.array([0.1, 0.1]))

    def test_index_range_validation(self):
        with pytest.raises(ValidationError):
            find_saddle(Quartic2D(), -1, np.zeros(2))
        with pytest.raises(ValidationError):
            find_saddle(Quartic2D(), 3, np.zeros(2))

    def test_quadratic_origin_all_indices(self):
        sy = DiagQuadratic(np.array([-2.0, 1.0, 3.0, 5.0]))
        rec = find_saddle(sy, 1, np.full(4, 0.8))
        assert np.abs(rec.field).max() < 1e-7
        assert rec.morse_index == 1
        assert np.allclose(rec.lambda_spectrum, [-2.0, 1.0, 3.0], atol=1e-6)

    def test_refresh_and_precond_reach_same_point(self):
        d = np.array([-2.0, 1.0, 3.0, 5.0])
        sy = DiagQuadratic(d)
        x0 = np.full(4, 0.8)
        base = find_saddle(sy, 1, x0)
        # M = diag(|d|) makes every eigenvalue of M^-1 H equal to +-1
        msy = MetricQuadratic(d, np.abs(d))
        pre = find_saddle(msy, 1, x0)
        assert pre.morse_index == 1
        assert np.abs(pre.field - base.field).max() < 1e-7
        assert np.allclose(pre.lambda_spectrum, [-2.0, 1.0, 3.0], atol=1e-6)
        assert 0 < pre.iterations < base.iterations

    def test_iterations_recorded(self):
        rec = find_saddle(Quartic2D(), 1, np.array([0.2, 0.8]))
        assert rec.iterations > 0
        assert quartic_record((0.0, 1.0), k_hint=1).iterations == 0
        with pytest.raises(WrongIndex) as info:
            find_saddle(Quartic2D(), 0, np.array([1e-2, 0.0]))
        assert info.value.record.iterations > 0

    def test_gradient_measured_once_at_the_record(self):
        # the stopping test's |g| is the certificate's and the record's;
        # a plain make_record measures it once too
        class Counting(Quartic2D):
            def __init__(self):
                self.at = []

            def gradient(self, x):
                self.at.append(np.array(x, dtype=float))
                return super().gradient(x)

        sy = Counting()
        rec = find_saddle(sy, 1, np.array([0.2, 0.8]))
        assert sum(np.array_equal(x, rec.field) for x in sy.at) == 1
        assert rec.grad_inf == float(np.abs(Quartic2D().gradient(rec.field)).max())
        sy.at.clear()
        again = make_record(sy, rec.field, k_hint=1)
        assert sum(np.array_equal(x, rec.field) for x in sy.at) == 1
        assert again.grad_inf == rec.grad_inf and again.morse_index == rec.morse_index

    def test_spectrum_length_is_index_plus_two_capped(self):
        assert quartic_record((1.0, 1.0)).lambda_spectrum.shape == (2,)
        assert quartic_record((0.0, 1.0), k_hint=1).lambda_spectrum.shape == (2,)
        sy = DiagQuadratic(np.array([-2.0, -1.0, 1.0, 3.0, 5.0]))
        rec = find_saddle(sy, 2, np.full(5, 0.5))
        assert rec.lambda_spectrum.shape == (4,)
        assert np.allclose(rec.lambda_spectrum, [-2.0, -1.0, 1.0, 3.0], atol=1e-6)


class Sealed(Quartic2D):
    """Quartic2D that fails the test if it is evaluated once sealed."""

    sealed = False

    def energy(self, x):
        assert not self.sealed, "energy evaluated"
        return super().energy(x)

    def gradient(self, x):
        assert not self.sealed, "gradient evaluated"
        return super().gradient(x)


@pytest.mark.parametrize("tol_grad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "entry", ["find_saddle", "branch_search", "build_landscape", "minimize", "classify_stationary", "make_record"]
)
def test_unusable_tolerance_raises_before_any_step(entry, tol_grad):
    sy = Sealed()
    top = make_record(sy, np.zeros(2), k_hint=2)
    sy.sealed = True
    opts = SaddleOptions(tol_grad=tol_grad)
    with pytest.raises(ValidationError):
        if entry == "find_saddle":
            find_saddle(sy, 1, np.array([0.2, 0.8]), opts=opts)
        elif entry == "branch_search":
            branch_search(sy, top, 1, opts)
        elif entry == "build_landscape":
            build_landscape(sy, top, LandscapeOptions(search=opts))
        elif entry == "minimize":
            minimize(sy, np.array([0.2, 0.8]), MinimizeOptions(tol_grad=tol_grad))
        elif entry == "classify_stationary":
            classify_stationary(sy, np.zeros(2), tol_grad=tol_grad)
        else:
            make_record(sy, np.zeros(2), tol_grad=tol_grad)


@pytest.mark.parametrize("v0", [np.ones(3), np.ones((2, 2)), np.ones(0)])
def test_start_directions_of_the_wrong_size_raise_before_any_step(v0):
    sy = Sealed()
    sy.sealed = True
    with pytest.raises(ShapeMismatch):
        find_saddle(sy, 1, np.array([0.2, 0.8]), v0=v0)


class TestNewtonEndgame:
    def test_polish_back_toward_the_parent_is_rejected(self):
        # at (0, 0.05) Newton heads for the index-2 top (0, 0), against the
        # direction of an index-1 search along V = e_x, which moves up
        # toward (0, 1)
        sy = Quartic2D()
        x = np.array([0.0, 0.05])
        e, g = sy.energy_gradient(x)
        assert _polish(sy, x, e, g, np.eye(2)[:, :1], 1e-8) is None

    def test_search_from_near_the_top_lands_by_newton(self):
        rec = find_saddle(Quartic2D(), 1, np.array([0.0, 0.05]))
        assert rec.morse_index == 1
        assert np.abs(rec.field - [0.0, 1.0]).max() < 1e-8
        assert rec.newton_steps >= 1 and rec.iterations > 0

    def test_descent_polish_may_not_climb(self):
        # from (0.05, 0) Newton goes to the double well's saddle (0, 0):
        # a smaller gradient at a higher energy, which a descent rejects
        # and an index-1 search keeps
        sy = DoubleWell2D()
        x = np.array([0.05, 0.0])
        e, g = sy.energy_gradient(x)
        assert _polish(sy, x, e, g, np.zeros((2, 0)), 1e-8) is None
        # the index-1 search along V = e_x climbs toward (0, 0)
        path = _polish(sy, x, e, g, np.eye(2)[:, :1], 1e-8)
        x1, e1, g1 = path[-1]
        assert np.abs(x1).max() < 1e-8 and e1 > e and g1 < 1e-8 and 1 <= len(path) <= 10

    def test_record_on_the_spot_takes_no_newton_step(self):
        assert quartic_record((0.0, 1.0), k_hint=1).newton_steps == 0


class TestDirectionalSearches:
    def test_downward_from_top(self):
        top = quartic_record((0.0, 0.0), k_hint=2)
        errs = []
        level1 = branch_search(Quartic2D(), top, 1, errors_out=errs)
        assert len(level1) == 2 and not errs
        ys = sorted(rec.field[1] for rec in level1)
        assert np.abs(np.array(ys) - [-1.0, 1.0]).max() < 1e-6
        assert all(abs(rec.field[0]) < 1e-6 and rec.morse_index == 1 for rec in level1)

        kept = branch_search(Quartic2D(), top, 0, errors_out=errs)
        assert len(kept) == 2 and not errs
        xs = sorted(rec.field[0] for rec in kept)
        assert np.abs(np.array(xs) - [-1.0, 1.0]).max() < 1e-6
        # descent pinned to the x-axis lands on index-1 points, kept as such
        assert all(rec.morse_index == 1 for rec in kept)

    def test_downward_index_validation(self):
        top = quartic_record((0.0, 0.0), k_hint=2)
        with pytest.raises(ValidationError):
            branch_search(Quartic2D(), top, 2)

    def test_upward_from_minimum(self):
        child = quartic_record((1.0, 1.0))
        errs = []
        hits = branch_search(Quartic2D(), child, 1, errors_out=errs)
        # one branch ascends to an adjacent index-1 point; the other
        # diverges outward and is dropped
        assert len(hits) == 1 and len(errs) == 1
        assert isinstance(errs[0][1], NoConvergence)
        assert np.abs(np.sort(np.abs(hits[0].field)) - [0.0, 1.0]).max() < 1e-6
        assert hits[0].morse_index == 1
        assert abs(hits[0].energy - 1.0) < 1e-8

    def test_upward_from_index1_to_top(self):
        child = quartic_record((0.0, 1.0), k_hint=1)
        hits = branch_search(Quartic2D(), child, 2)
        assert len(hits) == 1
        assert np.abs(hits[0].field - [0.0, 0.0]).max() < 1e-6
        assert hits[0].morse_index == 2

    def test_upward_past_the_record_window_solves_afresh(self, monkeypatch):
        # a minimum's record holds 2 eigenvectors; index 3 needs a third
        sy = DiagQuadratic([1.0, 2.0, 3.0, 4.0, 5.0])
        minimum = make_record(sy, np.zeros(5))
        assert minimum.eigenvectors.shape == (5, 2)
        eigs = count_calls(monkeypatch, hisd, "smallest_eigs")
        errs = []
        hits = branch_search(sy, minimum, 3, errors_out=errs)
        assert [args[2] for args in eigs] == [3]
        # a convex quadratic has no index-3 point: both branches run off
        assert hits == [] and len(errs) == 2
        assert all(isinstance(err, NoConvergence) for _, err in errs)

        sy = WeightedQuartic()
        minimum = make_record(sy, np.ones(5))
        eigs.clear()
        hits = branch_search(sy, minimum, 3)
        assert eigs[0][2] == 3
        assert hits and len(eigs) == 1 + len(hits)  # the fallback, then one certificate each
        for rec in hits:
            index, spectrum, _ = classify_stationary(sy, rec.field)
            assert rec.morse_index == index == int(np.sum(np.abs(rec.field) < 1e-6))
            assert np.array_equal(rec.lambda_spectrum, spectrum)

    def test_upward_index_validation(self):
        child = quartic_record((1.0, 1.0))
        with pytest.raises(ValidationError):
            branch_search(Quartic2D(), child, 0)


class TestLandscape:
    def toy_graph(self, **kw):
        seed = quartic_record((0.0, 0.0), k_hint=2)
        return build_landscape(Quartic2D(), seed, LandscapeOptions(**kw))

    def test_toy_recovers_all_nine_points(self):
        graph = self.toy_graph()
        assert not graph.truncated
        assert graph.branches_run == graph.searches  # no symmetry group
        assert [rec.id for rec in graph.nodes] == list(range(9))
        by_index = graph.by_index()
        assert sorted(by_index) == [0, 1, 2]
        assert len(by_index[0]) == 4 and len(by_index[1]) == 4 and len(by_index[2]) == 1

        known = {
            0: Quartic2D.MINIMA,
            1: Quartic2D.SADDLES,
            2: [Quartic2D.TOP],
        }
        for index, points in known.items():
            found = sorted(tuple(np.round(r.field, 6)) for r in by_index[index])
            assert found == sorted(points)
        for rec in graph.nodes:
            assert abs(rec.energy - rec.morse_index) < 1e-8

    def test_toy_saddles_are_finished_by_newton(self):
        # every search that lands on an index-1 point from the top ends in the
        # Newton endgame, its first step following the dynamics at that point
        for max_index in (None, 2):
            graph = self.toy_graph(max_index=max_index)
            assert all(rec.newton_steps >= 1 for rec in graph.by_index()[1])

    def test_toy_edges_descend_one_level(self):
        graph = self.toy_graph()
        assert len(graph.edges) == 12
        for edge in graph.edges:
            assert edge.kind == "downward"
            pair = (graph.node(edge.source).morse_index, graph.node(edge.target).morse_index)
            assert pair in {(2, 1), (1, 0)}
        # the top reaches all four index-1 points; each of those reaches two minima
        top_targets = {e.target for e in graph.edges if e.source == 0}
        assert top_targets == {rec.id for rec in graph.by_index()[1]}
        for rec in graph.by_index()[1]:
            assert len([e for e in graph.edges if e.source == rec.id]) == 2

    def test_dedup_pairwise_audit(self):
        graph = self.toy_graph()
        for a in graph.nodes:
            for b in graph.nodes:
                same = _records_match(a, b)
                assert same == _records_match(b, a)
                assert same == (a.id == b.id)

    def test_each_spectrum_is_solved_once(self, monkeypatch):
        # searches start from the eigenvectors their node's record carries,
        # and a landing is matched before it is certified, so the only
        # eigensolves are the certificates of new nodes
        seed = quartic_record((0.0, 0.0), k_hint=2)
        for max_index in (None, 2):
            eigs = count_calls(monkeypatch, hisd, "smallest_eigs")
            records = count_calls(monkeypatch, hisd, "_record")
            landings = []
            search = hisd._search

            def recorded(system, k, *args, search=search):
                landing = search(system, k, *args)
                landings.append((k, landing))
                return landing

            monkeypatch.setattr(hisd, "_search", recorded)
            graph = build_landscape(Quartic2D(), seed, LandscapeOptions(max_index=max_index))
            assert records and len(eigs) == len(records) == len(graph.nodes) - 1
            if max_index is not None:
                # each minimum's index-2 search lands on an index-1 point
                # already in the graph: its edge points at that node, whose
                # index is kept
                dups = [hit for k, hit in landings if k == 2 and not _records_match(hit, graph.node(0))]
                assert dups
                for hit in dups:
                    (node,) = [rec for rec in graph.nodes if _records_match(rec, hit)]
                    assert node.morse_index == 1
                    assert any(
                        e.target == node.id and e.kind == "upward" and graph.node(e.source).morse_index == 0
                        for e in graph.edges
                    )
            monkeypatch.undo()

    def test_budget_truncates_without_raising(self):
        graph = self.toy_graph(max_searches=2)
        assert graph.truncated
        assert graph.searches == 2
        assert len(graph.nodes) == 3  # seed plus the first two finds

        tiny = self.toy_graph(max_nodes=1)
        assert tiny.truncated and len(tiny.nodes) == 1

    def test_a_new_landing_at_max_nodes_truncates(self):
        # the top's first branch pair lands on two new saddles; the second
        # arrives with the graph full and is dropped, its edge too
        graph = self.toy_graph(max_nodes=2)
        assert graph.truncated and graph.searches == 2
        assert [rec.morse_index for rec in graph.nodes] == [2, 1]
        assert [(e.source, e.target) for e in graph.edges] == [(0, 1)]

    def test_failed_branches_are_recorded(self):
        graph = self.toy_graph(search=SaddleOptions(max_iters=3))
        # every search from the top runs out of steps: nothing is found,
        # and each of the four branches is on record
        assert len(graph.nodes) == 1 and not graph.edges
        assert graph.searches == 4
        assert [f[:4] for f in graph.failed] == [
            (0, "downward", 1, 1.0),
            (0, "downward", 1, -1.0),
            (0, "downward", 0, 1.0),
            (0, "downward", 0, -1.0),
        ]
        assert all("after 3 steps" in f[4] for f in graph.failed)
        assert self.toy_graph().failed == []

    def test_upward_sweep_opt_in(self):
        seed = quartic_record((1.0, 1.0))
        graph = build_landscape(Quartic2D(), seed, LandscapeOptions(max_index=2))
        assert not graph.truncated
        indices = {rec.morse_index for rec in graph.nodes}
        assert indices == {0, 1, 2}
        assert len(graph.nodes) == 9
        kinds = {edge.kind for edge in graph.edges}
        assert kinds == {"downward", "upward"}
        for edge in graph.edges:
            src = graph.node(edge.source).morse_index
            dst = graph.node(edge.target).morse_index
            assert dst > src if edge.kind == "upward" else dst < src


class SquareQuartic(Quartic2D):
    """Quartic2D with the square's 8 signed permutations of (x, y), identity first."""

    symmetries = tuple(
        lambda v, perm=perm, sign=np.array(sign): (np.asarray(v)[perm].T * sign).T
        for perm in ([0, 1], [1, 0])
        for sign in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))
    )


@pytest.mark.parametrize("max_index, run", [(None, 3), (2, 9)])
def test_symmetric_toy_landscape_matches_the_plain_one(max_index, run):
    # the group maps starts, landings and nodes exactly: the same nine points
    # in the same order and the same pathways (an upward edge's sign may
    # flip, as the mapped eigenvectors need not share the fresh ones' signs)
    seed = quartic_record((0.0, 0.0), k_hint=2)
    plain = build_landscape(Quartic2D(), seed, LandscapeOptions(max_index=max_index))
    graph = build_landscape(SquareQuartic(), seed, LandscapeOptions(max_index=max_index))
    assert [rec.morse_index for rec in graph.nodes] == [rec.morse_index for rec in plain.nodes]
    assert len(graph.nodes) == 9 and np.bincount([rec.morse_index for rec in graph.nodes]).tolist() == [4, 4, 1]
    for rec, ref in zip(graph.nodes, plain.nodes):
        assert np.abs(rec.field - ref.field).max() < 1e-8 and abs(rec.energy - ref.energy) < 1e-12
    assert [e[:3] for e in map(astuple, graph.edges)] == [e[:3] for e in map(astuple, plain.edges)]
    assert len(graph.edges) == (12 if max_index is None else 24)
    assert graph.searches == plain.searches == plain.branches_run == (12 if max_index is None else 36)
    assert graph.branches_run == run
    # the upward searches that run off outward fail at the same nodes; the
    # images of a failed branch take its error unrun, so 9 of the 36 branches run
    assert [f[:3] for f in graph.failed] == [f[:3] for f in plain.failed]
    assert len(graph.failed) == (0 if max_index is None else 12)


class TestTensorField:
    def make_system(self, n=5):
        d = Domain(nx=n, ny=n, lambda2=5.0, bulk=BULK)
        return d, LdGSystem(d)

    def test_minimizer_record_index_matches_dense_oracle(self):
        d, sy = self.make_system(5)
        res = minimize(sy, seed_field(d, "random(0.4)", seed=11).flat, MinimizeOptions(tol_grad=1e-10))
        assert res.converged
        rec = make_record(sy, res.x, tol_grad=1e-8)

        h = sy.hessian_vec(res.x, np.eye(sy.n))
        h = 0.5 * (h + h.T)
        eigs = np.linalg.eigh(h)[0]
        _, _, rep = classify_stationary(sy, res.x, tol_grad=1e-8)
        assert rec.morse_index == int(np.sum(eigs < -rep.tol_eig))

    def test_record_eigenvectors_are_certified_eigenpairs(self):
        d = Domain(nx=8, ny=8, lambda2=5.0, bulk=BULK)
        sy = LdGSystem(d)
        res = minimize(sy, seed_field(d, "random(0.4)", seed=11).flat, MinimizeOptions(tol_grad=1e-10))
        cases = [
            (Quartic2D(), np.array(Quartic2D.TOP), 2),
            (Quartic2D(), np.array([0.0, 1.0]), 1),
            (sy, res.x, 0),  # 320 unknowns: the LOBPCG path
        ]
        for system, x, k_hint in cases:
            rec = make_record(system, x, k_hint=k_hint)
            _, _, rep = classify_stationary(system, x, k_hint=k_hint)
            v = rec.eigenvectors
            assert v.shape == (x.size, len(rec.lambda_spectrum))
            assert np.abs(v.T @ v - np.eye(v.shape[1])).max() < 1e-10
            residuals = np.linalg.norm(system.hessian_vec(x, v) - v * rec.lambda_spectrum, axis=0)
            assert residuals.max() <= 1e-6 * rep.scale

    def test_saddle_search_returns_perturbed_minimizer(self):
        d, sy = self.make_system(5)
        res = minimize(sy, seed_field(d, "random(0.4)", seed=11).flat, MinimizeOptions(tol_grad=1e-10))
        gen = make_rng(2, "test:hisd:perturb")
        x0 = res.x + 1e-3 * gen.normal(size=sy.n)
        rec = find_saddle(sy, 0, x0, opts=SaddleOptions(tol_grad=1e-9))
        assert rec.morse_index == 0
        assert np.abs(rec.field - res.x).max() < 1e-6


def planar_cross(n, lambda2, tol_grad=1e-8):
    """The symmetric cross state on an n x n grid, by a symmetry-projected minimization."""
    d = Domain(nx=n, ny=n, lambda2=lambda2, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
    sy = LdGSystem(d)
    x, y = np.meshgrid(d.xs, d.ys, indexing="ij")
    sign = np.where(np.abs(y - 0.5) > np.abs(x - 0.5), 1.0, -1.0)
    ramp = np.minimum(1.0, 3.0 * np.minimum(np.abs(x - y), np.abs(x + y - 1.0)))
    q = np.zeros(d.shape)
    q[:, :, 0] = 0.5 * d.s_plus * sign * ramp
    q[:, :, 3] = -q[:, :, 0]

    def project(flat):
        return symmetrize(QField.from_flat(d, flat)).flat

    opts = MinimizeOptions(tol_grad=tol_grad, max_iters=20000, project=project)
    res = minimize(sy, project(q.reshape(-1)), opts)
    assert res.converged
    return sy, res.x


def planar_cross_parent(n, lambda2=50.0, k_hint=2):
    """The symmetric cross state on an n x n grid, certified: index 2 at lambda2 = 50."""
    sy, x = planar_cross(n, lambda2)
    return sy, make_record(sy, x, tol_grad=1e-6, k_hint=k_hint)


@pytest.mark.parametrize("lambda2, index", [(24.0, 0), (24.8310210, None), (26.0, 1)])
def test_a_degenerate_cross_is_reported_not_classified(lambda2, index):
    # the 16^2 planar cross turns from a minimum into an index-1 saddle at
    # lambda2* = 24.8310210, where the two diagonal minima branch off; there
    # its lambda1 = 3.2e-10 lies below its residual 6.1e-8 and tol_eig 2.3e-7
    sy, x = planar_cross(16, lambda2, tol_grad=1e-10)
    if index is None:
        with pytest.raises(DegenerateStationary, match="Ritz value 3.2"):
            classify_stationary(sy, x)
    else:
        assert classify_stationary(sy, x)[0] == index
    assert issubclass(DegenerateStationary, SolveError)  # the CLI exits 2


def test_downward_search_steps_do_not_grow_with_the_grid():
    found = {}
    for n in (16, 32):
        sy, parent = planar_cross_parent(n)
        assert parent.morse_index == 2
        hits = branch_search(sy, parent, 1, opts=SaddleOptions(tol_grad=1e-6))
        found[n] = ([rec.morse_index for rec in hits], sum(rec.iterations for rec in hits))
    assert found[16][0] == found[32][0] == [1, 1]
    assert found[32][1] <= 1.5 * found[16][1]


def test_searches_below_an_index_6_parent():
    # at lambda2 = 150 the cross has index 6; searches below it carry three to
    # five directions, each block M-orthonormalized at every step
    sy, parent = planar_cross_parent(16, lambda2=150.0, k_hint=6)
    assert parent.morse_index == 6
    for k in (5, 4, 3):
        hits = branch_search(sy, parent, k, opts=SaddleOptions(tol_grad=1e-6))
        assert [rec.morse_index for rec in hits] == [k, k]
        assert all(rec.grad_inf < 1e-6 for rec in hits)


def test_deep_cross_landscape_keeps_its_graph():
    # below the index-6 cross at lambda2 = 150: nodes by index 0..6, edges,
    # branches run (the rest are images under the square's symmetry)
    sy, parent = planar_cross_parent(16, lambda2=150.0, k_hint=6)
    graph = build_landscape(sy, parent, LandscapeOptions(search=SaddleOptions(tol_grad=1e-6)))
    assert [len(graph.by_index().get(m, [])) for m in range(7)] == [6, 8, 8, 6, 2, 2, 1]
    assert len(graph.edges) == 132 and graph.branches_run == 36
    assert graph.failed == [] and not graph.truncated


def test_cross_landscape_steps_in_the_flow_metric():
    # in the metric M = L1 of the flow; with the old bulk-scaled shift the
    # 16^2 branches took 131 (index 1) and 76 (index 0) steps, 139 and 82
    # at 32^2, and the parent's certificate 84 LOBPCG iterations; the fixed
    # index-0 step took 21 and 20, the Barzilai-Borwein step takes 15 and 15
    for n in (16, 32):
        sy, parent = planar_cross_parent(n)
        graph = build_landscape(sy, parent, LandscapeOptions(search=SaddleOptions(tol_grad=1e-6)))
        assert [rec.morse_index for rec in graph.nodes] == [2, 1, 1, 0, 0]
        assert len(graph.edges) == 8 and graph.searches == 8
        for rec in graph.nodes[1:]:
            assert rec.iterations <= (60 if rec.morse_index == 1 else 18)
        if n == 16:
            _, _, rep = classify_stationary(sy, parent.field, tol_grad=1e-6, k_hint=2)
            assert rep.iterations <= 50


def test_landscape_certifies_each_new_node_once(monkeypatch):
    # 8 branches land 8 times below the cross, in 3 orbits of the square's
    # symmetry: 3 branches run, the other 5 landings are images of theirs;
    # only the 2 orbit-new nodes pay for a certificate, the 2 images of them
    # are mapped records and the rest land on known nodes
    sy, parent = planar_cross_parent(16)
    eigs = count_calls(monkeypatch, hisd, "smallest_eigs")
    graph = build_landscape(sy, parent, LandscapeOptions(search=SaddleOptions(tol_grad=1e-6)))
    assert [rec.morse_index for rec in graph.nodes] == [2, 1, 1, 0, 0]
    assert len(graph.edges) == 8 and graph.searches == 8
    assert graph.branches_run == 3
    assert len(eigs) == 2


def test_mapped_landscape_records_match_fresh_certificates():
    sy, parent = planar_cross_parent(16)
    graph = build_landscape(sy, parent, LandscapeOptions(search=SaddleOptions(tol_grad=1e-6)))
    # nodes 2 and 4 are the images of nodes 1 and 3
    for image, source in ((2, 1), (4, 3)):
        assert any(_records_match(graph.node(source), graph.node(image), g) for g in sy.symmetries[1:])
    for rec in graph.nodes[1:]:
        assert rec.grad_inf < 1e-6
        index, spectrum, _ = classify_stationary(sy, rec.field, tol_grad=1e-6, k_hint=rec.morse_index)
        assert index == rec.morse_index
        assert np.abs(spectrum - rec.lambda_spectrum).max() < 1e-8


def test_asymmetric_wall_runs_every_branch():
    # a callable wall 1e-9 off the planar data, tilted along x, breaks the
    # symmetry without moving the cross: every branch is searched
    sym, sym_parent = planar_cross_parent(16)
    d = sym.domain
    tilt = 1e-9 * np.array([1.0, 0.0, 0.0, -1.0, 0.0])
    skew = Domain(16, 16, d.lambda2, d.bulk, boundary=lambda x, y: d.ring + x[..., None] * tilt)
    assert not skew.d4_invariant
    sy = LdGSystem(skew)
    parent = make_record(sy, sym_parent.field, tol_grad=1e-6, k_hint=2)
    graph = build_landscape(sy, parent, LandscapeOptions(search=SaddleOptions(tol_grad=1e-6)))
    assert [rec.morse_index for rec in graph.nodes] == [2, 1, 1, 0, 0]
    assert graph.searches == graph.branches_run == 8
