"""Stabilized-flow contracts: splitting identities, fixed points, dissipation, order."""

import gc
import weakref
from itertools import chain, cycle, islice
from math import ceil, floor, log2

import numpy as np
import pytest
import scipy.linalg

from nematicq import energy, qtensor, sav
from nematicq.energy import LdGSystem, SineSolver, free_energy
from nematicq.errors import NoConvergence, SolveError, ValidationError
from nematicq.hisd import classify_stationary
from nematicq.field import Domain, QField, seed_field
from nematicq.minimize import MinimizeOptions, minimize
from nematicq.qtensor import BulkParams, bulk_energy_uniaxial
from nematicq.sav import (
    SavSplit,
    SavState,
    flow_to_equilibrium,
    sav_init,
    sav_split,
    sav_step,
    step_ladder,
)
from nematicq.systems import make_rng
from oracles import elastic_matrix, metric_matrix, sav_remainder

BULK = BulkParams(-1.0, 1.0, 1.0)


def tangent_domain(n=6, lambda2=5.0, **kw):
    return Domain(nx=n, ny=n, lambda2=lambda2, bulk=BULK, **kw)


def _swirl_ring(x, y):
    return np.stack([0.3 * np.sin(3.0 * x), 0.2 * x * y, 0.0 * x, 0.0 * x, 0.1 * np.cos(y)], axis=-1)


def golden_min(f, lo, hi, tol=1e-12):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def smoothed_start(domain, spec, seed, nsteps=30, dt=0.01):
    """Seed field with the stiff elastic transient damped away."""
    state = sav_init(seed_field(domain, spec, seed=seed))
    for _ in range(nsteps):
        state = sav_step(state, dt)
    return state.field


def shifted_density(domain, a1):
    lam2, p = domain.lambda2, domain.bulk

    def g(s):
        return lam2 * bulk_energy_uniaxial(s, p) - (a1 / 3.0) * s * s

    return g


class TestSplit:
    def test_a1_values(self):
        assert sav_split(Domain(nx=4, ny=4, lambda2=7.0, bulk=BulkParams(0.3, 1.0, 1.0), boundary="zero")).a1 == 1.0
        assert sav_split(tangent_domain(4, lambda2=5.0)).a1 == 6.0

    def test_c0_against_golden_section_oracle(self):
        d = tangent_domain(4, lambda2=5.0)
        split = sav_split(d)
        g = shifted_density(d, split.a1)
        # locate the basin on a coarse scan, then polish by golden section
        scan = np.linspace(-6.0, 6.0, 1333)
        i = int(np.argmin([g(s) for s in scan]))
        s_star = golden_min(g, scan[i - 1], scan[i + 1])
        assert split.c0 == pytest.approx(1.0 - g(s_star), rel=1e-10)
        # cross-check: stationary points of g solve a quadratic (besides s=0)
        lam2, p = d.lambda2, d.bulk
        roots = np.roots([2.0 * lam2 * p.c, -lam2 * p.b, 3.0 * (lam2 * p.a - split.a1)])
        candidates = [0.0] + [float(r) for r in roots if abs(r.imag) < 1e-12]
        assert split.c0 == pytest.approx(1.0 - min(g(s) for s in candidates), rel=1e-10)

    def test_f1_floor(self):
        d = tangent_domain(5, lambda2=5.0)
        split = sav_split(d)
        assert split.f1(np.zeros(d.n_dof)) == pytest.approx(split.c0)
        assert split.c0 >= 1.0
        gen = make_rng(11, "test:sav")
        for _ in range(100):
            x = gen.normal(scale=gen.uniform(0.05, 3.0), size=d.n_dof)
            assert split.f1(x) >= 1.0

    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_split_reassembles_energy_and_gradient(self, l23):
        d = tangent_domain(5, lambda2=5.0, l2=l23[0], l3=l23[1])
        split = sav_split(d)
        sy = LdGSystem(d)
        x = seed_field(d, "random(0.5)", seed=3).flat
        g_split = split.l_apply(x) + split.shift + split.f1_grad_f1(x)[1]
        assert np.allclose(g_split, sy.gradient(x), rtol=1e-12, atol=1e-13)
        r = np.sqrt(split.f1(x))
        assert split.modified_energy(x, r) == pytest.approx(sy.energy(x), rel=1e-12)

    @pytest.mark.parametrize("boundary", ["planar", "zero", _swirl_ring])
    @pytest.mark.parametrize("l23", [(0.0, 0.0), (0.6, 0.4)])
    def test_split_reads_the_domains_affine_form(self, boundary, l23):
        # c and the ring's energy e0 are the domain's one affine form of the
        # elastic energy; with them the modified energy is the energy at r^2 = F1
        d = tangent_domain(5, lambda2=5.0, boundary=boundary, l2=l23[0], l3=l23[1])
        split = sav_split(d)
        c, e0 = energy.elastic_affine(d)
        assert split.shift is c and split._constant == e0 - split.c0
        for x in (np.zeros(d.n_dof), seed_field(d, "random(0.5)", seed=4).flat):
            r = np.sqrt(split.f1(x))
            assert split.modified_energy(x, r) == pytest.approx(free_energy(d, x), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("boundary", ["planar", "tangent"])
    @pytest.mark.parametrize("a", [-1.0, 0.02])
    def test_folded_remainder_matches_the_literal_sum(self, boundary, a):
        # F1 is one bulk pass with folded coefficients; the oracle adds
        # lambda2 f_b and the -a1/2 |Q|^2 shift term by term
        d = Domain(nx=6, ny=6, lambda2=5.0, bulk=BulkParams(a, 1.0, 1.0), boundary=boundary)
        split = SavSplit(d)
        gen = make_rng(12, "test:sav:fold")
        for scale in (0.05, 0.5, 2.0):
            x = gen.normal(scale=scale, size=d.n_dof)
            f_ref, g_ref = sav_remainder(split, x)
            f, g = split.f1_grad_f1(x)
            assert f == split.f1(x)
            assert abs(f - f_ref) <= 1e-13 * abs(f_ref)
            assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()

    def test_split_lives_as_long_as_its_domain(self):
        d = tangent_domain(4)
        split = sav_split(d)
        assert sav_split(d) is split
        dropped = weakref.ref(d)
        del d, split
        gc.collect()
        assert dropped() is None

    def test_requires_quartic_term(self):
        d = Domain(nx=4, ny=4, lambda2=2.0, bulk=BulkParams(1.0, 0.0, 0.0), boundary="zero")
        with pytest.raises(ValidationError):
            SavSplit(d)


class TestDirectSolve:
    """Flows whose steps solve by Sherman-Morrison on the exact sine solve,
    checked (and, with l2/l3, finished) by CG."""

    def test_planar_flow_keeps_its_trajectory(self):
        # step count of this flow, and the energy of the stationary state it
        # ends on, which neither the step sequence nor the solve moves
        # beyond rounding; the Newton endgame finishes it after 8 SAV steps
        # (45 without it)
        d = tangent_domain(16, boundary="planar")
        out, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert steps == 8
        assert abs(out.energy() - 14.230663497098234) <= 1e-12

    def test_l2_l3_flow_keeps_its_trajectory_to_the_cg_tolerance(self):
        # CG now starts from the Sherman-Morrison solution and stops at a
        # different iterate inside the same atol, so the end state moves
        # at that level rather than at the rounding level; the Newton
        # endgame finishes it after 9 SAV steps (39 without it)
        d = tangent_domain(16, boundary="planar", l2=0.6, l3=0.4)
        out, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert steps == 9
        assert abs(out.energy() - 21.547831753032415) <= 1e-10


def count(monkeypatch, owner, name, calls):
    """Route owner.name through a wrapper that appends name to calls."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def chained_state(d, nsteps=2, dt=0.5):
    """A state reached by sav_step, so it carries q_prev and L q + c."""
    split = sav_split(d)
    state = sav_init(seed_field(d, "random(0.2)", seed=1))
    for _ in range(nsteps):
        state = sav_step(state, dt)
    return split, state


def cn_residual(split, state, out, dt):
    """Norm of the step's Crank-Nicolson equation, rebuilt from scratch."""
    q, q_new = state.field.flat, out.field.flat
    q_bar = 1.5 * q - 0.5 * state.q_prev.flat
    f1, g = split.f1_grad_f1(q_bar)
    b = g / (2.0 * np.sqrt(f1))
    lin, lin_new = (split.l_apply(x) + split.shift for x in (q, q_new))
    return np.linalg.norm((q_new - q) / dt + 0.5 * (lin + lin_new) + (state.r + out.r) * b)


class TestStepWork:
    """What one step evaluates: one elastic apply, one bulk pass and two
    sine solves, with CG only when the direct solve misses."""

    @staticmethod
    def counted_step(monkeypatch, split, state, dt):
        calls = []
        for name in ("bulk_energy", "bulk_gradient", "bulk_energy_gradient", "cg"):
            count(monkeypatch, sav, name, calls)
        count(monkeypatch, SineSolver, "solve", calls)
        count(monkeypatch, split, "l_apply", calls)
        out = sav_step(state, dt)
        monkeypatch.undo()
        return out, calls

    @pytest.mark.parametrize("boundary", ["tangent", "planar"])
    def test_one_of_each_without_l2_l3(self, monkeypatch, boundary):
        split, state = chained_state(tangent_domain(8, boundary=boundary))
        out, calls = self.counted_step(monkeypatch, split, state, 0.5)
        assert calls.count("l_apply") == 1
        assert calls.count("bulk_energy") + calls.count("bulk_gradient") + calls.count("bulk_energy_gradient") == 1
        assert calls.count("solve") == 2
        assert calls.count("cg") == 0
        assert cn_residual(split, state, out, 0.5) <= 1e-10

    @pytest.mark.parametrize("boundary", ["tangent", "planar"])
    def test_metric_terms_only_inside_l_apply(self, monkeypatch, boundary):
        # the remainder's -a1/2 |Q|^2 shift is folded into its bulk
        # coefficients, so |Q|^2 and G q are formed only by L's own apply
        split, state = chained_state(tangent_domain(8, boundary=boundary))
        calls, inside = [], []
        l_apply = split.l_apply

        def tracked(flat):
            inside.append(1)
            try:
                return l_apply(flat)
            finally:
                inside.pop()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append((name, bool(inside)))
                return original(*args, **kwargs)

            return wrapper

        for module in (qtensor, energy, sav):
            for name in ("frob2", "metric_apply"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(split, "l_apply", tracked)
        sav_step(state, 0.5)
        monkeypatch.undo()
        assert ("metric_apply", True) in calls
        assert all(within for _, within in calls)

    def test_l2_l3_flow_makes_no_extra_apply_for_cg(self, monkeypatch):
        # each step applies L to q+ for the check, once per CG iteration
        # (CG solves for the correction from zero, so it does not apply L
        # to recompute the check's residual) and once more to the
        # corrected q+; sav_init applies it once, and the Newton endgame
        # that finishes the flow after 9 steps applies the Hessian instead
        d = tangent_domain(16, boundary="planar", l2=0.6, l3=0.4)
        applies, iterations = [], []
        count(monkeypatch, sav_split(d), "l_apply", applies)
        solver = sav.cg

        def counted_cg(*args, **kwargs):
            iterations.append(0)

            def tick(xk):
                iterations[-1] += 1

            return solver(*args, callback=tick, **kwargs)

        monkeypatch.setattr(sav, "cg", counted_cg)
        _, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert steps == 9
        assert len(iterations) == steps
        assert len(applies) == 1 + 2 * steps + sum(iterations)

    @pytest.mark.parametrize("boundary", ["tangent", "planar"])
    def test_one_operator_action_without_l2_l3(self, monkeypatch, boundary):
        # dt changes back and forth, so a solve shifted for a stale dt would show
        split, state = chained_state(tangent_domain(8, boundary=boundary))
        for dt in (1e-3, 2.0, 1e-3):
            out, calls = self.counted_step(monkeypatch, split, state, dt)
            assert calls.count("l_apply") == 1 and calls.count("cg") == 0
            assert cn_residual(split, state, out, dt) <= 1e-10
            state = out

    def test_residual_within_tolerance_with_l2_l3(self, monkeypatch):
        # the check's apply, at least one CG iteration's and the corrected q+'s
        split, state = chained_state(tangent_domain(8, l2=0.6, l3=0.4))
        for dt in (1e-3, 2.0):
            out, calls = self.counted_step(monkeypatch, split, state, dt)
            assert calls.count("cg") == 1 and calls.count("l_apply") > 2
            assert cn_residual(split, state, out, dt) <= 1e-10
            state = out

    def test_cg_finishes_with_l2_l3(self, monkeypatch):
        split, state = chained_state(tangent_domain(8, l2=0.6, l3=0.4))
        out, calls = self.counted_step(monkeypatch, split, state, 0.5)
        assert calls.count("cg") == 1
        assert cn_residual(split, state, out, 0.5) <= 1e-10


LINEAR_CASES = [(b, l23) for b in ("planar", "tangent") for l23 in ((0.0, 0.0), (0.6, 0.4))]


class TestCarriedLinearGradient:
    @pytest.mark.parametrize("boundary, l23", LINEAR_CASES)
    def test_carried_value_is_fresh_bit_for_bit(self, boundary, l23):
        d = tangent_domain(16, boundary=boundary, l2=l23[0], l3=l23[1])
        split, state = chained_state(d, nsteps=50)
        q = state.field.flat
        assert np.array_equal(state.linear_gradient, split.l_apply(q) + split.shift)
        # a hand-built state has it computed afresh, to the same next field
        bare = SavState(state.field, state.r, state.q_prev, state.step, state.time)
        assert bare.linear_gradient is None
        assert np.array_equal(sav_step(bare, 0.5).field.flat, sav_step(state, 0.5).field.flat)

    @pytest.mark.parametrize("boundary, l23", LINEAR_CASES)
    def test_flow_measure_is_the_gradient(self, monkeypatch, boundary, l23):
        d = tangent_domain(16, boundary=boundary, l2=l23[0], l3=l23[1])
        sy = LdGSystem(d)
        states, rows = [], []
        step = sav.sav_step

        def recorded(*args, **kwargs):
            states.append(step(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(sav, "sav_step", recorded)
        # the Newton endgame would reach 1e-13 after a few steps; without it
        # the flow runs out its 50 steps
        monkeypatch.setattr(sav, "_polish", lambda *args: None)
        with pytest.raises(NoConvergence):
            flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-13, max_steps=50, trace=rows)
        assert len(states) == 50
        for state in states:
            # the two sum the same terms in another order, so they agree
            # to rounding at the scale of those terms
            g = np.abs(sy.gradient(state.field.flat)).max()
            assert abs(rows[state.step][4] - g) <= 1e-14 * np.abs(state.linear_gradient).max()


class TestStep:
    def test_stationary_fixed_point(self):
        d = tangent_domain(6, lambda2=5.0)
        sy = LdGSystem(d)
        res = minimize(sy, seed_field(d, "isotropic").flat, MinimizeOptions(tol_grad=1e-11))
        assert res.converged
        state = sav_init(QField.from_flat(d, res.x))
        for dt in (1e-2, 0.7, 10.0):
            out = sav_step(state, dt)
            assert np.abs(out.field.flat - res.x).max() < 1e-10
            assert abs(out.r - state.r) < 1e-10

    def test_remainder_below_its_floor_raises(self):
        # a split whose C0 no longer bounds F1 from below must stop the
        # step with an error that survives python -O
        d = tangent_domain(4)
        f = seed_field(d, "random(0.3)", seed=5)
        split = sav_split(d)
        state = sav_init(f)
        split.c0 -= split.f1(f.flat)
        with pytest.raises(SolveError, match="floor"):
            sav_step(state, 0.1)

    def test_dt_validation(self):
        d = tangent_domain(4)
        state = sav_init(seed_field(d, "isotropic"))
        for dt in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                sav_step(state, dt)

    def test_eigenmode_decay_second_order(self):
        # with b = 0 and a tiny amplitude the flow is linear to 1e-10,
        # so each eigenmode decays as exp(-mu t)
        d = Domain(nx=4, ny=4, lambda2=2.0, bulk=BulkParams(1.0, 0.0, 1.0), boundary="zero")
        sy = LdGSystem(d)
        m = (elastic_matrix(d) + d.lambda2 * d.bulk.a * d.hx * d.hy * metric_matrix(d)).toarray()
        mu, vecs = scipy.linalg.eigh(m)
        k = len(mu) // 3
        amp = 1e-5
        q0 = amp * vecs[:, k]
        t_final = 0.4
        errs = []
        for dt in (0.04, 0.02, 0.01):
            state = sav_init(QField.from_flat(d, q0))
            for _ in range(round(t_final / dt)):
                state = sav_step(state, dt)
            exact = np.exp(-mu[k] * t_final) * q0
            errs.append(np.abs(state.field.flat - exact).max() / amp)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 1.9

    @pytest.mark.parametrize("dt", [1e-3, 1e-1, 1.0, 10.0])
    def test_modified_energy_monotone(self, dt):
        d = tangent_domain(8, lambda2=5.0)
        split = sav_split(d)
        state = sav_init(seed_field(d, "random(0.8)", seed=int(dt * 1000) % 97))
        em = [split.modified_energy(state.field.flat, state.r)]
        for _ in range(50):
            state = sav_step(state, dt)
            em.append(split.modified_energy(state.field.flat, state.r))
        em = np.array(em)
        assert np.all(np.diff(em) <= 1e-9 * (1.0 + np.abs(em[:-1])))

    def test_modified_energy_monotone_with_l2_l3(self):
        d = tangent_domain(6, lambda2=5.0, l2=0.5, l3=0.3)
        split = sav_split(d)
        state = sav_init(seed_field(d, "random(0.6)", seed=9))
        em = [split.modified_energy(state.field.flat, state.r)]
        for _ in range(20):
            state = sav_step(state, 1.0)
            em.append(split.modified_energy(state.field.flat, state.r))
        assert np.all(np.diff(np.array(em)) <= 1e-9)

    def test_second_order_against_fine_reference(self):
        d = tangent_domain(4, lambda2=5.0)
        # damp the stiff elastic modes first; the asymptotic range of the
        # time stepper starts once the trajectory is resolved
        state = sav_init(seed_field(d, "random(0.3)", seed=5))
        for _ in range(50):
            state = sav_step(state, 0.01)
        q0 = state.field.flat
        t_final = 0.4

        def integrate(dt):
            state = sav_init(QField.from_flat(d, q0))
            for _ in range(round(t_final / dt)):
                state = sav_step(state, dt)
            return state.field.flat

        ref = integrate(1e-4)
        errs = [np.linalg.norm(integrate(dt) - ref) for dt in (0.05, 0.025, 0.0125)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() >= 1.9

    def test_r_tracks_f1_at_second_order(self):
        d = tangent_domain(4, lambda2=5.0)
        split = sav_split(d)
        q0 = smoothed_start(d, "random(0.3)", 6).flat
        t_final = 1.0

        def worst_drift(dt):
            state = sav_init(QField.from_flat(d, q0))
            drift = 0.0
            for _ in range(round(t_final / dt)):
                state = sav_step(state, dt)
                drift = max(drift, abs(state.r ** 2 - split.f1(state.field.flat)))
            return drift

        assert worst_drift(0.05) / worst_drift(0.025) >= 3.0

    def test_agrees_with_explicit_euler_at_small_dt(self):
        # at dt = 1e-4 both schemes resolve the smoothed trajectory, so
        # they differ by their truncation errors, far below how far it moves
        d = tangent_domain(6, lambda2=5.0)
        split = sav_split(d)
        sy = LdGSystem(d)
        f0 = smoothed_start(d, "random(0.5)", 13)
        state = sav_init(f0)
        x = f0.flat
        for _ in range(100):
            state = sav_step(state, 1e-4)
            x = x - 1e-4 * sy.gradient(x)
        assert np.abs(state.field.flat - x).max() < 1e-5


class TestFlow:
    def test_stationary_returns_zero_steps(self):
        d = tangent_domain(6, lambda2=5.0)
        sy = LdGSystem(d)
        res = minimize(sy, seed_field(d, "isotropic").flat, MinimizeOptions(tol_grad=1e-10))
        out, steps = flow_to_equilibrium(QField.from_flat(d, res.x), dt=0.5, tol_grad=1e-8)
        assert steps == 0
        assert out.flat is not res.x  # field is returned as passed in
        assert np.array_equal(out.flat, res.x)

    def test_reaches_minimizer_state(self):
        d = tangent_domain(8, lambda2=5.0)
        sy = LdGSystem(d)
        x0 = seed_field(d, "random(0.2)", seed=7).flat
        res = minimize(sy, x0, MinimizeOptions(tol_grad=1e-10))
        assert res.converged
        out, steps = flow_to_equilibrium(QField.from_flat(d, x0), dt=0.5, tol_grad=1e-8)
        assert steps > 0
        scale = np.abs(res.x).max()
        assert np.abs(out.flat - res.x).max() / scale < 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"dt": np.nan},
            {"tol_grad": 0.0},
            {"tol_grad": -1e-8},
            {"tol_grad": np.inf},
            {"tol_grad": np.nan},
            {"max_steps": -1},
            {"dt": np.inf},
            {"dt": 1e308},  # 2 / (lambda_max dt) underflows to 0
            {"dt": 5e-324},  # 2 / (lambda_min dt) overflows
        ],
    )
    def test_bad_inputs_raise_before_any_step(self, monkeypatch, kwargs):
        # a stationary start would return after 0 steps and a tol_grad <= 0
        # would spend every step; both are refused up front
        steps = []
        step = sav.sav_step
        monkeypatch.setattr(sav, "sav_step", lambda *a, **k: steps.append(1) or step(*a, **k))
        d = tangent_domain(6, lambda2=5.0, boundary="planar")
        args = {"dt": 0.5, "tol_grad": 1e-8, "max_steps": 10} | kwargs
        with pytest.raises(ValidationError):
            flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), **args)
        assert steps == []

    def test_zero_max_steps_is_a_valid_budget(self):
        d = tangent_domain(6, lambda2=5.0)
        with pytest.raises(NoConvergence) as err:
            flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, max_steps=0)
        assert err.value.iterations == 0

    def test_trace_rows(self):
        d = tangent_domain(5, lambda2=5.0)
        rows = []
        out, steps = flow_to_equilibrium(
            seed_field(d, "random(0.2)", seed=8), dt=0.5, tol_grad=1e-6, trace=rows
        )
        # 5 SAV steps, then 2 Newton steps of the endgame, numbered on
        newton = len(rows) - 1 - steps
        assert (steps, newton) == (5, 2)
        assert [r[0] for r in rows] == list(range(steps + newton + 1))
        # the time is the running sum of the step sizes: 0.5, then up the
        # ladder and round again from its smallest rung; the Newton rows
        # keep the last SAV row's time
        rungs = step_ladder(d, 0.5)
        assert len(rungs) > 2 and rungs[0] < 0 < rungs[-1]
        sizes = [0.5 * 2.0**j for j in islice(chain(range(rungs.stop), cycle(rungs)), steps)]
        times = np.cumsum([0.0] + sizes)
        assert np.array_equal([r[1] for r in rows], np.append(times, [times[-1]] * newton))
        # the relaxed r keeps the modified energy from rising on every step,
        # the Newton steps' r^2 = min(F1, M - 1/2 q.Lq - c.q) too
        modified = np.array([r[3] for r in rows])
        assert np.all(np.diff(modified) <= 1e-12 * np.abs(modified[:-1]))
        assert rows[-1][4] < 1e-6 and rows[-1][2] == out.energy()

    @pytest.mark.parametrize("kw", [{}, {"boundary": "planar", "l2": 0.6, "l3": 0.4}])
    def test_trace_energies_match_fresh_passes(self, kw, monkeypatch):
        # the rows are built from carried values; they must still be the
        # field's energy and modified energy
        d = tangent_domain(6, lambda2=5.0, **kw)
        states, rows = [], []
        step = sav.sav_step

        def kept(state, dt):
            states.append(state)
            return step(state, dt)

        monkeypatch.setattr(sav, "sav_step", kept)
        out, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=9), dt=0.5, tol_grad=1e-6, trace=rows)
        # the Newton endgame finishes the flow after 5 or 6 SAV steps
        assert steps >= 5 and len(states) == steps and len(rows) > steps + 1
        split = sav_split(d)
        for state, row in zip(states, rows):
            assert row[2] == pytest.approx(state.field.energy(), rel=1e-12)
            assert row[3] == pytest.approx(split.modified_energy(state.field.flat, state.r), rel=1e-12)
        # a Newton row carries its iterate's fresh energy, the last the returned field's
        assert rows[-1][2] == out.energy()
        assert all(b[2] <= a[2] for a, b in zip(rows[steps:], rows[steps + 1 :]))

    @staticmethod
    def monotone_flow(d, seed, dt, max_steps=3000):
        """Steps of a random(0.2) flow on d to 1e-8, after checking
        that its trace's modified energy never rises by more than 1e-12
        relative; NoConvergence propagates."""
        rows = []
        _, steps = flow_to_equilibrium(
            seed_field(d, "random(0.2)", seed=seed), dt=dt, tol_grad=1e-8, max_steps=max_steps, trace=rows
        )
        modified = np.array([r[3] for r in rows])
        assert np.all(np.diff(modified) <= 1e-12 * np.abs(modified[:-1]))
        return steps

    def test_relaxed_scalar_converges_with_a_monotone_trace(self):
        # with a fixed r the scalar drifts and the stepper settles where the
        # rescaled force balance vanishes instead of the true gradient; the
        # relaxed r converges here in 6 steps and 3 Newton steps (35 steps
        # without the endgame)
        assert self.monotone_flow(tangent_domain(6, lambda2=5.0), 7, 0.5) <= 50

    @pytest.mark.parametrize("n, lambda2", [(16, 5.0), (32, 5.0), (32, 50.0)])
    @pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0, 10.0])
    def test_entry_point_keeps_the_energy_guarantee(self, n, lambda2, dt):
        # the guarantee holds on the flow users run, at any first step, and
        # on its Newton rows (3-10 steps plus 2-3 Newton steps at lambda2 = 5,
        # 29-276 plus 2-4 at lambda2 = 50)
        d = tangent_domain(n, lambda2=lambda2, boundary="planar")
        for seed in (1, 2):
            self.monotone_flow(d, seed, dt)

    @pytest.mark.parametrize("dt", [1e-3, 0.5, 7.0, 1e-300, 1e300])
    def test_ladder_spans_the_assembled_spectrum(self, dt):
        # the domain's L1 spectrum against eigvalsh of the assembled oracle on
        # a non-square grid, its corners lambda_min/max, and the rungs they give
        d = Domain(nx=7, ny=5, lambda2=5.0, bulk=BULK, boundary="planar")
        sigma = energy.linear_shift(d) * d.hx * d.hy
        w = scipy.linalg.eigvalsh((elastic_matrix(d) + sigma * metric_matrix(d)).toarray())
        eig = energy.l1_operator(d).eigenvalues
        assert eig.shape == (5, 7, 5) and np.allclose(np.sort(eig, axis=None), w, rtol=1e-12, atol=0.0)
        assert abs(eig[0, 0, 0] - w[0]) <= 1e-12 * w[0] and abs(eig[-1, -1, -1] - w[-1]) <= 1e-12 * w[-1]
        lo, hi = floor(log2(2.0 / (w[-1] * dt))), ceil(log2(2.0 / (w[0] * dt)))
        assert step_ladder(d, dt) == range(min(0, lo), max(0, hi) + 1)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_step_count_does_not_grow_with_the_grid(self, n):
        # the ladder spans L's spectrum, whose width grows as n^2 (8, 10
        # and 13 steps plus 2 Newton steps; 45, 48 and 56 without the
        # endgame); a fixed dt = 2 took 705 steps at 64^2
        d = tangent_domain(n, lambda2=5.0, boundary="planar")
        _, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert steps <= 80

    def test_no_convergence_raises(self):
        d = tangent_domain(5, lambda2=5.0)
        with pytest.raises(NoConvergence) as err:
            flow_to_equilibrium(seed_field(d, "random(0.5)", seed=9), dt=1e-4, tol_grad=1e-10, max_steps=3)
        assert err.value.iterations == 3

    @pytest.mark.parametrize("boundary, l23", LINEAR_CASES)
    def test_returned_field_meets_tol_by_a_fresh_gradient(self, boundary, l23):
        d = tangent_domain(16, boundary=boundary, l2=l23[0], l3=l23[1])
        out, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert steps > 0
        assert np.abs(LdGSystem(d).gradient(out.flat)).max() < 1e-8

    @staticmethod
    def nan_on_call(monkeypatch, n, pick):
        """Route f1_grad_f1's n-th call through pick.  The flow's measure and
        its steps make one pass each in turn: the measure of step k is call
        2k + 1 and step k's own pass is call 2k."""
        calls = []
        original = SavSplit.f1_grad_f1

        def poisoned(self, flat):
            calls.append(1)
            out = original(self, flat)
            return pick(out) if len(calls) == n else out

        monkeypatch.setattr(SavSplit, "f1_grad_f1", poisoned)

    def test_non_finite_measure_raises_at_its_step(self, monkeypatch):
        # a NaN gradient in step 2's measure
        self.nan_on_call(monkeypatch, 5, lambda fg: (fg[0], np.full_like(fg[1], np.nan)))
        d = tangent_domain(6)
        with pytest.raises(NoConvergence, match="finite") as err:
            flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert err.value.iterations == 2

    def test_non_finite_field_raises_at_its_step(self, monkeypatch):
        # a NaN force in the third step's pass makes that step's field NaN
        self.nan_on_call(monkeypatch, 6, lambda fg: (fg[0], np.full_like(fg[1], np.nan)))
        d = tangent_domain(6)
        with pytest.raises(NoConvergence, match="finite") as err:
            flow_to_equilibrium(seed_field(d, "random(0.2)", seed=1), dt=0.5, tol_grad=1e-8)
        assert err.value.iterations == 3


class TestNewtonEndgame:
    """The flow's Newton endgame at lambda2 = 50, 32^2, dt = 2, where the
    Hessian's lowest eigenvalue lies far below L1's: MINRES steps there land
    on saddles (index 7 at E = 13.526 for bulk (-1, 1, 1) seed 1, index 2 at
    E = 6.457 for bulk (-2/3, 2, 2) seed 2), CG steps that stop at
    non-positive curvature on the minimum the pure flow reaches."""

    @staticmethod
    def flow(bulk, seed):
        d = Domain(nx=32, ny=32, lambda2=50.0, bulk=BulkParams(*bulk), boundary="planar")
        rows = []
        out, steps = flow_to_equilibrium(seed_field(d, "random(0.2)", seed=seed), dt=2.0, tol_grad=1e-8, trace=rows)
        modified = np.array([r[3] for r in rows])
        assert np.all(np.diff(modified) <= 1e-12 * np.abs(modified[:-1]))
        return d, out, steps, len(rows) - 1 - steps

    @pytest.mark.parametrize(
        "bulk, seed, energy",
        [((-1.0, 1.0, 1.0), 1, 9.191770390624), ((-1.0, 1.0, 1.0), 2, 9.191770390624)]
        + [((-2.0 / 3.0, 2.0, 2.0), 2, 5.80109941276), ((-2.0 / 3.0, 2.0, 2.0), 3, 5.80109941276)],
    )
    def test_lands_where_the_pure_flow_lands(self, bulk, seed, energy):
        d, out, _, newton = self.flow(bulk, seed)
        assert newton >= 1
        assert abs(out.energy() - energy) <= 1e-8
        assert classify_stationary(LdGSystem(d), out.flat, tol_grad=1e-8)[0] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_finishes_the_linear_tail(self, seed):
        # 38, 47 and 48 SAV steps plus 2-4 Newton steps; 182, 214 and 204
        # steps without the endgame
        _, _, steps, newton = self.flow((-2.0 / 3.0, 2.0, 2.0), seed)
        assert steps <= 60 and newton >= 1
