"""End-to-end acceptance checks: one test per guaranteed behavior.

Each test exercises a headline capability at its contractual tolerance
and budget, independent of the per-module suites: molecular-model
constants, Leslie identities, field gradients and spectra, flow
stability, toy and square-domain landscapes, the string method, the
radial defect profile, and cross-method agreement.
"""

import time

import numpy as np
import pytest

from nematicq.energy import LdGSystem
from nematicq.field import Domain, QField, seed_field, symmetrize
from nematicq.hisd import (
    SaddleOptions,
    branch_search,
    build_landscape,
    classify_stationary,
    make_record,
)
from nematicq.maier_saupe import (
    critical_alpha,
    leslie_coefficients,
    ratio,
    solve_branches,
)
from nematicq.mep import find_mep
from nematicq.minimize import MinimizeOptions, minimize
from nematicq.qtensor import BulkParams, biaxiality, frob2
from nematicq.sav import flow_to_equilibrium, sav_init, sav_split, sav_step
from nematicq.spectrum import smallest_eigs
from nematicq.systems import make_rng
from nematicq.toys import DoubleWell2D, Quartic2D
from oracles import elastic_matrix, metric_matrix

# Bulk constants for the square-domain checks: the s_plus = 1 family,
# scaled so that the pinned domain sizes land in the calibrated regime
# (unique stable cross state at lambda2 = 5, index >= 2 parent at 50).
SQUARE_BULK = BulkParams(-2.0 / 3.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# homogeneous molecular model


def test_critical_concentration_value_and_runtime():
    critical_alpha.cache_clear()
    t0 = time.perf_counter()
    alpha_star, eta_star = critical_alpha()
    elapsed = time.perf_counter() - t0
    assert abs(alpha_star - 6.731393) < 1e-4
    assert eta_star > 0.0
    assert elapsed < 1.0


def test_isotropic_threshold_exact_values():
    t0 = time.perf_counter()
    assert abs(ratio(0.0) - 7.5) < 1e-12
    records = solve_branches(7.5)
    eta2 = [r.eta for r in records if r.branch == "oblate"]
    assert len(eta2) == 1 and abs(eta2[0]) < 1e-8
    assert time.perf_counter() - t0 < 1.0


def test_branch_structure_and_stability_labels():
    alpha_star, eta_star = critical_alpha()
    for alpha in (6.8, 7.0, 7.4):
        records = solve_branches(alpha)
        by = {r.branch: r for r in records}
        assert set(by) == {"isotropic", "prolate", "oblate"}
        eta1, eta2 = by["prolate"].eta, by["oblate"].eta
        assert eta1 > eta_star > eta2 > 0.0
        assert abs(ratio(eta1) - alpha) < 1e-10
        assert abs(ratio(eta2) - alpha) < 1e-10
        # below the transition the ordered branches are metastable at
        # most: prolate locally stable, oblate never, isotropic stable
        assert by["prolate"].stable
        assert not by["oblate"].stable
        assert by["isotropic"].stable == (alpha < 7.5)
    assert [r.branch for r in solve_branches(6.0)] == ["isotropic"]


def test_parodi_identity_exact_for_1000_random_inputs():
    gen = make_rng(42, "acceptance:parodi")
    for _ in range(1000):
        s2 = gen.uniform(-0.5, 1.0)
        s4 = gen.uniform(-0.4, 1.0)
        gamma1 = gen.uniform(-3.0, 3.0)
        ls = leslie_coefficients(s2, s4, gamma1)
        # alpha2 + alpha3 = alpha6 - alpha5, in the association the
        # construction fixes (bit-exact, not merely approximate)
        assert ls.alpha6 == ls.alpha5 + (ls.alpha2 + ls.alpha3)
        assert ls.alpha3 == ls.alpha2 - ls.gamma1


# ---------------------------------------------------------------------------
# discrete field energy


def test_gradient_matches_directional_differences():
    d = Domain(nx=16, ny=16, lambda2=5.0, bulk=BulkParams(-1.0 / 3.0, 1.0, 1.0))
    sy = LdGSystem(d)
    gen = make_rng(7, "acceptance:gradient")
    for _ in range(20):
        x = 0.4 * gen.normal(size=sy.n)
        v = gen.normal(size=sy.n)
        v /= np.linalg.norm(v)
        g = sy.gradient(x)
        h = 1e-6
        fd = (sy.energy(x + h * v) - sy.energy(x - h * v)) / (2.0 * h)
        denom = max(abs(fd), 1e-10)
        assert abs(float(g @ v) - fd) / denom < 1e-6


def test_smallest_eigs_matches_dense_oracle_on_8x8():
    # quadratic-only bulk keeps the gradient affine, so both the dense
    # matrix and the matrix-free Hessian action are exact
    d = Domain(nx=8, ny=8, lambda2=2.0, bulk=BulkParams(0.7, 0.0, 0.0), boundary="zero")
    sy = LdGSystem(d)
    dense = (
        elastic_matrix(d) + d.bulk.a * d.lambda2 * d.hx * d.hy * metric_matrix(d)
    ).toarray()
    w_ref = np.linalg.eigvalsh(dense)
    rep = smallest_eigs(sy, np.zeros(sy.n), k=6)
    assert np.abs(rep.eigenvalues - w_ref[:6]).max() < 1e-8


# ---------------------------------------------------------------------------
# gradient flow


def test_flow_modified_energy_never_increases():
    d = Domain(nx=12, ny=12, lambda2=5.0, bulk=BulkParams(-1.0 / 3.0, 1.0, 1.0))
    split = sav_split(d)
    violations = 0
    for seed in range(5):
        f0 = seed_field(d, "random(0.3)", seed=seed)
        for dt in (1e-3, 1e-1, 1.0, 10.0):
            state = sav_init(f0)
            m_prev = split.modified_energy(state.field.flat, state.r)
            for _ in range(200):
                state = sav_step(state, dt)
                m = split.modified_energy(state.field.flat, state.r)
                if m > m_prev + 1e-9:
                    violations += 1
                m_prev = m
    assert violations == 0


# ---------------------------------------------------------------------------
# landscapes and paths on closed-form test energies


def test_quartic_landscape_has_all_nine_points():
    sy = Quartic2D()
    seed = make_record(sy, np.array(Quartic2D.TOP), k_hint=2)
    graph = build_landscape(sy, seed)
    assert not graph.truncated
    assert len(graph.nodes) == 9
    by_index = {k: len(v) for k, v in graph.by_index().items()}
    assert by_index == {2: 1, 1: 4, 0: 4}
    analytic = {
        0: [np.array(p) for p in Quartic2D.MINIMA],
        1: [np.array(p) for p in Quartic2D.SADDLES],
        2: [np.array(Quartic2D.TOP)],
    }
    for rec in graph.nodes:
        dist = min(np.linalg.norm(rec.field - p) for p in analytic[rec.morse_index])
        assert dist < 1e-6
        expected_e = {0: 0.0, 1: 1.0, 2: 2.0}[rec.morse_index]
        assert abs(rec.energy - expected_e) < 1e-8


def test_string_method_transition_state_and_barrier():
    sy = DoubleWell2D()
    res = find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=16, tol=1e-8, system=sy)
    assert np.abs(res.ts_field - np.array([0.0, 0.0])).max() < 1e-6
    assert abs(res.barrier_forward - 1.0) < 1e-4
    # unimodal: energies rise to the single barrier top, then fall
    e = res.path.energies
    top = int(np.argmax(e))
    assert 0 < top < e.size - 1
    assert np.all(np.diff(e[: top + 1]) >= -1e-12)
    assert np.all(np.diff(e[top:]) <= 1e-12)

    # a coarse string's top node is far from stationary; the climb from it
    # certifies the transition state to min(tol, 1e-8)
    coarse = find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=8, tol=1e-6, system=sy)
    g_top = np.abs(sy.gradient(coarse.path.nodes[coarse.ts_index])).max()
    g_ts = np.abs(sy.gradient(coarse.ts_field)).max()
    assert g_ts < 1e-8 < g_top


# ---------------------------------------------------------------------------
# square-domain states


def _diagonal_stats(domain, flat):
    values = flat.reshape(domain.shape)
    idx = np.arange(domain.nx)
    q_max = float(np.sqrt(frob2(values)).max())
    along = max(
        float(np.sqrt(frob2(values[idx, idx])).max()),
        float(np.sqrt(frob2(values[idx, idx[::-1]])).max()),
    )
    beta = max(
        float(biaxiality(values[idx, idx]).max()),
        float(biaxiality(values[idx, idx[::-1]]).max()),
    )
    return along / q_max, beta


def _cross_seed(domain):
    """D4-symmetric initial field with the in-plane order melting on both
    diagonals, matching the wall data away from them."""
    s = domain.s_plus
    x, y = np.meshgrid(domain.xs, domain.ys, indexing="ij")
    sign = np.where(np.abs(y - 0.5) > np.abs(x - 0.5), 1.0, -1.0)
    ramp = np.minimum(1.0, 3.0 * np.minimum(np.abs(x - y), np.abs(x + y - 1.0)))
    values = np.zeros(domain.shape)
    values[:, :, 0] = 0.5 * s * sign * ramp
    values[:, :, 3] = -values[:, :, 0]
    return values.reshape(-1)


def test_square_domain_states_across_domain_sizes():
    t0 = time.perf_counter()
    opts = MinimizeOptions(tol_grad=1e-8, max_iters=20000)

    # small square: every seed funnels to a single stable cross state
    # whose diagonals stay nearly isotropic
    d5 = Domain(nx=32, ny=32, lambda2=5.0, bulk=SQUARE_BULK, boundary="planar")
    sy5 = LdGSystem(d5)
    seeds = [
        seed_field(d5, "isotropic").flat,
        seed_field(d5, "diagonal(d1)").flat,
        seed_field(d5, "diagonal(d2)").flat,
        seed_field(d5, "rotated(bottom)").flat,
        seed_field(d5, "rotated(left)").flat,
        seed_field(d5, "random(0.2)", seed=1).flat,
        seed_field(d5, "random(0.2)", seed=2).flat,
    ]
    results = [minimize(sy5, x0, opts) for x0 in seeds]
    reference = results[0]
    assert all(r.converged for r in results)
    assert max(abs(r.energy - reference.energy) for r in results) < 1e-8
    assert max(np.linalg.norm(r.x - reference.x) for r in results) < 1e-3
    index5, _, _ = classify_stationary(sy5, reference.x, tol_grad=1e-6, k_hint=2)
    assert index5 == 0
    ratio5, beta5 = _diagonal_stats(d5, reference.x)
    assert ratio5 < 0.1
    assert beta5 < 0.05

    # large square: two distinct stable diagonal states plus a
    # higher-index symmetric parent that funnels down to them
    d50 = Domain(nx=32, ny=32, lambda2=50.0, bulk=SQUARE_BULK, boundary="planar")
    sy50 = LdGSystem(d50)
    r_d1 = minimize(sy50, seed_field(d50, "diagonal(d1)").flat, opts)
    r_d2 = minimize(sy50, seed_field(d50, "diagonal(d2)").flat, opts)
    index_d1, _, _ = classify_stationary(sy50, r_d1.x, tol_grad=1e-6)
    index_d2, _, _ = classify_stationary(sy50, r_d2.x, tol_grad=1e-6)
    assert index_d1 == 0 and index_d2 == 0
    assert np.linalg.norm(r_d1.x - r_d2.x) > 1.0  # genuinely distinct states

    def project(x):
        return symmetrize(QField.from_flat(d50, x)).flat

    sym_opts = MinimizeOptions(tol_grad=1e-8, max_iters=20000, project=project)
    r_cross = minimize(sy50, project(_cross_seed(d50)), sym_opts)
    assert float(np.abs(sy50.gradient(r_cross.x)).max()) < 1e-6
    assert np.linalg.norm(r_cross.x - project(r_cross.x)) < 1e-10
    index50, _, _ = classify_stationary(sy50, r_cross.x, tol_grad=1e-6, k_hint=3)
    assert index50 >= 2
    assert r_cross.energy > r_d1.energy
    # the parent's index never decreases as the domain grows
    assert index50 >= index5

    parent = make_record(sy50, r_cross.x, tol_grad=1e-6, k_hint=index50)
    search = SaddleOptions(tol_grad=1e-6)
    children = branch_search(sy50, parent, 1, opts=search)
    saddles1 = [c for c in children if c.morse_index == 1]
    assert saddles1
    assert all(r_d1.energy < c.energy < parent.energy for c in saddles1)
    grandchildren = branch_search(sy50, saddles1[0], 0, opts=search)
    stable_hits = [c for c in grandchildren if c.morse_index == 0]
    assert stable_hits
    assert min(
        min(np.linalg.norm(c.field - r_d1.x), np.linalg.norm(c.field - r_d2.x))
        for c in stable_hits
    ) < 0.1

    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# radial defect profile


def test_radial_profile_residual_convergence_and_bounds():
    from nematicq.hedgehog import ode_residual, solve_profile

    t0 = time.perf_counter()
    p = BulkParams(-1.0, 1.0, 1.0)
    prof = solve_profile(p, R=10.0, N=512)
    assert prof.h[0] == 0.0
    assert prof.h[-1] == prof.s_plus
    assert np.abs(ode_residual(prof, p)).max() < 1e-8
    # self-convergence order from three nested grids
    coarse = solve_profile(p, R=10.0, N=128)
    mid = solve_profile(p, R=10.0, N=256)
    e1 = np.abs(coarse.h - mid.h[::2]).max()
    e2 = np.abs(mid.h - prof.h[::2]).max()
    order = np.log2(e1 / e2)
    assert order >= 1.9
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# cross-method agreement


def test_flow_and_minimize_reach_the_same_state():
    d = Domain(nx=16, ny=16, lambda2=5.0, bulk=SQUARE_BULK, boundary="planar")
    sy = LdGSystem(d)
    f0 = seed_field(d, "random(0.1)", seed=3)
    flowed, steps = flow_to_equilibrium(f0, dt=0.5, tol_grad=1e-8)
    assert steps > 0
    minimized = minimize(sy, f0.flat, MinimizeOptions(tol_grad=1e-10, max_iters=50000))
    rel = np.linalg.norm(flowed.flat - minimized.x) / np.linalg.norm(minimized.x)
    assert rel < 1e-5
