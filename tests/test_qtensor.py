"""Pointwise tensor algebra: oracles are the matrix forms, central finite
differences, and direct stationarity residuals."""

import numpy as np
import pytest

from nematicq.errors import NoNematicRoots, ShapeMismatch
from nematicq.qtensor import (
    BulkParams,
    biaxiality,
    bulk_energy,
    bulk_energy_uniaxial,
    bulk_energy_uniaxial_deriv,
    bulk_floor,
    bulk_gradient,
    critical_points,
    frob2,
    metric_apply,
    sym_components,
    to_matrix,
    trq3,
    uniaxial_components,
)
from oracles import dual_components


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def random_rotation(gen):
    m = gen.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


P_REF = BulkParams(-1.0, 1.0, 1.0)


def test_matrix_roundtrip_traceless_symmetric():
    gen = rng(1)
    q = gen.normal(size=(40, 5))
    m = to_matrix(q)
    assert np.allclose(m, np.swapaxes(m, -1, -2))
    assert np.allclose(np.trace(m, axis1=-2, axis2=-1), 0.0, atol=1e-15)
    assert np.allclose(sym_components(m), q)


def test_frob2_and_trq3_match_matrix_invariants():
    gen = rng(2)
    q = gen.normal(size=(200, 5))
    m = to_matrix(q)
    f2 = np.einsum("nij,nij->n", m, m)
    t3 = np.trace(m @ m @ m, axis1=-2, axis2=-1)
    assert np.allclose(frob2(q), f2, rtol=1e-13, atol=1e-13)
    assert np.allclose(trq3(q), t3, rtol=1e-12, atol=1e-12)
    assert np.allclose(np.einsum("nk,nk->n", q, metric_apply(q)), f2)


def test_bulk_energy_examples():
    z = np.zeros(5)
    assert bulk_energy(z, P_REF) == 0.0
    q = uniaxial_components(1.0, np.array([0.0, 0.0, 1.0]))
    assert abs(bulk_energy(q, P_REF) - (-8.0 / 27.0)) < 1e-14
    # uniaxial restriction agrees with the full density on the uniaxial slice
    s = np.linspace(-2, 2, 41)
    qs = uniaxial_components(s, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(bulk_energy(qs, P_REF), bulk_energy_uniaxial(s, P_REF), atol=1e-13)


def test_bulk_energy_rotation_invariant_100():
    gen = rng(3)
    q = gen.normal(size=5)
    e0 = bulk_energy(q, P_REF)
    for _ in range(100):
        r = random_rotation(gen)
        qr = sym_components(r @ to_matrix(q) @ r.T)
        assert abs(bulk_energy(qr, P_REF) - e0) <= 1e-12 * max(1.0, abs(e0))


def test_bulk_gradient_matches_central_fd_100():
    gen = rng(4)
    for _ in range(100):
        q = gen.normal(size=5)
        p = BulkParams(gen.uniform(-2, 2), gen.uniform(0.2, 3), gen.uniform(0.2, 3))
        g = bulk_gradient(q, p)
        fd = np.empty(5)
        delta = 1e-6 * max(1.0, np.abs(q).max())
        for k in range(5):
            e = np.zeros(5)
            e[k] = delta
            fd[k] = (bulk_energy(q + e, p) - bulk_energy(q - e, p)) / (2 * delta)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def matrix_form_bulk_gradient(q, p):
    """Oracle: T = a Q - b (Q^2 - |Q|^2/3 I) + c |Q|^2 Q, contracted to components."""
    m = to_matrix(q)
    f2 = frob2(q)[..., None, None]
    t = p.a * m - p.b * (m @ m - (f2 / 3.0) * np.eye(3)) + p.c * f2 * m
    return dual_components(t)


@pytest.mark.parametrize("shape", [(5,), (16, 16, 5), (7, 16, 16, 5)])
def test_closed_form_bulk_gradient_matches_matrix_form(shape):
    gen = rng(6)
    for scale in (1e-3, 1.0, 1e3):
        q = scale * gen.normal(size=shape)
        p = BulkParams(gen.uniform(-2, 2), gen.uniform(0.2, 3), gen.uniform(0.2, 3))
        g, oracle = bulk_gradient(q, p), matrix_form_bulk_gradient(q, p)
        assert g.shape == shape
        assert np.abs(g - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_dual_components_is_gradient_contraction():
    gen = rng(5)
    t = gen.normal(size=(3, 3))
    t = 0.5 * (t + t.T)
    # differentiating q -> sum_ij T_ij Q_ij must give dual_components(T)
    g = dual_components(t)
    q0 = gen.normal(size=5)
    for k in range(5):
        e = np.zeros(5)
        e[k] = 1e-6
        fp = np.sum(t * to_matrix(q0 + e))
        fm = np.sum(t * to_matrix(q0 - e))
        assert abs((fp - fm) / 2e-6 - g[k]) < 1e-8


@pytest.mark.parametrize(
    "p",
    [BulkParams(-2.0 / 3.0, 2.0, 2.0), BulkParams(1.0 / 27.0, 1.0, 1.0), BulkParams(1.0, 0.5, 2.0), BulkParams(-1.0, 0.0, 1.0)],
)
def test_bulk_floor_is_the_global_minimum(p):
    floor = bulk_floor(p)
    # attained on the uniaxial family, at s = 0 or a real root of 2c s^2 - b s + 3a
    roots = np.roots([2.0 * p.c, -p.b, 3.0 * p.a])
    s = np.append(roots[np.isreal(roots)].real, 0.0)
    assert floor == pytest.approx(float(np.min(bulk_energy_uniaxial(s, p))), abs=1e-14)
    # and no tensor lies below it
    q = rng(8).normal(size=(4000, 5)) * rng(9).uniform(0.0, 2.0, size=(4000, 1))
    assert bulk_energy(q, p).min() >= floor - 1e-14


class TestCriticalPoints:
    def test_reference_roots(self):
        cs = critical_points(P_REF)
        assert sorted([cs.s_plus, cs.s_minus]) == pytest.approx([-1.0, 1.5], abs=1e-12)
        assert cs.s_plus == pytest.approx(1.5, abs=1e-12)
        assert cs.regime == "deep_nematic"
        assert cs.stability["s_plus"] == "global_min"

    def test_supercooling_roots(self):
        cs = critical_points(BulkParams(0.0, 1.0, 1.0))
        assert sorted([cs.s_minus, cs.s_plus]) == pytest.approx([0.0, 0.5], abs=1e-12)
        assert cs.s_plus == pytest.approx(0.5)

    def test_stationarity_residual_random(self):
        gen = rng(6)
        checked = 0
        while checked < 200:
            a = gen.uniform(-3, 3)
            b = gen.uniform(0.1, 4)
            c = gen.uniform(0.1, 4)
            if b * b - 24 * a * c < 0:
                continue
            p = BulkParams(a, b, c)
            cs = critical_points(p)
            for s in (cs.s_plus, cs.s_minus):
                scale = abs(a * s) + b * s * s + c * abs(s) ** 3 + 1.0
                assert abs(bulk_energy_uniaxial_deriv(s, p)) <= 1e-10 * scale
            checked += 1

    def test_no_roots_raises(self):
        with pytest.raises(NoNematicRoots):
            critical_points(BulkParams(1.0, 1.0, 1.0))  # b^2 - 24ac = -23

    def test_critical_temperatures(self):
        b, c, slope, t_star = 2.0, 3.0, 0.5, 100.0
        p = BulkParams(slope * (99.0 - t_star), b, c, slope, t_star)
        assert p.a == pytest.approx(-0.5)
        cs = critical_points(p)
        assert cs.t_c == pytest.approx(b * b / (27.0 * slope * c) + t_star, rel=1e-14)
        assert cs.t_ii == pytest.approx(b * b / (24.0 * slope * c) + t_star, rel=1e-14)
        assert cs.t_ii > cs.t_c > t_star

    def test_regime_labels_follow_table(self):
        b = c = 1.0
        a_c = 1.0 / 27.0
        a_ii = 1.0 / 24.0
        assert critical_points(BulkParams(0.5 * a_c, b, c)).stability == {
            "s_zero": "local_min",
            "s_minus": "unstable",
            "s_plus": "global_min",
        }
        mid = critical_points(BulkParams(0.5 * (a_c + a_ii), b, c))
        assert mid.stability["s_zero"] == "global_min"
        assert mid.stability["s_plus"] == "local_min"
        with pytest.raises(NoNematicRoots):
            critical_points(BulkParams(a_ii * 1.01, b, c))

    def test_coexistence_and_superheating_limit(self):
        # b = c = 1: a_c = 1/27, where the nematic minimum ties the isotropic
        # one, and a_ii = 1/24, where the two nematic roots merge at b/4c
        cs = critical_points(BulkParams(1.0 / 27.0, 1.0, 1.0))
        assert cs.regime == "coexistence"
        assert cs.stability == {"s_zero": "global_min", "s_minus": "unstable", "s_plus": "global_min"}
        assert cs.energies["s_plus"] == pytest.approx(0.0, abs=1e-15)
        cs = critical_points(BulkParams(1.0 / 24.0, 1.0, 1.0))
        assert cs.regime == "superheating_limit" and cs.discriminant == 0.0
        assert cs.s_plus == cs.s_minus == 0.25
        assert cs.stability == {"s_zero": "global_min", "s_minus": "marginal", "s_plus": "marginal"}

    def test_needs_positive_b(self):
        with pytest.raises(ShapeMismatch, match="strictly positive b and c"):
            critical_points(BulkParams(-1.0, 0.0, 1.0))

    def test_bad_params_rejected(self):
        with pytest.raises(ShapeMismatch):
            BulkParams(0.0, -1.0, 1.0)
        with pytest.raises(ShapeMismatch):
            BulkParams(np.nan, 1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, 1.0), (-1.0, 0.0), (-1e-300, 0.0)])
    def test_a_bulk_not_bounded_below_is_refused(self, a, b):
        # with c = 0 the density is cubic (b > 0) or a downward quadratic
        # (b = 0, a < 0) along the uniaxial family
        with pytest.raises(ShapeMismatch, match="bounded below"):
            BulkParams(a, b, 0.0)

    @pytest.mark.parametrize("a", [0.0, 0.7])
    def test_quadratic_only_bulk_is_accepted(self, a):
        p = BulkParams(a, 0.0, 0.0)
        assert (p.a, p.b, p.c) == (a, 0.0, 0.0)


class TestBiaxiality:
    def test_uniaxial_is_zero(self):
        gen = rng(7)
        for _ in range(1000):
            s = gen.uniform(-2, 2)
            n = gen.normal(size=3)
            n /= np.linalg.norm(n)
            q = uniaxial_components(s, n)
            assert biaxiality(q) < 1e-10

    def test_maximal_biaxial_is_one(self):
        # eigenvalues (lam, -lam, 0): tr Q^3 = 0 exactly
        q = sym_components(np.diag([0.7, -0.7, 0.0]))
        assert biaxiality(q) == pytest.approx(1.0, abs=1e-14)

    def test_zero_tensor_convention(self):
        assert biaxiality(np.zeros(5)) == 0.0
        assert biaxiality(1e-9 * np.ones(5)) == 0.0  # below the norm floor

    def test_range_on_1e4_random(self):
        gen = rng(8)
        q = gen.normal(size=(10_000, 5))
        beta = biaxiality(q)
        assert np.all(beta >= 0.0) and np.all(beta <= 1.0)
