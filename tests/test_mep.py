"""String method on analytic potentials with known minimal energy paths."""

import importlib

import numpy as np
import pytest

from nematicq.energy import LdGSystem
from nematicq.errors import (
    DegeneratePath,
    NotIndexOne,
    NotStationary,
    ShapeMismatch,
    ValidationError,
)
from nematicq.field import Domain, QField, seed_field
from nematicq.mep import (
    Path,
    _chords,
    _normal,
    _refine_ts,
    _spread,
    _tangents,
    evolve_step,
    find_mep,
    perpendicular_residual,
    reparametrize,
)
from nematicq.minimize import MinimizeOptions, minimize
from nematicq.qtensor import BulkParams
from nematicq.spectrum import operator_scale
from nematicq.systems import System, make_rng
from nematicq.toys import DoubleWell2D, Quartic2D


class CurvedWell(System):
    """E = (x^2-1)^2 + 5 (y - x^2/2)^2: minima (+-1, 1/2), saddle (0, 0).

    The minimal path follows the curved valley y = x^2/2, so the string
    genuinely has to iterate (unlike the axis-aligned toy wells).
    """

    n = 2

    def energy(self, x):
        return float((x[0] ** 2 - 1.0) ** 2 + 5.0 * (x[1] - 0.5 * x[0] ** 2) ** 2)

    def gradient(self, x):
        dev = x[1] - 0.5 * x[0] ** 2
        return np.array(
            [4.0 * x[0] * (x[0] ** 2 - 1.0) - 10.0 * x[0] * dev, 10.0 * dev]
        )


def straight_path(system, a, b, n):
    frac = np.linspace(0.0, 1.0, n)[:, None]
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return Path.from_nodes(system, (1.0 - frac) * a + frac * b)


class TestPath:
    def test_alpha_from_cumulative_chords(self):
        p = Path.from_nodes(DoubleWell2D(), [[0.0, 0.0], [0.9, 0.0], [1.0, 0.0]])
        assert np.allclose(p.alpha, [0.0, 0.9, 1.0])
        assert p.alpha[0] == 0.0 and p.alpha[-1] == 1.0
        assert abs(p.chord_spread() - 1.6) < 1e-12

    def test_degenerate_and_small_paths_raise(self):
        with pytest.raises(DegeneratePath):
            Path.from_nodes(DoubleWell2D(), np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            Path.from_nodes(DoubleWell2D(), np.zeros((2, 2)))


class TestEvolve:
    def test_stationary_path_unchanged(self):
        sy = DoubleWell2D()
        p = straight_path(sy, [-1.0, 0.0], [1.0, 0.0], 3)  # middle node is the saddle
        out = evolve_step(p, base_step=0.1)
        assert np.array_equal(out.nodes, p.nodes)

    def test_off_axis_node_moves_toward_axis(self):
        sy = DoubleWell2D()
        p = Path.from_nodes(sy, [[-1.0, 0.0], [0.3, 0.4], [1.0, 0.0]])
        out = evolve_step(p, base_step=0.05)
        assert abs(out.nodes[1, 1]) < 0.4
        assert np.array_equal(out.nodes[0], p.nodes[0])
        assert np.array_equal(out.nodes[-1], p.nodes[-1])

    def test_backtracked_descent_never_raises_energy(self):
        sy = Quartic2D()
        gen = make_rng(4, "test:mep:evolve")
        nodes = gen.normal(size=(10, 2))
        p = Path.from_nodes(sy, nodes)
        out = evolve_step(p, base_step=2.0)  # deliberately too large
        assert np.all(out.energies <= p.energies + 1e-12)

    @pytest.mark.parametrize("base_step", [np.nan, np.inf, -np.inf, 0.0])
    def test_nonfinite_or_zero_step_is_rejected(self, base_step):
        p = Path.from_nodes(DoubleWell2D(), [[-1.0, 0.0], [0.3, 0.4], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            evolve_step(p, base_step)


class CountingWell(DoubleWell2D):
    def __init__(self):
        self.n_grad = 0
        self.n_energy = 0

    def energy(self, x):
        self.n_energy += 1
        return super().energy(x)

    def gradient(self, x):
        self.n_grad += 1
        return super().gradient(x)


def test_one_sweep_evaluates_each_interior_gradient_once():
    sy = CountingWell()
    p = Path.from_nodes(sy, [[x, 0.3 * (1.0 - x * x)] for x in np.linspace(-1.0, 1.0, 9)])
    residual = perpendicular_residual(p)
    out = evolve_step(p, base_step=0.1)
    assert sy.n_grad == p.n_nodes - 2
    plain = DoubleWell2D()
    fresh = Path.from_nodes(plain, p.nodes)
    assert residual == perpendicular_residual(fresh)
    assert np.array_equal(out.nodes, evolve_step(fresh, base_step=0.1).nodes)


class RowByRow(System):
    """Forwards energy, gradient and the metric only, so the base-class
    block loops run in the same metric as the wrapped system."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def energy(self, x):
        return self.inner.energy(x)

    def gradient(self, x):
        return self.inner.gradient(x)

    def preconditioner(self):
        return self.inner.preconditioner()


def domain_8x8() -> Domain:
    return Domain(nx=8, ny=8, lambda2=27.0, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")


def ldg_path_8x8(fold: bool) -> Path:
    """Noisy straight string between the diagonal states on an 8 x 8 grid;
    with ``fold`` node 4 repeats node 2, so node 3 has a zero chord."""
    d = domain_8x8()
    a = seed_field(d, "diagonal(d1)").flat
    b = seed_field(d, "diagonal(d2)").flat
    frac = np.linspace(0.0, 1.0, 7)[:, None]
    nodes = (1.0 - frac) * a + frac * b + 0.05 * make_rng(3, "test:mep:batch").normal(size=(7, a.size))
    if fold:
        nodes[4] = nodes[2]
    return Path.from_nodes(LdGSystem(d), nodes)


@pytest.mark.parametrize("fold", [False, True])
def test_batched_sweep_equals_row_by_row(fold):
    batched = ldg_path_8x8(fold)
    looped = Path.from_nodes(RowByRow(batched.system), batched.nodes)
    assert np.array_equal(looped.energies, batched.energies)
    assert perpendicular_residual(looped) == perpendicular_residual(batched)
    # 8 times the stable step 1/ρ(M⁻¹H) at the middle node: nodes halve it 2 or 3 times
    sy, mid = batched.system, batched.nodes[batched.n_nodes // 2]
    base = 8.0 / operator_scale(lambda w: sy.preconditioner().solve(sy.hessian_vec(mid, w)), mid.size)
    out, ref = evolve_step(batched, base), evolve_step(looped, base)
    for name in ("nodes", "energies", "alpha"):
        assert np.array_equal(getattr(out, name), getattr(ref, name))
    # the fused block pass at the resampled nodes against the base-class
    # default, the two row-by-row loops
    rep, rep_ref = reparametrize(out), reparametrize(ref)
    assert rep is not out
    for name in ("nodes", "energies", "alpha", "gradients"):
        assert np.array_equal(getattr(rep, name), getattr(rep_ref, name))
    assert np.array_equal(rep.gradients, batched.system.gradients(rep.nodes[1:-1]))
    # a path's kept chords are those of its nodes
    for p in (out, ref, rep, rep_ref):
        assert p.chord_spread() == _spread(_chords(p.nodes))
        assert np.array_equal(p.chords, _chords(p.nodes))
    g, tangent = batched.gradients, _tangents(batched.nodes)
    pg = _normal(g, tangent)
    d = g + _normal(batched.system.preconditioner().solve(pg.T).T - pg, tangent)
    moved = np.linalg.norm(out.nodes[1:-1] - batched.nodes[1:-1], axis=1)
    halvings = np.round(np.log2(base * np.linalg.norm(d, axis=1) / moved))
    assert halvings.min() >= 1 and np.unique(halvings).size > 1


@pytest.mark.parametrize(
    "system, nodes",
    [
        (CurvedWell(), [[-1.0, 0.5], [-0.4, 0.3], [0.1, 0.2], [0.5, 0.3], [1.0, 0.5]]),
        (DoubleWell2D(), [[-1.0, 0.0], [-0.3, 0.4], [0.3, 0.2], [-0.3, 0.4], [1.0, 0.0]]),
    ],
)
def test_euclidean_systems_step_along_the_gradient(system, nodes):
    # no preconditioner: M = I, so every node moves by exactly -step g_i
    # (nodes 1 and 3 of the double-well string coincide, so node 2 has a zero chord)
    p = Path.from_nodes(system, nodes)
    step = 1e-3  # small enough that no node halves it
    out = evolve_step(p, step)
    assert np.array_equal(out.nodes[1:-1], p.nodes[1:-1] - step * p.gradients)


def test_zero_chord_counts_the_whole_gradient():
    sy = DoubleWell2D()
    p = Path.from_nodes(sy, [[0.5, 0.2], [0.3, 0.4], [0.5, 0.2]])
    assert perpendicular_residual(p) == np.abs(sy.gradient(p.nodes[1])).max()


class CountingLdG(LdGSystem):
    """Logs each block evaluation: (method, a copy of the rows)."""

    def __init__(self, domain):
        super().__init__(domain)
        self.log = []

    def energies(self, xs):
        self.log.append(("energies", np.array(xs)))
        return super().energies(xs)

    def gradients(self, xs):
        self.log.append(("gradients", np.array(xs)))
        return super().gradients(xs)

    def energies_gradients(self, xs):
        self.log.append(("energies_gradients", np.array(xs)))
        return super().energies_gradients(xs)


def test_string_evaluates_each_resampled_node_in_one_fused_pass(monkeypatch):
    # the 8 x 8 diagonal-to-diagonal string: only the start path's interior
    # gradients are evaluated on their own; every reparametrization that
    # moves nodes evaluates them in one energies_gradients call
    mep = importlib.import_module("nematicq.mep")
    moved = []
    original = mep.reparametrize

    def recorded(p):
        out = original(p)
        moved.append(out is not p)
        return out

    monkeypatch.setattr(mep, "reparametrize", recorded)
    _, (a, b) = ldg_string_ends(8)
    sy = CountingLdG(domain_8x8())
    n_nodes = 16
    res = find_mep(a, b, n_nodes=n_nodes, tol=1e-4, ts_tol=1e-4, system=sy)
    assert res.sweeps >= 1 and sum(moved) >= 1
    assert sum(len(xs) for name, xs in sy.log if name == "gradients") == n_nodes - 2
    assert sum(name == "energies_gradients" for name, _ in sy.log) == sum(moved)
    for (first, xs), (second, ys) in zip(sy.log, sy.log[1:]):
        assert not (first == "energies" and second == "gradients" and np.array_equal(xs, ys))


def test_repeated_node_is_dropped_by_the_resample():
    p = Path.from_nodes(DoubleWell2D(), [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [1.0, 0.0]])
    out = reparametrize(p)
    assert np.abs(out.nodes[:, 0] - [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]).max() < 1e-15
    assert out.chord_spread() == _spread(_chords(out.nodes)) < 1e-8


class TestReparametrize:
    def test_uniform_straight_line_unchanged(self):
        sy = DoubleWell2D()
        p = straight_path(sy, [-1.0, 0.0], [1.0, 0.0], 9)
        out = reparametrize(p)
        assert np.abs(out.nodes - p.nodes).max() < 1e-12

    def test_collinear_middle_node_moves_to_half(self):
        sy = DoubleWell2D()
        p = Path.from_nodes(sy, [[0.0, 0.0], [0.9, 0.0], [1.0, 0.0]])
        out = reparametrize(p)
        assert np.abs(out.nodes[1] - [0.5, 0.0]).max() < 1e-12

    def test_curved_path_reaches_uniform_chords(self):
        sy = DoubleWell2D()
        t = np.linspace(0.0, 1.0, 21) ** 2  # deliberately uneven
        nodes = np.column_stack([2.0 * t - 1.0, np.sin(np.pi * t)])
        p = Path.from_nodes(sy, nodes)
        out = reparametrize(p)
        assert out.chord_spread() < 1e-8
        assert np.array_equal(out.nodes[0], nodes[0])
        assert np.array_equal(out.nodes[-1], nodes[-1])

    def test_endpoint_energies_are_kept(self):
        sy = CountingWell()
        t = np.linspace(0.0, 1.0, 10) ** 2
        p = Path.from_nodes(sy, np.column_stack([2.0 * t - 1.0, 0.5 * np.sin(np.pi * t)]))
        sy.n_energy = 0
        out = reparametrize(p)
        assert sy.n_energy == p.n_nodes - 2
        assert np.abs(out.nodes - p.nodes).max() > 0.01
        for k in (0, -1):
            assert np.array_equal(out.nodes[k], p.nodes[k])
            assert out.energies[k] == p.energies[k]


class TestFindMep:
    @pytest.mark.parametrize("n_nodes, tol", [(16, 1e-8), (8, 1e-6)])
    def test_double_well_axis_path(self, n_nodes, tol):
        # the 8-node string's top node is far from stationary (|g|inf 0.56);
        # the climb certifies the transition state regardless
        res = find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=n_nodes, tol=tol, system=DoubleWell2D())
        assert np.abs(res.ts_field).max() < 1e-8
        assert abs(res.barrier_forward - 1.0) < 1e-8
        assert abs(res.barrier_backward - 1.0) < 1e-8
        assert res.ts_lambda1 < 0
        assert np.abs(res.path.nodes[:, 1]).max() == 0.0  # the axis is invariant
        assert res.path.nodes[res.ts_index, 0] == res.path.nodes[:, 0][np.argmax(res.path.energies)]

    def test_quartic_edge_path(self):
        res = find_mep([-1.0, -1.0], [-1.0, 1.0], n_nodes=12, tol=1e-8, system=Quartic2D())
        assert np.abs(res.ts_field - [-1.0, 0.0]).max() < 1e-7
        assert abs(res.barrier_forward - 1.0) < 1e-6
        assert abs(res.barrier_backward - 1.0) < 1e-6

    def test_curved_valley_requires_iteration(self):
        # the string residual floors out at the resolution/step limit, so
        # the tolerance is coarse; the refined transition state is not
        sy = CurvedWell()
        res = find_mep([-1.0, 0.5], [1.0, 0.5], n_nodes=24, tol=0.15, system=sy)
        assert np.abs(res.ts_field).max() < 1e-6
        assert abs(res.barrier_forward - 1.0) < 1e-6
        assert abs(res.barrier_backward - 1.0) < 1e-6
        assert res.ts_lambda1 < 0
        p = res.path
        assert perpendicular_residual(p) < 0.15
        assert p.chord_spread() < 1e-8
        # interior nodes follow the valley between the wells and the saddle
        assert np.all(p.nodes[1:-1, 1] > -0.05) and np.all(p.nodes[1:-1, 1] < 0.55)
        # unimodal energy profile: the sign of the difference flips once
        diff_sign = np.sign(np.diff(p.energies))
        flips = np.sum(np.abs(np.diff(diff_sign[diff_sign != 0.0])) > 0)
        assert flips == 1
        # endpoints preserved bit-identically
        assert np.array_equal(p.nodes[0], [-1.0, 0.5])
        assert np.array_equal(p.nodes[-1], [1.0, 0.5])

    def test_nonstationary_endpoint_rejected(self):
        with pytest.raises(NotStationary):
            find_mep([-0.5, 0.0], [1.0, 0.0], n_nodes=8, tol=1e-8, system=DoubleWell2D())

    def test_plain_array_endpoints_need_a_system(self):
        with pytest.raises(ValidationError, match="explicit system"):
            find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=8, tol=1e-6)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValidationError):
            find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=5, tol=1e-6, system=DoubleWell2D())

    def test_endpoints_on_different_grids_raise_shape_mismatch(self):
        bulk = BulkParams(-1.0 / 3.0, 1.0, 1.0)
        a, b = (QField.zeros(Domain(nx=n, ny=n, lambda2=5.0, bulk=bulk, boundary="zero")) for n in (8, 9))
        with pytest.raises(ShapeMismatch, match=r"\(405,\)"):
            find_mep(a, b)

    def test_qfield_endpoints_share_a_minimum(self):
        d = Domain(nx=5, ny=5, lambda2=5.0, bulk=BulkParams(-1.0, 1.0, 1.0))
        sy = LdGSystem(d)
        res = minimize(sy, seed_field(d, "random(0.3)", seed=5).flat, MinimizeOptions(tol_grad=1e-11))
        q = sy.field(res.x)
        with pytest.raises(DegeneratePath):
            find_mep(q, q, n_nodes=8, tol=1e-6)


class Unevaluable(DoubleWell2D):
    """A double well that fails the test if it is ever evaluated."""

    def energy(self, x):
        raise AssertionError("energy evaluated")

    def gradient(self, x):
        raise AssertionError("gradient evaluated")


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", ["tol", "ts_tol"])
def test_unusable_tolerance_raises_before_any_work(name, bad):
    with pytest.raises(ValidationError):
        find_mep([-1.0, 0.0], [1.0, 0.0], n_nodes=8, system=Unevaluable(), **{name: bad})


class TestTransitionStateHelpers:
    def test_refine_rejects_index_two(self):
        with pytest.raises(NotIndexOne):
            _refine_ts(Quartic2D(), np.zeros(2), np.array([1.0, 0.0]), 1e-8)

    def test_refine_returns_index_one_record(self):
        # a start direction off the unstable x mode is relaxed onto it
        record = _refine_ts(Quartic2D(), np.array([0.0, 1.0]), np.array([1.0, 0.2]), 1e-8)
        assert record.morse_index == 1
        assert record.lambda_spectrum[0] < 0

    def test_climb_solves_only_for_its_certificate(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        record = _refine_ts(DoubleWell2D(), np.array([0.1, 0.05]), np.array([1.0, 0.0]), 1e-8)
        assert record.morse_index == 1 and record.iterations > 1
        # V starts at the given direction and the dynamics track it; the
        # one eigensolve is the certificate
        assert len(calls) == 1

    def test_refine_raises_when_climb_lands_on_minimum(self):
        # started along the soft y mode at (0.9, 0), the climb slides to
        # the minimum (1, 0) and must report the failure
        with pytest.raises(NotIndexOne):
            _refine_ts(DoubleWell2D(), np.array([0.9, 0.0]), np.array([0.0, 1.0]), 1e-8)


def count_eigensolves(monkeypatch) -> list:
    """Record the arguments of every hisd.smallest_eigs call from now on."""
    hisd = importlib.import_module("nematicq.hisd")
    calls = []
    original = hisd.smallest_eigs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hisd, "smallest_eigs", counted)
    return calls


def ldg_string_ends(n: int, lambda2: float = 27.0):
    d = Domain(nx=n, ny=n, lambda2=lambda2, bulk=BulkParams(-2.0 / 3.0, 2.0, 2.0), boundary="planar")
    sy = LdGSystem(d)
    opts = MinimizeOptions(tol_grad=1e-9, max_iters=20000)
    return sy, [minimize(sy, seed_field(d, spec).flat, opts).x for spec in ("diagonal(d1)", "diagonal(d2)")]


def test_preconditioned_sweeps_do_not_grow_with_the_grid():
    # the diagonal-to-diagonal string at 16^2 and 32^2: the sweeps stay
    # flat and few (25 at 16^2 in the old bulk-scaled metric), the
    # barriers match their grids and both tops are certified
    sweeps = []
    for n, barrier in ((16, 0.01209), (32, 0.012212)):
        sy, (a, b) = ldg_string_ends(n)
        res = find_mep(a, b, n_nodes=32, tol=1e-4, ts_tol=1e-4, system=sy)
        assert abs(res.barrier_forward - barrier) < 1e-4
        assert abs(res.barrier_backward - barrier) < 1e-4
        assert res.ts_lambda1 < 0.0
        sweeps.append(res.sweeps)
    assert sweeps[1] <= sweeps[0] <= 10


def test_tight_climb_ends_in_a_few_newton_steps(monkeypatch):
    # the 16^2 diagonal-to-diagonal string climbed to 1e-8: the saddle
    # dynamics alone took 572 steps to this barrier; the Newton endgame
    # finishes the climb in a few steps and lands on the same barrier,
    # to 1e-12 in the flow metric M = L1 and in the old bulk-scaled one
    mep = importlib.import_module("nematicq.mep")
    records = []
    original = mep.find_saddle

    def recorded(*args, **kwargs):
        records.append(original(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(mep, "find_saddle", recorded)
    sy, (a, b) = ldg_string_ends(16)
    res = find_mep(a, b, n_nodes=32, tol=1e-4, ts_tol=1e-8, system=sy)
    (ts,) = records
    assert 1 <= ts.newton_steps <= 10 and ts.grad_inf < 1e-8
    assert abs(res.barrier_forward - 0.0121076853848) <= 1e-12
    assert res.ts_lambda1 < 0.0


@pytest.mark.parametrize("case", ["double_well", "ldg16"])
def test_whole_string_makes_one_eigensolve(case, monkeypatch):
    # the climb starts along the string's chord at its top node, so the
    # transition state's certificate is the only eigensolve of find_mep
    if case == "double_well":
        system, (a, b), kw = DoubleWell2D(), ([-1.0, 0.0], [1.0, 0.0]), dict(n_nodes=16, tol=1e-8)
    else:
        system, (a, b) = ldg_string_ends(16)
        kw = dict(n_nodes=32, tol=1e-4, ts_tol=1e-4)
    calls = count_eigensolves(monkeypatch)
    res = find_mep(a, b, system=system, **kw)
    assert len(calls) == 1
    assert np.array_equal(calls[0][1], res.ts_field)
    assert res.ts_lambda1 < 0.0


def test_transition_state_certificate_iterations(monkeypatch):
    # the 16^2 diagonal-to-diagonal top's k = 3 certificate: at most 13
    # LOBPCG iterations (16 with the unshifted metric)
    hisd = importlib.import_module("nematicq.hisd")
    reports = []
    original = hisd.smallest_eigs

    def recorded(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(hisd, "smallest_eigs", recorded)
    system, (a, b) = ldg_string_ends(16)
    res = find_mep(a, b, n_nodes=32, tol=1e-4, ts_tol=1e-4, system=system)
    (rep,) = reports
    assert rep.eigenvalues.shape == (3,) and rep.morse_index == 1
    assert res.ts_lambda1 == rep.eigenvalues[0] < 0.0
    assert 0 < rep.iterations <= 13


def test_symmetric_ridge_trap_is_reported():
    # at lambda2 = 50 the straight string between the diagonal states keeps
    # their mirror symmetry and rides the index-2 ridge through the
    # symmetric midpoint state; the climb's certificate must say so
    system, (a, b) = ldg_string_ends(16, 50.0)
    with pytest.raises(NotIndexOne, match="Morse index 2"):
        find_mep(a, b, n_nodes=16, tol=2e-3, ts_tol=1e-6, system=system)
