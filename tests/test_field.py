"""Domain construction, boundary data, seeds and square symmetry."""

import numpy as np
import pytest

from nematicq.energy import LdGSystem, elastic_apply, free_energy
from nematicq.errors import NoNematicRoots, ShapeMismatch
from nematicq.field import Domain, QField, d4_actions, seed_field, square_symmetry_orbit, symmetrize
from nematicq.qtensor import BulkParams, to_matrix
from nematicq.systems import make_rng
from oracles import elastic_form, square_images, uniaxial_reading

BULK = BulkParams(-1.0 / 3.0, 1.0, 1.0)


def make_domain(n=6, lambda2=5.0, **kw):
    return Domain(nx=n, ny=n, lambda2=lambda2, bulk=BULK, **kw)


def test_domain_validation():
    with pytest.raises(ShapeMismatch):
        Domain(nx=3, ny=8, lambda2=1.0, bulk=BULK)
    with pytest.raises(ShapeMismatch):
        Domain(nx=8, ny=8, lambda2=-1.0, bulk=BULK)
    with pytest.raises(ShapeMismatch):
        Domain(nx=8, ny=8, lambda2=1.0, bulk=BULK, boundary="weird")
    # a NaN or infinite l2/l3 would make every energy NaN, and minimize
    # would blame the field instead
    for l2, l3 in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5)):
        with pytest.raises(ShapeMismatch, match="l2 and l3 must be finite"):
            Domain(nx=8, ny=8, lambda2=1.0, bulk=BULK, l2=l2, l3=l3)


@pytest.mark.parametrize(
    "l2, l3",
    [(1.0, 0.0), (-1.0, 0.0), (-2.0, 0.6), (1.0, -2.4), (-0.7, -0.7), (-1.45, 0.0), (-1.49, 0.0)]
    + [(-1.55, 0.0), (-1.6, 0.0), (0.0, -2.0), (-3.0, 0.0), (-1.0, -2.0)],
)
def test_domain_refuses_exactly_the_elastic_forms_that_are_not_positive(l2, l3):
    # the discrete form (planar walls, 16^2) depends on l2 + l3 alone and
    # loses positivity just below the in-plane Legendre-Hadamard bound
    # l2 + l3 > -3/2; between -3/2 and -1.51 the 16^2 grid does not yet
    # resolve the plane wave that does (see the next test)
    grid = make_domain(16, boundary="planar")
    lowest = np.linalg.eigvalsh(elastic_form(grid, l2, l3))[0]
    if lowest > 0.0:
        Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK, l2=l2, l3=l3, boundary="planar")
    else:
        with pytest.raises(ShapeMismatch, match="-3/2"):
            Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK, l2=l2, l3=l3, boundary="planar")


def test_domain_refuses_the_bound_itself():
    # at l2 + l3 = -3/2 the continuum form has a null plane wave; the 16^2
    # form is still positive (1.2e-2), the 24^2 form's lowest is 2.8e-3
    grid = make_domain(16, boundary="planar")
    assert 0.0 < np.linalg.eigvalsh(elastic_form(grid, -1.5, 0.0))[0] < 0.02
    for l2, l3 in ((-1.5, 0.0), (0.0, -1.5), (-0.75, -0.75)):
        with pytest.raises(ShapeMismatch, match="l2 \\+ l3 must be above -3/2"):
            Domain(nx=16, ny=16, lambda2=5.0, bulk=BULK, l2=l2, l3=l3)


def test_elastic_form_oracle_is_the_elastic_apply():
    d = Domain(nx=6, ny=7, lambda2=5.0, bulk=BULK, l2=-0.7, l3=0.3, boundary="planar")
    dense = elastic_apply(d, np.eye(d.n_dof))
    assert np.abs(elastic_form(d, -0.7, 0.3) - dense).max() <= 1e-13 * np.abs(dense).max()


def test_grid_geometry():
    d = Domain(nx=5, ny=9, lambda2=1.0, bulk=BULK, boundary="zero")
    assert d.hx == pytest.approx(1.0 / 6.0)
    assert d.hy == pytest.approx(1.0 / 10.0)
    assert d.xs[0] == pytest.approx(d.hx) and d.xs[-1] == pytest.approx(1.0 - d.hx)
    assert d.n_dof == 5 * 5 * 9


def test_s_plus_for_deep_nematic_bulk():
    assert make_domain().s_plus == pytest.approx(1.0, abs=1e-14)


def test_tangent_ring_structure():
    d = make_domain(n=6)
    ring = d.ring
    s = d.s_plus
    # bottom edge: director along x
    kind, s_edge, director = uniaxial_reading(ring[3, 0])
    assert kind == "uniaxial"
    assert s_edge == pytest.approx(s, abs=1e-12)
    assert abs(director @ np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    # left edge: director along y
    _, _, director = uniaxial_reading(ring[0, 3])
    assert abs(director @ np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    # corners: traceless average of the adjacent edge tensors
    corner = ring[0, 0]
    assert corner == pytest.approx(0.5 * (ring[3, 0] + ring[0, 3]))
    assert abs(np.trace(to_matrix(corner))) < 1e-15
    # interior of the frame array is zero
    assert not ring[1:-1, 1:-1].any()


def test_planar_ring_structure():
    d = make_domain(n=6, boundary="planar")
    ring = d.ring
    s = d.s_plus
    # bottom edge: in-plane traceless with the long axis along x and Q33 = 0
    Q = to_matrix(ring[3, 0])
    assert Q == pytest.approx(np.diag([s / 2.0, -s / 2.0, 0.0]))
    # left edge: same data rotated by 90 degrees
    Q = to_matrix(ring[0, 3])
    assert Q == pytest.approx(np.diag([-s / 2.0, s / 2.0, 0.0]))
    # opposite edges cancel exactly at the corners
    for ij in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        assert not ring[ij].any()
    assert not ring[1:-1, 1:-1].any()


def test_boundary_callable_and_zero():
    qc = np.array([0.1, 0.02, 0.0, -0.04, 0.0])

    def bc(x, y):
        return np.broadcast_to(qc, x.shape + (5,)).copy()

    d = make_domain(boundary=bc)
    assert d.ring[0, 3] == pytest.approx(qc)
    assert d.ring[2, 0] == pytest.approx(qc)
    z = make_domain(boundary="zero")
    assert not z.ring.any()


def test_boundary_callable_of_the_wrong_shape_is_refused():
    d = make_domain(boundary=lambda x, y: np.zeros(x.shape + (3,)))
    with pytest.raises(ShapeMismatch, match=r"boundary callable returned shape \(8, 8, 3\)"):
        d.ring


def test_extend_and_check_values():
    d = make_domain()
    vals = np.zeros(d.shape)
    ext = d.extend(vals)
    assert ext.shape == (d.nx + 2, d.ny + 2, 5)
    assert np.array_equal(ext[1:-1, 1:-1], vals)
    with pytest.raises(ShapeMismatch):
        d.check_values(np.zeros((3, 3, 5)))
    bad = np.zeros(d.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ShapeMismatch):
        d.check_values(bad)
    # flat vectors are accepted and reshaped
    assert d.check_values(np.zeros(d.n_dof)).shape == d.shape


def test_extend_frames_each_field_of_a_batch():
    d = make_domain()
    vals = make_rng(3, "test:field:batch").normal(size=(2, 3) + d.shape)
    ext = d.extend(vals.reshape(2, 3, d.n_dof))
    assert ext.shape == (2, 3, d.nx + 2, d.ny + 2, 5)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(ext[i, j], d.extend(vals[i, j]))
    with pytest.raises(ShapeMismatch):
        QField(d, vals[0])


def test_qfield_flat_roundtrip():
    d = make_domain()
    gen = make_rng(3, "test:field")
    f = QField(d, gen.normal(size=d.shape))
    g = QField.from_flat(d, f.flat)
    assert np.array_equal(f.values, g.values)


class TestSeeds:
    def test_isotropic(self):
        f = seed_field(make_domain(), "isotropic")
        assert not f.values.any()

    def test_diagonal_components(self):
        d = make_domain()
        f = seed_field(d, "diagonal(d1)")
        s = d.s_plus
        assert f.values[2, 3] == pytest.approx([s / 6, s / 2, 0.0, s / 6, 0.0])
        g = seed_field(d, "diagonal(d2)")
        assert g.values[2, 3] == pytest.approx([s / 6, -s / 2, 0.0, s / 6, 0.0])

    def test_rotated_matches_named_edge(self):
        d = make_domain(n=8)
        f = seed_field(d, "rotated(bottom)")
        # near the bottom edge the director is nearly along x
        kind, _, director = uniaxial_reading(f.values[4, 0])
        assert kind == "uniaxial"
        assert abs(director[0]) > 0.9
        g = seed_field(d, "rotated(left)")
        _, _, director = uniaxial_reading(g.values[0, 4])
        assert abs(director[1]) > 0.9

    def test_top_and_right_mirror_bottom_and_left(self):
        d = make_domain(n=8)
        values = {edge: seed_field(d, f"rotated({edge})").values for edge in ("bottom", "top", "left", "right")}
        assert values["top"] == pytest.approx(values["bottom"][:, ::-1], abs=1e-14)
        assert values["right"] == pytest.approx(values["left"][::-1], abs=1e-14)
        # near its own edge each seed's director runs along that edge
        _, _, director = uniaxial_reading(values["top"][4, -1])
        assert abs(director[0]) > 0.9
        _, _, director = uniaxial_reading(values["right"][-1, 4])
        assert abs(director[1]) > 0.9

    def test_a_bulk_without_nematic_roots_seeds_at_unit_order(self):
        d = Domain(nx=6, ny=6, lambda2=5.0, bulk=BulkParams(1.0, 1.0, 1.0), boundary="zero")
        with pytest.raises(NoNematicRoots):
            d.s_plus
        f = seed_field(d, "diagonal(d1)")
        assert f.values[2, 3] == pytest.approx([1.0 / 6.0, 0.5, 0.0, 1.0 / 6.0, 0.0])

    def test_random_reproducible(self):
        d = make_domain()
        a = seed_field(d, "random(0.3)", seed=7)
        b = seed_field(d, "random(0.3)", seed=7)
        c = seed_field(d, "random(0.3)", seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.values.std() == pytest.approx(0.3, rel=0.1)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ShapeMismatch):
            seed_field(make_domain(), "vortex(3)")

    @pytest.mark.parametrize("spec", ["random(1e)", "random(.)", "random(+-)"])
    def test_malformed_sigma_rejected(self, spec):
        # each matches the spec pattern but is no number
        with pytest.raises(ShapeMismatch, match="unknown seed spec"):
            seed_field(make_domain(), spec)


class TestSquareSymmetry:
    def test_orbit_preserves_energy(self):
        d = make_domain(n=6, lambda2=3.0)
        gen = make_rng(11, "test:symmetry")
        vals = 0.3 * gen.normal(size=d.shape)
        e0 = free_energy(d, vals)
        for img in square_symmetry_orbit(vals):
            assert free_energy(d, img) == pytest.approx(e0, rel=1e-12)

    def test_orbit_preserves_energy_with_l2_l3(self):
        d = Domain(nx=6, ny=6, lambda2=3.0, bulk=BULK, l2=0.7, l3=0.4)
        gen = make_rng(12, "test:symmetry")
        vals = 0.3 * gen.normal(size=d.shape)
        e0 = free_energy(d, vals)
        for img in square_symmetry_orbit(vals):
            assert free_energy(d, img) == pytest.approx(e0, rel=1e-12)

    def test_symmetrize_is_projection(self):
        d = make_domain(n=7)
        gen = make_rng(13, "test:symmetry")
        f = QField(d, gen.normal(size=d.shape))
        p1 = symmetrize(f)
        p2 = symmetrize(p1)
        assert np.allclose(p1.values, p2.values, atol=1e-14)

    def test_symmetric_field_fixed(self):
        d = make_domain(n=6)
        f = symmetrize(seed_field(d, "random(0.2)", seed=1))
        for img in square_symmetry_orbit(f.values):
            assert np.allclose(img, f.values, atol=1e-13)

    def test_requires_square_grid(self):
        with pytest.raises(ShapeMismatch):
            square_symmetry_orbit(np.zeros((4, 6, 5)))

    @pytest.mark.parametrize("shape", [(4, 4, 3), (4, 4), (4, 4, 5, 1)])
    def test_requires_five_components_per_node(self, shape):
        with pytest.raises(ShapeMismatch):
            square_symmetry_orbit(np.zeros(shape))


def _tilted_ring(d: Domain, tilt: float):
    """A callable wall: the domain's planar data plus `tilt` times x on the
    in-plane order, which breaks the reflection x -> 1 - x when nonzero."""
    planar = make_domain(d.nx, boundary="planar").ring

    def wall(x, y):
        return planar + tilt * x[..., None] * np.array([1.0, 0.0, 0.0, -1.0, 0.0])

    return wall


class TestD4Invariance:
    @pytest.mark.parametrize("boundary", ["tangent", "planar", "zero"])
    @pytest.mark.parametrize("l2,l3", [(0.0, 0.0), (0.7, 0.0), (0.0, 0.4), (0.7, 0.4)])
    def test_named_walls_are_invariant(self, boundary, l2, l3):
        d = make_domain(n=8, boundary=boundary, l2=l2, l3=l3)
        assert d.d4_invariant
        sy = LdGSystem(d)
        assert len(sy.symmetries) == 8
        vals = 0.3 * make_rng(14, "test:symmetry").normal(size=d.shape)
        e0 = sy.energy(vals.reshape(-1))
        for g in sy.symmetries:
            assert sy.energy(g(vals.reshape(-1))) == pytest.approx(e0, rel=1e-13)

    def test_flat_action_is_the_orbit(self):
        # the table against float coordinates and 3 x 3 conjugation, bit for bit
        # (the random fields have no zeros, whose sign the two may differ in)
        for n in (4, 5, 6, 16, 18):
            vals = make_rng(15, "test:symmetry").normal(size=(n, n, 5))
            flat = vals.reshape(-1)
            block = np.column_stack([flat, 2.0 * flat])
            images = square_images(vals)
            for g, img, ref in zip(d4_actions(n), square_symmetry_orbit(vals), images, strict=True):
                assert img.tobytes() == ref.tobytes()
                assert g(flat).tobytes() == ref.tobytes()
                assert np.array_equal(g(block), np.column_stack([ref.reshape(-1), 2.0 * ref.reshape(-1)]))
            assert np.array_equal(images[0], vals)

    def test_one_read_only_table_per_grid_size(self):
        d = make_domain(n=6)
        assert LdGSystem(d).symmetries is d4_actions(6) is LdGSystem(make_domain(n=6, lambda2=9.0)).symmetries
        for g in d4_actions(6):
            perm, sign = g.args
            assert not perm.flags.writeable and not sign.flags.writeable

    def test_non_square_grid_is_not_invariant(self):
        d = Domain(nx=8, ny=7, lambda2=5.0, bulk=BULK, boundary="planar")
        assert not d.d4_invariant
        assert LdGSystem(d).symmetries == ()

    def test_callable_walls(self):
        d = make_domain(n=8)
        assert Domain(8, 8, 5.0, BULK, boundary=_tilted_ring(d, 0.0)).d4_invariant
        skew = Domain(8, 8, 5.0, BULK, boundary=_tilted_ring(d, 1e-3))
        assert not skew.d4_invariant
        assert LdGSystem(skew).symmetries == ()
