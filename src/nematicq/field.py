"""Discretized tensor fields on the unit square with Dirichlet data.

The grid holds nx x ny interior nodes; the boundary ring carries fixed
tensor values.  Interior node (i, j) sits at (x, y) = ((i+1) hx, (j+1) hy)
with hx = 1/(nx+1), hy = 1/(ny+1).  Field values are stored as an array
of shape (nx, ny, 5), component axis last; the flat vector used by the
solvers is the C-order raveling (node-major, component fastest).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, partial, wraps

import numpy as np

from .errors import NoNematicRoots, ShapeMismatch
from .qtensor import BulkParams, critical_points, sym_components, to_matrix
from .systems import make_rng

__all__ = [
    "BOUNDARY_KINDS",
    "Domain",
    "QField",
    "seed_field",
    "symmetrize",
    "square_symmetry_orbit",
]

BOUNDARY_KINDS = ("tangent", "planar", "zero")  # the named Dirichlet data; see Domain


@dataclass(frozen=True, eq=False)
class Domain:
    """Immutable description of one discretized problem.

    ``boundary`` selects the Dirichlet data: "tangent" (uniaxial s_plus
    with the director along each edge, corners averaged), "planar"
    (in-plane traceless tangent data s_plus*(t t^T - I2/2) with Q33 = 0,
    vanishing exactly at the corners), "zero", or a callable
    (x, y) -> 5 components evaluated on boundary nodes.
    The one-constant elastic coefficient is normalized to 1; ``l2`` and
    ``l3`` add the optional divergence and mixed-gradient terms.  For a
    plane wave with k in the plane both give |Qk|^2 <= (2/3)|Q|^2|k|^2, so
    the elastic form is coercive exactly when l2 + l3 > -3/2 (the in-plane
    Legendre-Hadamard condition), and anything else raises ShapeMismatch.

    The planar data keeps the out-of-plane component zero on the walls,
    so states whose in-plane order melts on a line (the cross state on
    the square) show genuinely small |Q| there instead of inheriting a
    uniform oblate background from the walls.
    """

    nx: int
    ny: int
    lambda2: float
    bulk: BulkParams
    l2: float = 0.0
    l3: float = 0.0
    boundary: object = "tangent"

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ShapeMismatch(f"grid needs nx, ny >= 4, got {self.nx} x {self.ny}")
        if not (self.lambda2 > 0) or not np.isfinite(self.lambda2):
            raise ShapeMismatch(f"lambda2 must be positive, got {self.lambda2}")
        if not (np.isfinite(self.l2) and np.isfinite(self.l3)):
            raise ShapeMismatch(f"l2 and l3 must be finite, got {self.l2} and {self.l3}")
        if not self.l2 + self.l3 > -1.5:
            raise ShapeMismatch(
                f"l2 + l3 must be above -3/2 for an elastic energy bounded below, got {self.l2 + self.l3}"
            )
        if isinstance(self.boundary, str) and self.boundary not in BOUNDARY_KINDS:
            raise ShapeMismatch(f"unknown boundary kind {self.boundary!r}")

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny + 1)

    @cached_property
    def edge_weights(self) -> tuple[float, float]:
        """(wx, wy) = (hy/hx, hx/hy), the one-constant weights of x- and y-edges."""
        return self.hy / self.hx, self.hx / self.hy

    @property
    def n_dof(self) -> int:
        return 5 * self.nx * self.ny

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, 5)

    @cached_property
    def s_plus(self) -> float:
        return critical_points(self.bulk).s_plus

    @cached_property
    def xs(self) -> np.ndarray:
        """Interior node x coordinates, shape (nx,)."""
        return (np.arange(self.nx) + 1.0) * self.hx

    @cached_property
    def ys(self) -> np.ndarray:
        return (np.arange(self.ny) + 1.0) * self.hy

    @cached_property
    def ring(self) -> np.ndarray:
        """Extended frame (nx+2, ny+2, 5): boundary values, zero interior."""
        nx, ny = self.nx, self.ny
        ext = np.zeros((nx + 2, ny + 2, 5))
        if callable(self.boundary):
            xg, yg = np.meshgrid(
                np.arange(nx + 2) * self.hx,
                np.arange(ny + 2) * self.hy,
                indexing="ij",
            )
            vals = np.asarray(self.boundary(xg, yg), dtype=float)
            if vals.shape != ext.shape:
                raise ShapeMismatch(
                    f"boundary callable returned shape {vals.shape}, expected {ext.shape}"
                )
            ext[:, 0] = vals[:, 0]
            ext[:, -1] = vals[:, -1]
            ext[0, :] = vals[0, :]
            ext[-1, :] = vals[-1, :]
        elif self.boundary != "zero":
            s = self.s_plus
            if self.boundary == "tangent":
                # director along x on bottom/top edges, along y on left/right
                qx = np.array([2.0 * s / 3.0, 0.0, 0.0, -s / 3.0, 0.0])
                qy = np.array([-s / 3.0, 0.0, 0.0, 2.0 * s / 3.0, 0.0])
            else:
                # in-plane traceless data: opposite edges carry opposite signs,
                # so the corner averages cancel exactly, to +0.0
                qx = np.array([s / 2.0, 0.0, 0.0, -s / 2.0, 0.0])
                qy = np.array([-s / 2.0, 0.0, 0.0, s / 2.0, 0.0])
            ext[1:-1, 0] = ext[1:-1, -1] = qx
            ext[0, 1:-1] = ext[-1, 1:-1] = qy
            ext[:: nx + 1, :: ny + 1] = 0.5 * (qx + qy)
        ext.setflags(write=False)
        return ext

    @cached_property
    def d4_invariant(self) -> bool:
        """Whether nx == ny and the boundary ring equals each of its 8 images to
        1e-12 of its scale; the energy, l2 and l3 terms included, is then invariant."""
        if self.nx != self.ny:
            return False
        tol = 1e-12 * (1.0 + float(np.abs(self.ring).max()))
        return all(np.abs(img - self.ring).max() <= tol for img in square_symmetry_orbit(self.ring))

    def extend(self, values: np.ndarray) -> np.ndarray:
        """Each field of ``values`` framed by the Dirichlet ring, shape (..., nx+2, ny+2, 5)."""
        values = self.check_values(values)
        ext = np.empty(values.shape[:-3] + self.ring.shape)
        ext[...] = self.ring
        ext[..., 1:-1, 1:-1, :] = values
        return ext

    def check_values(self, values: np.ndarray) -> np.ndarray:
        """Float fields of shape (..., nx, ny, 5), a trailing n_dof axis unfolded;
        ShapeMismatch on any other shape or on a non-finite value anywhere."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] == (self.n_dof,):
            values = values.reshape(values.shape[:-1] + self.shape)
        if values.shape[-3:] != self.shape:
            raise ShapeMismatch(
                f"field shape {values.shape} does not match domain {self.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ShapeMismatch("field contains non-finite values")
        return values


@dataclass(frozen=True)
class QField:
    """One field of tensors bound to its domain."""

    domain: Domain
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        values = self.domain.check_values(self.values)
        if values.shape != self.domain.shape:
            raise ShapeMismatch(f"a field holds one set of values, got shape {values.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, domain: Domain) -> "QField":
        return cls(domain, np.zeros(domain.shape))

    @classmethod
    def from_flat(cls, domain: Domain, flat: np.ndarray) -> "QField":
        """The field whose values are flat's n_dof entries; any other size raises ShapeMismatch."""
        flat = np.asarray(flat, dtype=float)
        if flat.size != domain.n_dof:
            raise ShapeMismatch(f"flat field of shape {flat.shape} does not match domain {domain.shape}")
        return cls(domain, flat.reshape(domain.shape))

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def copy(self) -> "QField":
        return QField(self.domain, self.values.copy())

    def energy(self) -> float:
        from . import energy  # energy imports this module

        return energy.free_energy(self.domain, self.values)


def kept_on_domain(build):
    """Decorate ``build(domain)`` to run once per domain, its result kept in the frozen domain's
    ``__dict__``: what a domain determines lives as long as it, as its cached properties do."""
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def kept(domain: Domain):
        value = domain.__dict__.get(key)
        if value is None:
            value = domain.__dict__[key] = build(domain)
        return value

    return kept


_SEED_RE = re.compile(
    r"^(isotropic|diagonal\((d1|d2)\)|rotated\((bottom|top|left|right)\)|random\(([0-9.eE+-]+)\))$"
)


def _uniaxial_angle_components(s: float, theta: np.ndarray) -> np.ndarray:
    """Components of s (n n^T - I/3) for in-plane director angle theta."""
    c, sn = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (5,))
    out[..., 0] = s * (c * c - 1.0 / 3.0)
    out[..., 1] = s * c * sn
    out[..., 3] = s * (sn * sn - 1.0 / 3.0)
    return out


def seed_field(domain: Domain, spec: str, seed: int = 0) -> QField:
    """Build a named initial field.

    Recognized specs: "isotropic", "diagonal(d1)", "diagonal(d2)",
    "rotated(bottom|top|left|right)", "random(sigma)".  Diagonal seeds are
    uniform uniaxial states along the two square diagonals; rotated seeds
    interpolate the director angle by pi across the square starting from
    the named edge's tangent; random(sigma) draws i.i.d. normal components
    from the counter-based generator keyed by ``seed``.
    """
    m = _SEED_RE.match(spec.strip())
    if m is None:
        raise ShapeMismatch(f"unknown seed spec {spec!r}")
    name = m.group(1)
    try:
        s = domain.s_plus
    except NoNematicRoots:
        s = 1.0
    if name == "isotropic":
        return QField.zeros(domain)
    if name.startswith("diagonal"):
        theta = np.pi / 4.0 if m.group(2) == "d1" else -np.pi / 4.0
        vals = np.broadcast_to(
            _uniaxial_angle_components(s, np.asarray(theta)), domain.shape
        ).copy()
        return QField(domain, vals)
    if name.startswith("rotated"):
        edge = m.group(3)
        x = domain.xs[:, None]
        y = domain.ys[None, :]
        if edge == "bottom":
            theta = np.pi * y + 0.0 * x
        elif edge == "top":
            theta = -np.pi * y + 0.0 * x
        elif edge == "left":
            theta = np.pi / 2.0 + np.pi * x + 0.0 * y
        else:
            theta = np.pi / 2.0 - np.pi * x + 0.0 * y
        return QField(domain, _uniaxial_angle_components(s, theta))
    try:
        sigma = float(m.group(4))
    except ValueError:
        raise ShapeMismatch(f"unknown seed spec {spec!r}") from None
    gen = make_rng(seed, f"seed:random:{sigma:g}")
    return QField(domain, sigma * gen.normal(size=domain.shape))


def square_symmetry_orbit(values: np.ndarray) -> list[np.ndarray]:
    """All eight symmetry images of a square (n, n, 5) field, in ``d4_actions`` order."""
    if values.ndim != 3 or values.shape[0] != values.shape[1] or values.shape[2] != 5:
        raise ShapeMismatch(f"square symmetry ops need an (n, n, 5) field, got shape {values.shape}")
    return [g(values.reshape(-1)).reshape(values.shape) for g in d4_actions(values.shape[0])]


@lru_cache(maxsize=8)
def d4_actions(n: int) -> tuple:
    """The square's eight symmetries on flat n x n fields and (5 n^2, m) blocks, as
    exact signed permutations shared by every field of that size (read-only).

    Element k is k quarter turns o2, followed for k >= 4 by x -> -x (identity first).
    It moves node (i, j) to o2 (i - t/2, j - t/2) + t/2, t = n - 1, in integers, and
    permutes the components as o2 conjugates the five basis tensors by diag(o2, 1).
    """
    t = n - 1
    uv = np.array(np.meshgrid(2 * np.arange(n) - t, 2 * np.arange(n) - t, indexing="ij"))  # 2 (i, j) - t
    actions = []
    for k in range(8):
        o2 = np.diag([1 - 2 * (k // 4), 1]) @ np.linalg.matrix_power(np.array([[0, -1], [1, 0]]), k % 4)
        o3 = np.eye(3)
        o3[:2, :2] = o2
        basis = sym_components(o3 @ to_matrix(np.eye(5)) @ o3.T)  # row a: the image of e_a, +-e_b
        comp = np.abs(basis).argmax(axis=1)
        ip, jp = (np.tensordot(o2, uv, 1) + t) // 2
        dest = (5 * (ip * n + jp)[..., None] + comp).reshape(-1)
        perm, sign = np.empty(5 * n * n, dtype=np.intp), np.empty(5 * n * n)
        perm[dest] = np.arange(5 * n * n)
        sign[dest] = np.tile(basis[np.arange(5), comp], n * n)
        perm.flags.writeable = sign.flags.writeable = False
        actions.append(partial(_signed_permute, perm, sign))
    return tuple(actions)


def _signed_permute(perm: np.ndarray, sign: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v[perm].T * sign).T


def symmetrize(field: QField) -> QField:
    """Project onto the fully square-symmetric subspace (orbit average).

    The tangent boundary data is invariant under the full symmetry group,
    so the energy is too; averaging is the orthogonal projection onto the
    invariant subspace and maps stationary symmetric fields to themselves.
    """
    orbit = square_symmetry_orbit(field.values)
    return QField(field.domain, np.mean(orbit, axis=0))
