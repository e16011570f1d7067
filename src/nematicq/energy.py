"""Discrete free energy of a tensor field and its exact gradient.

The energy on the unit square is

    F[Q] = sum over edges   (w/2) |Q_a - Q_b|_F^2          (one-constant term)
         + sum over cells   hx hy ( l2/2 (div Q)^2 + l3/2 mixed term )
         + sum over nodes   hx hy lambda2 f_b(Q)

where the one-constant sum runs over grid edges with at least one
interior endpoint (w = hy/hx for x-edges, hx/hy for y-edges; boundary
values enter through the Dirichlet ring), the optional l2/l3 densities
are evaluated from cell-centered first differences, and the bulk sum
runs over interior nodes.  Edges joining two boundary nodes would only
add constants and are omitted.

The gradient is the plain vector of partial derivatives with respect to
the five components per node; the Frobenius metric appears only inside
the densities.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .field import Domain, QField, d4_actions
from .qtensor import G, bulk_energy, bulk_energy_gradient, bulk_gradient, bulk_hessian
from .qtensor import metric_apply, to_matrix
from .systems import System

__all__ = [
    "free_energy",
    "gradient",
    "LdGSystem",
    "SineSolver",
    "elastic_shift_vector",
    "l1_operator",
    "linear_shift",
]

_G_EIGVALS, _G_EIGVECS = np.linalg.eigh(G)  # 1, 2, 2, 2, 3
# A block Hessian action and a block sine solve take their columns in
# chunks of at most this many bytes (one column at a time from 32^2 up,
# six at 16^2), so that each chunk's
# temporaries, about ten times its size, stay small: of 8 KiB to 512 KiB
# and a whole block, 64 KiB was fastest from 16^2 to 128^2.
_CHUNK_BYTES = 1 << 16


def _cell_density_23(u: np.ndarray, l2: float, l3: float) -> float:
    """Literal l2/l3 elastic density at one cell from u = (dQ/dx, dQ/dy)."""
    ax = to_matrix(u[:5])
    ay = to_matrix(u[5:])
    div = ax[0, :] + ay[1, :]
    d2 = 0.5 * l2 * float(div @ div)
    d3 = 0.5 * l3 * float(ax[0] @ ax[0] + 2.0 * (ax[1] @ ay[0]) + ay[1] @ ay[1])
    return d2 + d3


@lru_cache(maxsize=16)
def _cell_form(l2: float, l3: float) -> np.ndarray:
    """10x10 matrix W with density = 1/2 u^T W u (by polarization)."""
    w = np.zeros((10, 10))
    eye = np.eye(10)
    for a in range(10):
        w[a, a] = 2.0 * _cell_density_23(eye[a], l2, l3)
    for a in range(10):
        for b in range(a + 1, 10):
            cross = (
                _cell_density_23(eye[a] + eye[b], l2, l3)
                - 0.5 * w[a, a]
                - 0.5 * w[b, b]
            )
            w[a, b] = w[b, a] = cross
    return w


def _cell_gradients(domain: Domain, ext: np.ndarray) -> np.ndarray:
    """Cell-centered (dQ/dx, dQ/dy), shape (..., nx+1, ny+1, 10)."""
    dx = (ext[..., 1:, :, :] - ext[..., :-1, :, :]) / domain.hx
    dy = (ext[..., :, 1:, :] - ext[..., :, :-1, :]) / domain.hy
    ax = 0.5 * (dx[..., :, 1:, :] + dx[..., :, :-1, :])
    ay = 0.5 * (dy[..., 1:, :, :] + dy[..., :-1, :, :])
    return np.concatenate([ax, ay], axis=-1)


def _edge_sum(diff: np.ndarray):
    """Sum of |Q_a - Q_b|^2 over one edge direction, 2 (sum a^2 + sum a1 a4), per field."""
    a = diff.reshape(diff.shape[:-3] + (-1, 5))
    return 2.0 * (np.sum(a * a, axis=(-2, -1)) + np.sum(a[..., 0] * a[..., 3], axis=-1))


def _cell_terms(domain: Domain, ext: np.ndarray):
    """(u, u W) per cell for the l2/l3 form W (see ``_cell_gradients``); None when l2 = l3 = 0."""
    if domain.l2 == 0.0 and domain.l3 == 0.0:
        return None
    u = _cell_gradients(domain, ext)
    return u, u @ _cell_form(domain.l2, domain.l3)


def _energy_from_ext(domain: Domain, ext: np.ndarray, cells=None, bulk: np.ndarray | None = None):
    """The energy of ext; its ``_cell_terms`` and the bulk density per
    interior node are computed here, after the edge sums, unless given."""
    wx = domain.hy / domain.hx
    wy = domain.hx / domain.hy
    e = 0.5 * wx * _edge_sum(ext[..., 1:, 1:-1, :] - ext[..., :-1, 1:-1, :])
    e += 0.5 * wy * _edge_sum(ext[..., 1:-1, 1:, :] - ext[..., 1:-1, :-1, :])
    cells = _cell_terms(domain, ext) if cells is None else cells
    if cells is not None:
        u, uw = cells
        e += 0.5 * domain.hx * domain.hy * np.sum(uw * u, axis=(-3, -2, -1))
    bulk = bulk_energy(ext[..., 1:-1, 1:-1, :], domain.bulk) if bulk is None else bulk
    e += domain.lambda2 * domain.hx * domain.hy * np.sum(bulk, axis=(-2, -1))
    return e


def _elastic_grad_from_ext(domain: Domain, ext: np.ndarray, cells=None) -> np.ndarray:
    """Partials of the elastic terms with respect to interior nodes; the
    ``_cell_terms`` of ext are computed here unless given."""
    wx = domain.hy / domain.hx
    wy = domain.hx / domain.hy
    v = ext[..., 1:-1, 1:-1, :]
    lap = wx * (2.0 * v - ext[..., :-2, 1:-1, :] - ext[..., 2:, 1:-1, :])
    lap += wy * (2.0 * v - ext[..., 1:-1, :-2, :] - ext[..., 1:-1, 2:, :])
    g = metric_apply(lap)
    cells = _cell_terms(domain, ext) if cells is None else cells
    if cells is not None:
        s = domain.hx * domain.hy * cells[1]
        sx = s[..., :5] / (2.0 * domain.hx)
        sy = s[..., 5:] / (2.0 * domain.hy)
        plus, minus = sx + sy, sx - sy
        acc = np.zeros_like(ext)
        acc[..., 1:, 1:, :] += plus
        acc[..., :-1, :-1, :] -= plus
        acc[..., 1:, :-1, :] += minus
        acc[..., :-1, 1:, :] -= minus
        g = g + acc[..., 1:-1, 1:-1, :]
    return g


def free_energy(domain: Domain, values: np.ndarray):
    """Total discrete free energy (boundary data included) of each field in
    ``values``, shape (..., nx, ny, 5) or (..., n_dof): a scalar for one field."""
    return _energy_from_ext(domain, domain.extend(values))


def gradient(domain: Domain, values: np.ndarray) -> np.ndarray:
    """Exact partials dF/dq per interior node of each field, shape (..., nx, ny, 5)."""
    ext = domain.extend(values)
    g = _elastic_grad_from_ext(domain, ext)
    interior = ext[..., 1:-1, 1:-1, :]
    g = g + domain.lambda2 * domain.hx * domain.hy * bulk_gradient(interior, domain.bulk)
    return g


def elastic_apply(domain: Domain, flat: np.ndarray) -> np.ndarray:
    """Homogeneous elastic operator action (all elastic terms), matrix-free,
    on each row of a (..., n_dof) block; the result has the same shape."""
    lead = flat.shape[:-1]
    ext = np.zeros(lead + (domain.nx + 2, domain.ny + 2, 5))
    ext[..., 1:-1, 1:-1, :] = flat.reshape(lead + domain.shape)
    return _elastic_grad_from_ext(domain, ext).reshape(flat.shape)


def linear_shift(domain: Domain) -> float:
    """a1 = lambda2 max(0, -a) + 1 of L1 = K + a1 hx hy kron(I, G): the SAV
    flow's linear part and the solvers' metric M (``l1_operator``)."""
    return domain.lambda2 * max(0.0, -domain.bulk.a) + 1.0


def elastic_shift_vector(domain: Domain) -> np.ndarray:
    """Affine part c of the elastic gradient, from the boundary ring."""
    ext = domain.ring.copy()
    return _elastic_grad_from_ext(domain, ext).reshape(-1)


class LdGSystem(System):
    """Flat-vector energy interface over one domain."""

    def __init__(self, domain: Domain):
        self.domain = domain
        self.n = domain.n_dof

    def _one_field(self, x: np.ndarray) -> np.ndarray:
        """x if it holds one field (flat or (nx, ny, 5)), else ShapeMismatch."""
        if np.shape(x) not in ((self.n,), self.domain.shape):
            raise ShapeMismatch(f"a single-point method takes one field, got shape {np.shape(x)}")
        return x

    def energy(self, x: np.ndarray) -> float:
        return float(free_energy(self.domain, self._one_field(x)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return gradient(self.domain, self._one_field(x)).reshape(self.n)

    def energy_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``(energy(x), gradient(x))`` bit for bit, from one extension of the
        field, one set of cell terms and one bulk pass."""
        d = self.domain
        ext = d.extend(self._one_field(x))
        cells = _cell_terms(d, ext)
        density, g = bulk_energy_gradient(ext[..., 1:-1, 1:-1, :], d.bulk)
        e = float(_energy_from_ext(d, ext, cells, density))
        # gradient's elastic + lambda2 hx hy bulk, in place to hold fewer large temporaries
        g *= d.lambda2 * d.hx * d.hy
        g += _elastic_grad_from_ext(d, ext, cells)
        return e, g.reshape(self.n)

    def energies(self, xs: np.ndarray) -> np.ndarray:
        return free_energy(self.domain, xs)

    def gradients(self, xs: np.ndarray) -> np.ndarray:
        return gradient(self.domain, xs).reshape(np.shape(xs))

    def hessian_vec(self, x: np.ndarray, v: np.ndarray, l: float | None = None) -> np.ndarray:
        """H(x) v exactly: ``elastic_apply`` plus lambda2 hx hy ``bulk_hessian``.

        The contract of ``System.hessian_vec`` (vector or (n, m) block, each
        column equal to its single-vector call bit for bit, zero columns
        zero); no probe is taken, so ``l`` is ignored.  The columns go
        through in chunks of at most ``_CHUNK_BYTES`` each, so that a wide
        block on a large grid does not page in fresh temporaries.  A copy of
        the last x and its ``bulk_hessian`` map are kept on ``self``; a call
        at an x equal to it by content reuses the map.
        """
        d = self.domain
        v = np.asarray(v, dtype=float)
        cols = v.reshape(v.shape[0], -1)
        last_x, bulk = self.__dict__.get("_bulk_hessian", (None, None))
        if not np.array_equal(last_x, x):
            bulk = bulk_hessian(d.check_values(x), d.bulk)
            self._bulk_hessian = (np.array(x, dtype=float), bulk)
        hv = np.empty_like(cols)
        step = max(1, _CHUNK_BYTES // (8 * d.n_dof))
        for lo in range(0, cols.shape[1], step):
            rows = np.ascontiguousarray(cols[:, lo : lo + step].T)
            out = elastic_apply(d, rows)
            b = bulk(rows.reshape((-1,) + d.shape))
            b *= d.lambda2 * d.hx * d.hy
            out += b.reshape(out.shape)
            hv[:, lo : lo + step] = out.T
        return hv.reshape(v.shape)

    def field(self, x: np.ndarray) -> QField:
        return QField.from_flat(self.domain, x)

    @cached_property
    def symmetries(self) -> tuple:
        """The square's eight symmetries (``field.d4_actions``: exact signed
        permutations of flat vectors and (n, m) blocks, identity first) when
        the domain is ``d4_invariant``, else none."""
        return d4_actions(self.domain.nx) if self.domain.d4_invariant else ()

    def preconditioner(self) -> "SineSolver":
        """M = L1 = K + a1 hx hy kron(I, G), the SAV flow's own linear operator,
        as the domain's one SineSolver (``l1_operator``); no matrix is assembled.

        K, the one-constant elastic operator, is SPD on its own under the
        Dirichlet ring; a1 (``linear_shift``) fits M to the Hessian's low end.
        LOBPCG preconditions with its ``solve``, the saddle dynamics and the
        string run in its metric and L-BFGS seeds its H0 with it.
        """
        return l1_operator(self.domain)


@lru_cache(maxsize=8)
def _sine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix S (S = S^T = S^-1) and the eigenvalues of
    the Dirichlet second difference tridiag(-1, 2, -1) that S diagonalizes."""
    k = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    mu = 4.0 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    s.flags.writeable = mu.flags.writeable = False
    return s, mu


class SineSolver:
    """L1 = K + a1 hx hy kron(I, G) of one domain (``linear_shift``), applied
    and solved exactly by sine transforms; ``l1_operator`` builds it.

    K = kron(A, G): A = wx T (x) I + wy I (x) T is the Dirichlet 5-point
    operator on the interior nodes, T = tridiag(-1, 2, -1), wx = hy/hx,
    wy = hx/hy, and G the Frobenius metric of a node.  Both actions rotate r
    straight into component-major planes in the eigenbasis of G, apply DST-I
    as S_x X S_y to each plane, scale by ``eigenvalues`` (5, nx, ny),
    g_c (wx mu_i + wy mu_j + a1 hx hy), ascending along every axis, and
    transform back: ``solve(r, shift)`` divides by them plus the shift,
    (L1 + shift I)^-1 r (the fast Poisson solver of Buzbee, Golub and
    Nielson, SIAM J. Numer. Anal. 1970), and ``apply`` multiplies.  Both
    take vectors or (n, m) blocks.  ``lowest_eigenvalue`` is L1's mu0 =
    ``eigenvalues[0, 0, 0]``: the SAV step solves with shift 2/dt and
    LOBPCG with shift -theta mu0, 0 < theta < 1 (``spectrum.lobpcg``), and
    a shift at or below -mu0, where L1 + shift I is not SPD, is refused.
    ``add_lowest_modes`` adds L1's lowest eigenvectors to LOBPCG's start.
    """

    def __init__(self, domain: Domain):
        self._sx, mux = _sine_basis(domain.nx)
        self._sy, muy = _sine_basis(domain.ny)
        wx = domain.hy / domain.hx
        wy = domain.hx / domain.hy
        a = wx * mux[:, None] + wy * muy[None, :] + linear_shift(domain) * (domain.hx * domain.hy)
        self.eigenvalues = _G_EIGVALS[:, None, None] * a
        self.eigenvalues.flags.writeable = False
        self.lowest_eigenvalue = float(self.eigenvalues[0, 0, 0])
        self._chunk = max(1, _CHUNK_BYTES // (8 * domain.n_dof))  # columns per chunk

    def _scaled(self, r: np.ndarray, scale, eig: np.ndarray) -> np.ndarray:
        """Transform r to the eigenbasis, ``scale(x, eig, out=x)`` there, transform
        back; a block goes through in column chunks of at most ``_CHUNK_BYTES``."""
        r = np.asarray(r, dtype=float)
        _, nx, ny = eig.shape
        m = r.size // (nx * ny * 5)
        step = self._chunk
        if m > step:
            out = np.empty_like(r)
            for lo in range(0, m, step):
                out[:, lo : lo + step] = self._scaled(r[:, lo : lo + step], scale, eig)
            return out
        # node-major rows (node, component, column) become component-major
        # planes (component, column, node) by one transpose (a view for one
        # column), and one 5 x 5 product rotates the components of all of
        # them at once; the way back mirrors it
        x = r.reshape(nx * ny, 5 * m).T.reshape(5, m * nx * ny)
        x = (_G_EIGVECS.T @ x).reshape(5, m, nx, ny)
        x = self._sx @ x @ self._sy
        scale(x, eig[:, None], out=x)
        x = (self._sx @ x @ self._sy).reshape(5, m * nx * ny)
        return np.ascontiguousarray((x.T @ _G_EIGVECS.T).reshape(m, nx * ny * 5).T).reshape(r.shape)

    def solve(self, r: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """(L1 + shift I)^-1 r for a vector or (n, m) block r; the shift must be
        finite and above -``lowest_eigenvalue``."""
        if not (math.isfinite(shift) and shift > -self.lowest_eigenvalue):
            raise ValidationError(f"shift {shift!r} leaves L1 + shift I not SPD (mu0 = {self.lowest_eigenvalue:g})")
        return self._scaled(r, np.divide, self.eigenvalues + shift)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """L1 v, for inner products <a, b>_M."""
        return self._scaled(v, np.multiply, self.eigenvalues)

    def add_lowest_modes(self, x: np.ndarray) -> None:
        """Add sqrt(n) times L1's m lowest eigenvectors to the m columns of the
        (n, m) block x, in place.  Mode (c, i, j) is sx[:, i] (x) sy[:, j] (x)
        the G eigenvector c, taken by ascending ``eigenvalues``, ties in index
        order; as those ascend along every axis, argmin finds them where every
        index is below m (a stable sort would page in 128 KiB of sort code)."""
        n, m = x.shape
        corner = self.eigenvalues[:m, :m, :m].copy()
        for col in range(m):
            c, i, j = np.unravel_index(np.argmin(corner), corner.shape)
            corner[c, i, j] = np.inf
            plane = np.outer(np.sqrt(n) * self._sx[:, i], self._sy[:, j])
            column = x[:, col].reshape(plane.shape + (5,))
            for a in range(5):
                column[..., a] += _G_EIGVECS[a, c] * plane


def l1_operator(domain: Domain) -> SineSolver:
    """`domain`'s L1 as one SineSolver, kept on the domain so it lives as long as the
    domain: the solvers' metric M, the SAV step's solve and its step ladder's spectrum."""
    op = domain.__dict__.get("_l1_operator")
    if op is None:
        op = domain.__dict__["_l1_operator"] = SineSolver(domain)
    return op
