"""Discrete free energy of a tensor field and its exact gradient.

The energy on the unit square is

    F[Q] = sum over edges   (w/2) |Q_a - Q_b|_F^2          (one-constant term)
         + sum over cells   hx hy ( l2/2 (div Q)^2 + l3/2 mixed term )
         + sum over nodes   hx hy lambda2 f_b(Q)

where the one-constant sum runs over grid edges with at least one
interior endpoint (w = hy/hx for x-edges, hx/hy for y-edges; boundary
values enter through the Dirichlet ring; edges joining two boundary nodes
would only add constants and are omitted), the optional l2/l3 densities
are evaluated from cell-centered first differences, and the bulk sum
runs over interior nodes.  The gradient is the plain vector of partials
with respect to the five components per node.

The elastic terms are a quadratic form of the interior values x, so the
energy takes no edge or cell sum: it is 1/2 x.(g + c) + e0 + hx hy lambda2
sum f_b, g = Kx + c the elastic gradient and c and e0 the gradient and the
energy at x = 0, which the ring alone gives (``elastic_affine``).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .field import Domain, QField, d4_actions, kept_on_domain
from .qtensor import G, bulk_energy, bulk_energy_gradient, bulk_gradient, bulk_hessian
from .qtensor import frob2, metric_apply
from .systems import System

__all__ = [
    "free_energy",
    "gradient",
    "LdGSystem",
    "SineSolver",
    "elastic_affine",
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


@lru_cache(maxsize=16)
def _cell_form(l2: float, l3: float) -> np.ndarray:
    """10x10 W of the cell density 1/2 u^T W u, u = (dQ/dx, dQ/dy), rows of Q as 3-vectors:
    l2/2 |div Q|^2 + l3/2 (|Q_x row 0|^2 + 2 Q_x row 1 . Q_y row 0 + |Q_y row 1|^2)."""
    e = np.eye(10)
    ax0, ax1, ay0, ay1 = e[[0, 1, 2]], e[[1, 3, 4]], e[[5, 6, 7]], e[[6, 8, 9]]
    div = ax0 + ay1
    return l2 * (div.T @ div) + l3 * (ax0.T @ ax0 + ax1.T @ ay0 + ay0.T @ ax1 + ay1.T @ ay1)


def _cell_gradients(domain: Domain, ext: np.ndarray) -> np.ndarray:
    """Cell-centered (dQ/dx, dQ/dy), shape (..., nx+1, ny+1, 10)."""
    dx = (ext[..., 1:, :, :] - ext[..., :-1, :, :]) / domain.hx
    dy = (ext[..., :, 1:, :] - ext[..., :, :-1, :]) / domain.hy
    ax = 0.5 * (dx[..., :, 1:, :] + dx[..., :, :-1, :])
    ay = 0.5 * (dy[..., 1:, :, :] + dy[..., :-1, :, :])
    return np.concatenate([ax, ay], axis=-1)


def _cell_grad(domain: Domain, ext: np.ndarray) -> np.ndarray | None:
    """Partials of the l2/l3 cell terms of ext (..., nx+2, ny+2, 5) with
    respect to its interior nodes; None when l2 = l3 = 0."""
    if domain.l2 == 0.0 and domain.l3 == 0.0:
        return None
    s = domain.hx * domain.hy * (_cell_gradients(domain, ext) @ _cell_form(domain.l2, domain.l3))
    sx, sy = s[..., :5] / (2.0 * domain.hx), s[..., 5:] / (2.0 * domain.hy)
    plus, minus = sx + sy, sx - sy
    acc = np.zeros(ext.shape)
    acc[..., 1:, 1:, :] += plus
    acc[..., :-1, :-1, :] -= plus
    acc[..., 1:, :-1, :] += minus
    acc[..., :-1, 1:, :] -= minus
    return acc[..., 1:-1, 1:-1, :]


def _elastic_grad_from_ext(domain: Domain, ext: np.ndarray) -> np.ndarray:
    """Partials of the elastic terms with respect to interior nodes."""
    wx, wy = domain.edge_weights
    v = ext[..., 1:-1, 1:-1, :]
    lap = wx * (2.0 * v - ext[..., :-2, 1:-1, :] - ext[..., 2:, 1:-1, :])
    lap += wy * (2.0 * v - ext[..., 1:-1, :-2, :] - ext[..., 1:-1, 2:, :])
    g, cells = metric_apply(lap), _cell_grad(domain, ext)
    return g if cells is None else g + cells


@kept_on_domain
def elastic_affine(domain: Domain) -> tuple[np.ndarray, float]:
    """(c, e0) of the elastic energy 1/2 x.Kx + c.x + e0, kept on the domain: c (flat,
    read-only) the elastic gradient at x = 0, e0 the ring's energy there."""
    ring, (wx, wy) = domain.ring, domain.edge_weights
    c = _elastic_grad_from_ext(domain, ring).reshape(-1)
    c.flags.writeable = False
    # at x = 0 the edges from the ring into the interior and the cells count
    e0 = 0.5 * (wx * float(np.sum(frob2(ring[[0, -1], 1:-1]))) + wy * float(np.sum(frob2(ring[1:-1, [0, -1]]))))
    if domain.l2 != 0.0 or domain.l3 != 0.0:
        u = _cell_gradients(domain, ring)
        e0 += 0.5 * domain.hx * domain.hy * float(np.sum((u @ _cell_form(domain.l2, domain.l3)) * u))
    return c, e0


def _energy(domain: Domain, values: np.ndarray, elastic: np.ndarray, density: np.ndarray):
    """F per field of values (..., nx, ny, 5): 1/2 x.(g + c) + e0 + lambda2 hx hy sum f_b."""
    c, e0 = elastic_affine(domain)
    xg = elastic + c.reshape(domain.shape)
    xg *= values
    bulk = domain.lambda2 * domain.hx * domain.hy * np.sum(density, axis=(-2, -1))
    return 0.5 * np.sum(xg, axis=(-3, -2, -1)) + e0 + bulk


def free_energy(domain: Domain, values: np.ndarray):
    """Total discrete free energy (boundary data included) of each field in
    ``values``, shape (..., nx, ny, 5) or (..., n_dof): a scalar for one field."""
    ext = domain.extend(values)
    interior = ext[..., 1:-1, 1:-1, :]
    return _energy(domain, interior, _elastic_grad_from_ext(domain, ext), bulk_energy(interior, domain.bulk))


def gradient(domain: Domain, values: np.ndarray) -> np.ndarray:
    """Exact partials dF/dq per interior node of each field, shape (..., nx, ny, 5)."""
    ext = domain.extend(values)
    bulk = bulk_gradient(ext[..., 1:-1, 1:-1, :], domain.bulk)
    return _elastic_grad_from_ext(domain, ext) + domain.lambda2 * domain.hx * domain.hy * bulk


def _free_energy_gradient(domain: Domain, values: np.ndarray) -> tuple:
    """``(free_energy(domain, values), gradient(domain, values))`` bit for bit, from
    one extension of the fields, one elastic gradient, which gives the elastic
    energy, and one bulk pass."""
    ext = domain.extend(values)
    interior = ext[..., 1:-1, 1:-1, :]
    density, g = bulk_energy_gradient(interior, domain.bulk)
    elastic = _elastic_grad_from_ext(domain, ext)
    e = _energy(domain, interior, elastic, density)
    # gradient's elastic + lambda2 hx hy bulk, in place to hold fewer large temporaries
    g *= domain.lambda2 * domain.hx * domain.hy
    g += elastic
    return e, g


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
        """``(energy(x), gradient(x))`` bit for bit: the single-field case of
        ``energies_gradients``."""
        e, g = _free_energy_gradient(self.domain, self._one_field(x))
        return float(e), g.reshape(self.n)

    def energies(self, xs: np.ndarray) -> np.ndarray:
        return free_energy(self.domain, xs)

    def gradients(self, xs: np.ndarray) -> np.ndarray:
        return gradient(self.domain, xs).reshape(np.shape(xs))

    def energies_gradients(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(energies(xs), gradients(xs))`` bit for bit, from one extension of
        the block, one elastic gradient, which gives the elastic energies, and
        one bulk pass."""
        e, g = _free_energy_gradient(self.domain, xs)
        return e, g.reshape(np.shape(xs))

    def hessian_vec(self, x: np.ndarray, v: np.ndarray, l: float | None = None) -> np.ndarray:
        """H(x) v exactly: the homogeneous elastic operator (``elastic_apply``'s)
        plus lambda2 hx hy ``bulk_hessian``, under the contract of
        ``System.hessian_vec`` (vector or (n, m) block, each column equal to
        its single-vector call bit for bit, zero columns zero); ``l`` is ignored.

        The columns go through in chunks of at most ``_CHUNK_BYTES``, so that a
        wide block on a large grid pages in no fresh temporaries.  A chunk is
        copied into component-major planes (m, 5, nx, ny) framed by zeros; G
        times their 5-point Laplacian, the l2/l3 cell terms and the bulk term
        are summed there and copied back to node-major order.  A copy of the
        last x and its ``bulk_hessian`` map are kept on ``self`` and reused."""
        d = self.domain
        nx, ny = d.nx, d.ny
        wx, wy = d.edge_weights
        cols = np.asarray(v, dtype=float).reshape(np.shape(v)[0], -1)
        m = cols.shape[1]
        last_x, bulk = self.__dict__.get("_bulk_hessian", (None, None))
        if not np.array_equal(last_x, x):
            bulk = bulk_hessian(d.check_values(x), d.bulk)
            self._bulk_hessian = (np.array(x, dtype=float), bulk)
        hv = np.empty_like(cols)
        v_planes = cols.reshape(nx, ny, 5, m).transpose(3, 2, 0, 1)  # (m, 5, nx, ny) views
        hv_planes = hv.reshape(nx, ny, 5, m).transpose(3, 2, 0, 1)
        step = max(1, _CHUNK_BYTES // (8 * d.n_dof))
        frame = np.zeros((min(step, m), 5, nx + 2, ny + 2))
        lap, r = np.empty_like(frame), ny + 2
        for lo in range(0, m, step):
            ext, lap_w = frame[: m - lo], lap[: m - lo]
            ext[..., 1:-1, 1:-1] = v_planes[lo : lo + step]
            # G lap = 2 lap + the q1-q4 coupling, 2 lap = 2 wx (2v - v_W - v_E) + 2 wy (2v - v_S - v_N)
            # in place on the flattened planes, where a node's neighbours are r and 1 entries away
            f, l = ext.reshape(-1), lap_w.reshape(-1)[r:-r]
            np.multiply(f[r:-r], 2.0, out=l)
            l -= f[: -2 * r]
            l -= f[2 * r :]
            l *= 2.0 * wx
            t = 2.0 * f[r:-r]
            t -= f[r - 1 : -r - 1]
            t -= f[r + 1 : 1 - r]
            t *= 2.0 * wy
            l += t
            out = lap_w[..., 1:-1, 1:-1]
            half0 = 0.5 * out[:, 0]
            out[:, 0] += 0.5 * out[:, 3]
            out[:, 3] += half0
            cells = _cell_grad(d, ext.transpose(0, 2, 3, 1))
            if cells is not None:
                out += cells.transpose(0, 3, 1, 2)
            b = bulk(ext[..., 1:-1, 1:-1])
            b *= d.lambda2 * d.hx * d.hy
            out += b
            hv_planes[lo : lo + step] = out
        return hv.reshape(np.shape(v))

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
        wx, wy = domain.edge_weights
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
        return self._scaled(r, np.divide, self.eigenvalues if shift == 0.0 else self.eigenvalues + shift)

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


@kept_on_domain
def l1_operator(domain: Domain) -> SineSolver:
    """`domain`'s L1 as one SineSolver, kept on the domain: the solvers'
    metric M, the SAV step's solve and its step ladder's spectrum."""
    return SineSolver(domain)
