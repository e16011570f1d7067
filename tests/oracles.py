"""Independent reference implementations that the tests compare against.

Sparse assemblies of the metric and the one-constant elastic operator,
and an eigendecomposition-based reading of a single tensor; the package
itself applies these operators matrix-free.  The SAV flow's nonlinear
remainder term by term, which the package folds into one bulk density.
A field snapshot written one value at a time, which the package writes
one row at a time.  The square's symmetry images by float rotation of the
node coordinates and conjugation of each 3 x 3 tensor, which the package
applies as a table of signed permutations.  scipy's LOBPCG, which runs
until every column has converged, where the package's own loop stops
once the reported pairs have.  Classical Gram-Schmidt, column by column,
where the package orthonormalizes a block by one Cholesky factor.  The
contraction of a matrix-valued derivative onto the five components, which
turns the matrix forms of the bulk gradient and Hessian into the partials
that the package evaluates in closed form.
"""

import warnings
from functools import partial
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lobpcg

import nematicq.spectrum as spectrum
from nematicq.field import Domain, QField
from nematicq.qtensor import G, bulk_energy, bulk_gradient, frob2, metric_apply, sym_components, to_matrix
from nematicq.systems import EUCLIDEAN


def dual_components(t: np.ndarray) -> np.ndarray:
    """Contract matrices against the component basis: (T:E_1, ..., T:E_5).

    For a scalar invariant f(Q), df/dq_alpha = (df/dQ) : E_alpha where
    E_alpha = dQ/dq_alpha.  This is the map that turns a matrix-valued
    derivative into component partials; it is not the inverse of
    ``to_matrix``.
    """
    t = np.asarray(t, dtype=float)
    return np.stack(
        [
            t[..., 0, 0] - t[..., 2, 2],
            t[..., 0, 1] + t[..., 1, 0],
            t[..., 0, 2] + t[..., 2, 0],
            t[..., 1, 1] - t[..., 2, 2],
            t[..., 1, 2] + t[..., 2, 1],
        ],
        axis=-1,
    )


def metric_matrix(domain: Domain) -> sp.csr_matrix:
    """Block-diagonal Frobenius metric on the flat vector: kron(I_nodes, G)."""
    return sp.kron(sp.identity(domain.nx * domain.ny, format="csr"), G, format="csr")


def elastic_matrix(domain: Domain) -> sp.csr_matrix:
    """Sparse one-constant elastic operator K with F_1[q] = 1/2 q^T K q + c^T q + const.

    Only the one-constant term is assembled; with l2 = l3 = 0 this is the
    full homogeneous elastic operator.  Node-major flat ordering matches
    ``QField.flat``.
    """
    wx = domain.hy / domain.hx
    wy = domain.hx / domain.hy

    def lap1d(n: int) -> sp.csr_matrix:
        return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])

    a = wx * sp.kron(lap1d(domain.nx), sp.identity(domain.ny)) + wy * sp.kron(
        sp.identity(domain.nx), lap1d(domain.ny)
    )
    return sp.kron(a, G, format="csr")


def elastic_form(domain: Domain, l2: float, l3: float) -> np.ndarray:
    """Dense homogeneous elastic form on the grid of `domain` with the l2/l3
    terms at (l2, l3), which may be values a Domain refuses: the one-constant
    ``elastic_matrix`` plus, per cell, hx hy times the literal density
    l2/2 sum_i (d_j Q_ij)^2 + l3/2 sum_ijk d_k Q_ij d_j Q_ik (j, k in x, y) of
    the cell-centred first differences, boundary values dropped.
    Node-major flat ordering matches ``QField.flat``.
    """
    nx, ny, hx, hy = domain.nx, domain.ny, domain.hx, domain.hy
    basis = np.array([to_matrix(e) for e in np.eye(5)])  # (5, 3, 3)
    form = elastic_matrix(domain).toarray()
    for i in range(nx + 1):
        for j in range(ny + 1):
            # d/dx and d/dy of Q at the cell centre, as (3, 3, 20) maps of the
            # corners' components; extended-grid node (a, b) is interior node (a-1, b-1)
            corners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
            d = np.zeros((2, 3, 3, 20))
            for m, (a, b) in enumerate(corners):
                cx = (0.5 if a == i + 1 else -0.5) / hx
                cy = (0.5 if b == j + 1 else -0.5) / hy
                d[0, :, :, 5 * m : 5 * m + 5] = cx * basis.transpose(1, 2, 0)
                d[1, :, :, 5 * m : 5 * m + 5] = cy * basis.transpose(1, 2, 0)
            div = d[0, :, 0] + d[1, :, 1]  # (3, 20)
            local = l2 * div.T @ div
            mixed = sum(np.outer(d[k, r, c], d[c, r, k]) for r in range(3) for c in range(2) for k in range(2))
            local += 0.5 * l3 * (mixed + mixed.T)
            keep = [(m, 5 * ((a - 1) * ny + (b - 1))) for m, (a, b) in enumerate(corners) if 1 <= a <= nx and 1 <= b <= ny]
            for m1, g1 in keep:
                for m2, g2 in keep:
                    form[g1 : g1 + 5, g2 : g2 + 5] += hx * hy * local[5 * m1 : 5 * m1 + 5, 5 * m2 : 5 * m2 + 5]
    return form


def sav_remainder(split, flat: np.ndarray) -> tuple[float, np.ndarray]:
    """F1 = hx hy sum(lambda2 f_b - a1/2 |Q|^2) + C0 and its gradient
    hx hy (lambda2 grad f_b - a1 G q), for the split of ``split.domain``."""
    d = split.domain
    values = flat.reshape(d.shape)
    hw = d.hx * d.hy
    dens = d.lambda2 * bulk_energy(values, d.bulk) - 0.5 * split.a1 * frob2(values)
    grad = d.lambda2 * bulk_gradient(values, d.bulk) - split.a1 * metric_apply(values)
    return hw * float(np.sum(dens)) + split.c0, hw * grad.reshape(-1)


def uniaxial_reading(q: np.ndarray, tol: float = 1e-8):
    """(kind, s, director) of one tensor from ``np.linalg.eigh(to_matrix(q))``.

    ``kind`` is "isotropic", "uniaxial" or "biaxial"; eigenvalues closer
    than ``tol`` count as equal.  A uniaxial s (n n^T - I/3) has spectrum
    {2s/3, -s/3, -s/3}, so s is 3/2 of the distinct eigenvalue and n its
    eigenvector (sign arbitrary); s and n are None otherwise.
    """
    w, v = np.linalg.eigh(to_matrix(q))
    lo, hi = w[1] - w[0], w[2] - w[1]
    if lo <= tol and hi <= tol:
        return "isotropic", None, None
    if lo <= tol:
        return "uniaxial", 1.5 * w[2], v[:, 2]
    if hi <= tol:
        return "uniaxial", 1.5 * w[0], v[:, 0]
    return "biaxial", None, None


def write_field_per_value(path, f: QField) -> None:
    """The snapshot format of ``fieldio.write_field``, each value formatted
    on its own with ``format(float(v), ".17g")``."""
    d = f.domain

    def g17(v) -> str:
        return format(float(v), ".17g")

    boundary = d.boundary if isinstance(d.boundary, str) else "custom"
    reals = (d.lambda2, d.bulk.a, d.bulk.b, d.bulk.c, d.l2, d.l3)
    lines = ["# " + ",".join([str(d.nx), str(d.ny)] + [g17(v) for v in reals] + [boundary])]
    for i in range(d.nx):
        for j in range(d.ny):
            cells = [str(i), str(j), g17(d.xs[i]), g17(d.ys[j])]
            lines.append(",".join(cells + [g17(v) for v in f.values[i, j]]))
    Path(path).write_text("\n".join(lines) + "\n")


def square_images(values: np.ndarray) -> list[np.ndarray]:
    """The eight images of a square (n, n, 5) field: for k quarter turns o2, then
    the same followed by x -> -x, node (i, j) goes to rint(o2 (i - t/2, j - t/2)
    + t/2), t = n - 1, carrying its tensor Q to O Q O^T with O = diag(o2, 1)."""
    n = values.shape[0]
    t = n - 1
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u, v = ii - t / 2.0, jj - t / 2.0
    rots = []
    for k in range(4):
        c, s = int(round(np.cos(k * np.pi / 2))), int(round(np.sin(k * np.pi / 2)))
        rots.append(np.array([[c, -s], [s, c]], dtype=float))
    images = []
    for o2 in rots + [np.diag([-1.0, 1.0]) @ r for r in rots]:
        ip = np.rint(o2[0, 0] * u + o2[0, 1] * v + t / 2.0).astype(int)
        jp = np.rint(o2[1, 0] * u + o2[1, 1] * v + t / 2.0).astype(int)
        o3 = np.eye(3)
        o3[:2, :2] = o2
        out = np.empty_like(values)
        out[ip, jp] = sym_components(np.einsum("ab,ijbc,dc->ijad", o3, to_matrix(values), o3))
        images.append(out)
    return images


def scipy_lobpcg(apply_h, x, *, k, tol, maxiter, precond=EUCLIDEAN):
    """``scipy.sparse.linalg.lobpcg`` under the signature of ``spectrum.lobpcg``:
    (Ritz values, Ritz block, iterations run), preconditioned by the same
    shifted solve (M - _THETA mu0 I)^-1.  It ignores ``k``: every column,
    guards included, must reach ``tol`` before it stops."""
    shift = -spectrum._THETA * precond.lowest_eigenvalue
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w, v, history = lobpcg(
            apply_h,
            x,
            M=partial(precond.solve, shift=shift),
            largest=False,
            tol=tol,
            maxiter=maxiter,
            retResidualNormsHistory=True,
        )
    # residuals of the start block, of each iteration up to the returned
    # iterate, and of its final Rayleigh-Ritz cleanup
    return w, v, len(history) - 2


def gram_schmidt(v: np.ndarray, precond=EUCLIDEAN) -> np.ndarray:
    """Classical Gram-Schmidt with one reorthogonalization pass, column by
    column in <a, b>_M = a^T M b, M applied once to the block by
    ``precond.apply``; the package orthonormalizes a block by one Cholesky
    factor of its Gram matrix instead.  For independent columns only."""
    v = np.array(v, dtype=float)
    mv = np.array(precond.apply(v), dtype=float)  # M v, updated along with v
    for i in range(v.shape[1]):
        for _ in range(2):
            for j in range(i):
                c = mv[:, j] @ v[:, i]
                v[:, i] -= c * v[:, j]
                mv[:, i] -= c * mv[:, j]
        nrm = float(np.sqrt(v[:, i] @ mv[:, i]))
        assert nrm > 1e-13, "dependent columns"
        mv[:, i] /= nrm
        v[:, i] /= nrm
    return v
