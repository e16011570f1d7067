"""Smallest Hessian eigenpairs through matrix-free operator actions.

The Hessian is only available as matrix-vector products, taken a whole
block at a time (exact for ``LdGSystem``, central differences of the
gradient by default for other systems), so the small end of the
spectrum comes from one call of the module's own block LOBPCG with a
budget of 3200 iterations.  LOBPCG iterates k + 2 columns and reports
the smallest k (Knyazev's guard vectors, SIAM J. Sci. Comput. 23, 517,
2001): on the square, symmetric states have degenerate eigenvalue
pairs, and two guards hold the pair after the reported ones.  They
speed up the reported pairs but do not decide when to stop (the
index-2 cross state at 16^2, k = 2: 14 iterations; 376 when the guards
had to converge too).  The reported pairs are the call's first k Ritz
pairs, and one fresh product of those k columns checks their residuals:
the certificate does not trust the loop's recurrence, and the Morse
index sees only the k reported pairs.
Every solve starts from one fixed random block plus the metric's k + 2
lowest eigenvectors (L1's sine modes, which took a 64^2 minimum's
certificate from 12 to 8 iterations; none for the identity), so the
spectrum depends only on the operator; a caller that already holds
eigenvectors (a ``SaddleRecord``) uses them instead of solving again.
``smallest_eigs`` preconditions with the system's SPD metric M
(``preconditioner_of``, the identity for a system that brings none),
shifted toward the Hessian's low end: W = (M - _THETA mu0 I)^-1 R, mu0
M's smallest eigenvalue, is nearer (H - lambda1 I)^-1 on the wanted pairs
than M^-1 R (Knyazev and Neymeyr, Linear Algebra Appl. 358, 95, 2003)
and takes the 64^2 minimum from 8 to 6 iterations.  The identity's
shifted solve is R itself, so Euclidean solves keep their bits.
Tiny problems are assembled densely instead, and their pairs pass the
same residual check.  Ten power iterations estimate the spectral scale
behind the tolerances.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoConvergence, ShapeMismatch
from .systems import EUCLIDEAN, System, make_rng, preconditioner_of

__all__ = ["SpectrumReport", "smallest_eigs", "solve_smallest", "operator_scale"]

# Problems at or below this size are solved densely; above it n > 3 (k + _GUARD) for every k <= 30.
_DENSE_CUTOFF = 160
# LOBPCG iterates k + _GUARD columns and reports the smallest k
_GUARD = 2
# LOBPCG iterations of a certificate's one call
_MAXITER = 3200
# Power iterations behind the spectral scale
_POWER_ITERS = 10
# LOBPCG's W solves with M - _THETA mu0 I, mu0 the metric's smallest eigenvalue;
# below 1 it stays SPD, and of 0, 0.5, 0.8 and 0.9 the workloads' certificates
# took the fewest iterations at 0.8 (0.9 slowed an index-1 landing)
_THETA = 0.8


@dataclass
class SpectrumReport:
    """k smallest eigenpairs of a Hessian, with verification data.

    ``eigenvalues`` ascend; ``eigenvectors`` has orthonormal columns;
    ``residuals`` are |H v - lambda v|_2 per pair; ``scale`` estimates
    |H|_2; ``morse_index`` counts eigenvalues below -tol_eig among the
    computed ones (a lower bound on the true index when all k qualify);
    ``iterations`` counts the iterations its one LOBPCG call ran
    (0 for a dense solve).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    scale: float
    tol_eig: float
    morse_index: int
    iterations: int

    @property
    def stable(self) -> bool:
        return self.morse_index == 0


def operator_scale(apply_h, n: int) -> float:
    """Dominant |eigenvalue| estimate from _POWER_ITERS power iterations."""
    gen = make_rng(0, "spectrum:power")
    v = gen.normal(size=n)
    v /= np.linalg.norm(v)
    nrm = 0.0
    for _ in range(_POWER_ITERS):
        w = apply_h(v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0 or not np.isfinite(nrm):
            break
        v = w / nrm
    if not np.isfinite(nrm):
        raise NoConvergence("operator norm estimate diverged", _POWER_ITERS, nrm)
    return max(nrm, 1e-300)


def inverse_factor(rows: np.ndarray, m_rows: np.ndarray | None = None, floor: float = 0.0) -> np.ndarray:
    """L^-1 for the Cholesky factor L L^T = rows @ m_rows.T, the Gram matrix in the metric M (m_rows =
    M rows, the rows by default): L^-1 @ rows is M-orthonormal with Gram-Schmidt's nested spans, and
    L_ii is row i's M-norm once the rows above are projected out.  LinAlgError when the Gram matrix
    is not positive definite or an L_ii is below ``floor`` (when set) times row i's M-norm."""
    gram = rows @ (rows if m_rows is None else m_rows).T
    factor = np.linalg.cholesky(gram)
    if floor and (factor.diagonal() ** 2 < floor**2 * gram.diagonal()).any():
        raise np.linalg.LinAlgError("rows dependent in the metric")
    return np.linalg.inv(factor)


def _orthonormalize(rows: np.ndarray) -> None:
    """Orthonormalize the rows in place by ``inverse_factor``, else by QR."""
    try:
        rows[:] = inverse_factor(rows) @ rows
    except np.linalg.LinAlgError:
        rows[:] = np.linalg.qr(rows.T)[0].T


def lobpcg(apply_h, x: np.ndarray, *, k: int, tol: float, maxiter: int, precond=EUCLIDEAN):
    """Block LOBPCG from the (n, m) start block ``x``: Rayleigh-Ritz on
    [X; W; P], kept as rows of (3m, n) buffers S and H S that ``apply_h`` and
    ``precond.solve`` see transposed.  Only columns with a residual above
    ``tol`` get a W = (M - _THETA mu0 I)^-1 R (orthonormal, orthogonal to X)
    or a P; P is dropped when it or the Gram pencil is not positive definite.
    The shift, mu0 = ``precond.lowest_eigenvalue``, moves the preconditioner
    toward (H - lambda1 I)^-1 at the low end, where the certificates' lambda1
    lies below mu0 (0.71 mu0 at the 64^2 minimum), while keeping it SPD with
    smallest eigenvalue (1 - _THETA) mu0.  Stops once the first k columns,
    the reported pairs, are below ``tol``, or after ``maxiter`` iterations.
    Returns the m Ritz values, the (n, m) Ritz block and the iterations run.
    """
    n, m = x.shape
    # unmapped when freed, where a malloc block this size would raise glibc's mmap threshold
    work = np.frombuffer(mmap.mmap(-1, 64 * m * n), dtype=float)
    sh, ph = work[: 6 * m * n].reshape(2, 3 * m, n), work[6 * m * n :].reshape(2, m, n)
    s, hs = sh
    s[:m] = x.T
    _orthonormalize(s[:m])
    hs[:m] = apply_h(s[:m].T).T
    q, q_xw, iterations = m, m, 0
    shift = -_THETA * precond.lowest_eigenvalue
    while True:
        for q in (q, q_xw):  # with P, then without it
            gram_a, gram_b = s[:q] @ hs[:q].T, s[:q] @ s[:q].T
            try:
                lam, c = scipy.linalg.eigh(0.5 * (gram_a + gram_a.T), gram_b, check_finite=False)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            break
        lam, c = lam[:m], c[:, :m]
        np.matmul(c[m:q].T, sh[:, m:q], out=ph)
        np.matmul(c[:m].T, sh[:, :m], out=sh[:, m : 2 * m])
        np.add(sh[:, m : 2 * m], ph, out=sh[:, :m])
        r = s[m : 2 * m]
        np.subtract(hs[:m], np.multiply(s[:m], lam[:, None], out=r), out=r)
        res = np.sqrt(np.einsum("ij,ij->i", r, r))
        if res[:k].max() <= tol or iterations == maxiter:
            break
        iterations += 1
        active = res > tol
        a = int(active.sum())
        # with every column active, R and P go through whole, uncopied
        ra = r if a == m else r[active]
        s[m : m + a] = precond.solve(ra.T, shift).T
        w = s[m : m + a]
        w -= (w @ s[:m].T) @ s[:m]
        _orthonormalize(w)
        hs[m : m + a] = apply_h(w.T).T
        q = q_xw = m + a
        if iterations > 1:  # the last Rayleigh-Ritz had a W, so there is a P
            pp = sh[:, q : q + a]
            p = ph if a == m else np.compress(active, ph, axis=1, out=pp)
            try:
                np.matmul(inverse_factor(p[0]), p, out=pp)
                q += a
            except np.linalg.LinAlgError:
                pass
    return lam, s[:m].T.copy(), iterations


def solve_smallest(apply_h, n: int, k: int, precond=EUCLIDEAN) -> SpectrumReport:
    """k smallest eigenpairs of the symmetric operator ``apply_h`` on R^n.

    ``apply_h`` takes a vector or an (n, m) block and returns its shape,
    and so does ``precond.solve(r, shift)``, (M + shift I)^-1 of the SPD
    metric ``precond``, whose smallest eigenvalue is
    ``precond.lowest_eigenvalue``; ``lobpcg`` calls both on blocks, the
    solve with shift -_THETA mu0.  One ``lobpcg`` call of at most _MAXITER
    iterations, or a dense solve, gives the pairs; one fresh product of the k
    reported columns must verify their residuals below 1e-6 * scale or
    NoConvergence is raised.  Deterministic: the start block is drawn from
    one fixed stream, plus M's lowest eigenvectors (``add_lowest_modes``).
    """
    if not 1 <= k <= 30:
        raise ShapeMismatch(f"eigenpair count k must be in [1, 30], got {k}")
    if k > n:
        raise ShapeMismatch(f"requested {k} eigenpairs of an operator on R^{n}")
    scale = operator_scale(apply_h, n)
    tol_eig = 1e-8 * scale

    if n <= _DENSE_CUTOFF:
        h = apply_h(np.eye(n))
        w, v = np.linalg.eigh(0.5 * (h + h.T))
        iterations = 0
    else:
        x = make_rng(0, "spectrum:init").normal(size=(n, k + _GUARD))
        precond.add_lowest_modes(x)
        w, v, iterations = lobpcg(apply_h, x, k=k, tol=1e-8 * scale, maxiter=_MAXITER, precond=precond)
    w, v = w[:k], v[:, :k]
    res = np.linalg.norm(apply_h(v) - v * w, axis=0)
    if not res.max() <= 1e-6 * scale:  # NaN residuals fail too
        raise NoConvergence("eigensolver residuals above tolerance", iterations, float(res.max()))
    return SpectrumReport(
        eigenvalues=w,
        eigenvectors=v,
        residuals=res,
        scale=float(scale),
        tol_eig=float(tol_eig),
        morse_index=int(np.count_nonzero(w < -tol_eig)),
        iterations=iterations,
    )


def smallest_eigs(system: System, x: np.ndarray, k: int) -> SpectrumReport:
    """k smallest Hessian eigenpairs of ``system`` at the point ``x``.

    LOBPCG is preconditioned by ``preconditioner_of(system)``, shifted by
    -_THETA mu0 (tensor-field systems solve the SAV flow's L1 exactly; the
    identity changes nothing); ``solve_smallest`` takes any other.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    return solve_smallest(lambda v: system.hessian_vec(x, v), x.size, k, precond=preconditioner_of(system))
