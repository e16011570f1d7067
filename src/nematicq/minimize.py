"""Limited-memory quasi-Newton descent with backtracking line search.

Accepted iterates have non-increasing energies (Armijo condition with
c1 = 1e-4, step shrink 0.5) up to the rounding of E; convergence is
declared on the inf-norm of the gradient.  Every trial, and a projected
point, takes one ``energy_gradient``.  When a trial's energy change is
within 16 ulps of |E|, rounding would decide the Armijo test, so that
trial is judged by its gradient instead: by the
sufficient-decrease half of the approximate Wolfe conditions of Hager and
Zhang (SIAM J. Optim. 16, 2005), g(x + a d).d <= (2 delta - 1) g(x).d
with delta = 0.1 (backtracking only shortens a step, so their curvature
half is not tested), and by a lower gradient inf-norm.  L-BFGS has one
fallback.  A two-loop direction that does not point downhill (for
example after a corrupted curvature history) gets no line search; then,
or when its line search fails, the curvature history is discarded and
the step searches along steepest descent -M^-1 g.

The inverse Hessian is seeded with gamma M^-1 and the fallback descends
along -M^-1 g, where M is the system's SPD metric (``preconditioner_of``:
the identity for a system that brings none).  With M the SAV flow's
linear operator L1 of a tensor-field system the iteration count no
longer grows with the grid.

``_polish`` is the guarded Newton endgame that finishes both the saddle
searches (``hisd``) and the gradient flow (``sav``).  Its step solves
H d = -g preconditioned by M^-1: for a descent (k = 0) by conjugate
gradients that give up at the first direction of non-positive curvature
(Steihaug, SIAM J. Numer. Anal. 20, 1983; Nocedal and Wright, Numerical
Optimization, ch. 7), so it never heads for a saddle, and for an index-k
search by MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12, 1975),
which takes the indefinite H; k is the width of the search's directions V,
and the first step must follow the dynamics' -(M^-1 g - 2 V V^T g).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .errors import check_positive
from .spectrum import smallest_eigs  # noqa: F401  no caller here; perfbench/tracing.py rebinds minimize.smallest_eigs
from .systems import EUCLIDEAN, System, preconditioner_of

__all__ = [
    "MinimizeOptions",
    "MinimizeResult",
    "minimize",
    "lbfgs_direction",
]

# curvature pairs kept, Armijo constant, backtracking shrink and budget
_MEMORY = 10
_C1 = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60
# rounding band of E in ulps, and Hager and Zhang's delta
_BAND_ULPS = 16
_DELTA = 0.1
# The Newton endgame: linear-solve relative tolerance, steps per attempt, and the
# least M-cosine of its first step with the dynamics' direction -(M^-1 g - 2 V V^T g)
_NEWTON_RTOL = 1e-10
_NEWTON_STEPS = 10
_NEWTON_COS = 0.5
# hisd and sav try the endgame below _NEWTON_DECADE times |g|inf at the start and at each rejected attempt
_NEWTON_DECADE = 0.1


@dataclass
class MinimizeOptions:
    tol_grad: float = 1e-8
    max_iters: int = 2000
    # optional projection applied to accepted iterates (e.g. a symmetry
    # average); must map the feasible set to itself
    project: object = None


@dataclass
class MinimizeResult:
    x: np.ndarray
    energy: float
    grad_inf: float
    iterations: int
    converged: bool
    energies: list = field(default_factory=list, repr=False)
    n_energy: int = 0
    n_grad: int = 0


def lbfgs_direction(g: np.ndarray, pairs, gamma: float, precond=EUCLIDEAN) -> np.ndarray:
    """Two-loop recursion: approximate -H^{-1} g from curvature pairs.

    ``pairs`` holds (s, y, rho = 1/(s.y)) tuples, oldest first; the seed
    inverse Hessian is ``gamma`` times M^-1 (``precond.solve``; the
    identity by default).
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q = gamma * precond.solve(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def minimize(system: System, x0: np.ndarray, opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Descend to a stationary point of the system's energy.

    Returns the best iterate tagged ``converged=False`` when the
    iteration budget runs out or the line search stagnates at machine
    resolution: no trial lowers the energy by Armijo's test or, within
    16 ulps of |E|, lowers the gradient inf-norm.  Energies along
    accepted iterates never rise by more than that band.  A tol_grad
    outside (0, inf) raises ValidationError before any evaluation.
    """
    opts = opts or MinimizeOptions()
    check_positive("tol_grad", opts.tol_grad)
    precond = preconditioner_of(system)
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    e, g = system.energy_gradient(x)
    n_eval = 1  # energy_gradient calls
    pairs: deque = deque(maxlen=_MEMORY)
    gamma = 1.0
    energies = [e]

    it, g_inf = 0, system.grad_inf(g)
    while not g_inf < opts.tol_grad and it < opts.max_iters:
        it += 1
        d = lbfgs_direction(g, pairs, gamma, precond)
        band = _BAND_ULPS * np.spacing(abs(e))
        while True:
            gd = float(g @ d)
            alpha = 1.0
            accepted = False
            # a direction that is not downhill gets no line search
            downhill = gd < -1e-14 * np.linalg.norm(g) * np.linalg.norm(d)
            for _ in range(_MAX_BACKTRACKS if downhill else 0):
                x_try = x + alpha * d
                e_try, g_try = system.energy_gradient(x_try)
                n_eval += 1
                if not abs(e_try - e) <= band:  # a non-finite trial fails Armijo's test
                    accepted = e_try <= e + _C1 * alpha * gd
                else:
                    accepted = float(g_try @ d) <= (2.0 * _DELTA - 1.0) * gd and system.grad_inf(g_try) < g_inf
                if accepted:
                    break
                alpha *= _SHRINK
            # without curvature pairs d already is steepest descent
            if accepted or not pairs:
                break
            # quasi-Newton step unusable: drop history, retry steepest descent -M^-1 g
            pairs.clear()
            gamma = 1.0
            d = lbfgs_direction(g, pairs, gamma, precond)
        if not accepted:
            break

        if opts.project is not None:
            x_proj = np.asarray(opts.project(x_try), dtype=float).reshape(-1)
            e_proj, g_proj = system.energy_gradient(x_proj)
            n_eval += 1
            # keep the projected point only while it preserves monotonicity
            if e_proj <= e:
                x_try, e_try, g_try = x_proj, e_proj, g_proj
        s = x_try - x
        y = g_try - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ precond.solve(y))
        x, e, g, g_inf = x_try, e_try, g_try, system.grad_inf(g_try)
        energies.append(e)

    return MinimizeResult(
        x=x,
        energy=e,
        grad_inf=g_inf,
        iterations=it,
        converged=g_inf < opts.tol_grad,
        energies=energies,
        n_energy=n_eval,
        n_grad=n_eval,
    )


def _energy_rose(e_new: float, e: float) -> bool:
    """Whether a k = 0 step from energy e to e_new rose by more than the rounding allowance 1e-12 (1 + |e|)."""
    return e_new > e + 1e-12 * (1.0 + abs(e))


def _descent_step(hess, g: np.ndarray, precond) -> np.ndarray | None:
    """d with H d = -g by conjugate gradients from 0, preconditioned by M^-1
    (``precond.solve``), to a residual whose M^-1-norm is below _NEWTON_RTOL
    times g's; None at the first direction p with p.Hp <= 0 or when g.size
    iterations do not get there."""
    d = np.zeros_like(g)
    r = -g
    z = precond.solve(r)
    # r is updated in place, and the identity's solve returns r itself
    p, rz = z.copy() if z is r else z, float(r @ z)
    stop = _NEWTON_RTOL**2 * rz
    for _ in range(g.size):
        hp = hess(p)
        curvature = float(p @ hp)
        if not curvature > 0.0:
            return None
        alpha = rz / curvature
        d += alpha * p
        r -= alpha * hp
        z = precond.solve(r)
        rz, rz_prev = float(r @ z), rz
        if rz <= stop:
            return d
        p = z + (rz / rz_prev) * p
    return None


def _reflected_direction(precond, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^-1 g - 2 V (V^T g) for M-orthonormal directions V; the saddle dynamics move along -it."""
    d = precond.solve(g)
    return d - 2.0 * v @ (v.T @ g) if v.shape[1] else d


def _polish(system: System, x: np.ndarray, e: float, g: np.ndarray, v: np.ndarray, tol_grad: float):
    """Guarded Newton steps from x (energy e, gradient g) toward a stationary
    point of index k, to a gradient inf-norm below tol_grad; the (n, k) block v
    holds the search's M-orthonormal directions (k = 0 for a descent or a flow).

    Each step solves H d = -g preconditioned by M^-1: by ``_descent_step``'s
    CG when k = 0, by MINRES at relative tolerance _NEWTON_RTOL otherwise.
    Returns the (x, energy, |g|inf) of every step, the last below tol_grad,
    or None when a guard fails: the CG solve meets non-positive curvature or
    does not converge, the first step makes an M-cosine below _NEWTON_COS with the
    dynamics' direction at x (``_reflected_direction``, negated), a step does not
    lower |g|inf, or (k = 0) raises the energy (``_energy_rose``), or _NEWTON_STEPS steps do not reach tol_grad.
    """
    precond = preconditioner_of(system)
    n, k = v.shape
    move = -_reflected_direction(precond, g, v)
    g_inf = system.grad_inf(g)
    path = []
    for _ in range(_NEWTON_STEPS):
        hess = partial(system.hessian_vec, x)
        if k == 0:
            d = _descent_step(hess, g, precond)
            if d is None:
                return None
        else:
            h_op = LinearOperator((n, n), matvec=hess, dtype=float)
            m_inv = LinearOperator((n, n), matvec=precond.solve, dtype=float)
            d = minres(h_op, -g, rtol=_NEWTON_RTOL, M=m_inv)[0]
        if not path:
            # the M-cosine of d and move
            md = precond.apply(d)
            if float(move @ md) < _NEWTON_COS * np.sqrt(float(d @ md) * float(move @ precond.apply(move))):
                return None
        x = x + d
        if not np.all(np.isfinite(x)):
            return None
        e_new, g = system.energy_gradient(x)
        g_new = system.grad_inf(g)
        if not (np.isfinite(e_new) and g_new < g_inf):
            return None
        if k == 0 and _energy_rose(e_new, e):
            return None
        e, g_inf = e_new, g_new
        path.append((x, e, g_inf))
        if g_inf < tol_grad:
            return path
    return None
