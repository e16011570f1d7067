"""Radial hedgehog profile as a 1D two-point boundary value problem.

The spherically symmetric defect Q(x) = h(r)(n n^T - I/3) with n = x/|x|
reduces the tensor equation to a scalar ODE for the amplitude,

    h'' + (2/r) h' - (6/r^2) h = a h - (b/3) h^2 + (2c/3) h^3,

with h(0) = 0 at the core and h(R) = s_plus on the outer shell.  A
second-order finite-difference discretization is relaxed by a damped
Newton iteration on its tridiagonal Jacobian; the singular 1/r terms
only ever appear at interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NoConvergence, ValidationError, check_positive
from .qtensor import BulkParams, critical_points

__all__ = ["HedgehogProfile", "solve_profile", "ode_residual"]

# Newton stops below this interior max-norm residual, gives up after
# _MAX_ITERS steps, and halves a step at most _MAX_BACKTRACKS times.
_TOL = 1e-10
_MAX_ITERS = 100
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class HedgehogProfile:
    R: float
    r: np.ndarray  # r_i = i * dr, i = 0..N
    h: np.ndarray  # profile values, h[0] = 0, h[N] = s_plus
    s_plus: float
    residual: float  # converged interior max-norm residual

    @property
    def n_intervals(self) -> int:
        return self.r.size - 1


def _interior_residual(h: np.ndarray, r: np.ndarray, dr: float, p: BulkParams) -> np.ndarray:
    hi = h[1:-1]
    ri = r[1:-1]
    d2 = (h[2:] - 2.0 * hi + h[:-2]) / dr**2
    d1 = (h[2:] - h[:-2]) / (2.0 * dr)
    reaction = p.a * hi - (p.b / 3.0) * hi**2 + (2.0 * p.c / 3.0) * hi**3
    return d2 + (2.0 / ri) * d1 - (6.0 / ri**2) * hi - reaction


def ode_residual(profile: HedgehogProfile, p: BulkParams) -> np.ndarray:
    """Interior residual of the discrete ODE, for independent audits."""
    dr = profile.r[1] - profile.r[0]
    return _interior_residual(profile.h, profile.r, dr, p)


def solve_profile(p: BulkParams, R: float, N: int) -> HedgehogProfile:
    """Solve the hedgehog amplitude on [0, R] with N intervals.

    Starts from the linear ramp h(r) = s_plus r / R (both boundary
    conditions hold, and it sits inside the Newton basin for moderate
    parameters) and damps each Newton step by halving until the interior
    max-norm residual decreases.
    """
    check_positive("R", R)
    if N < 64:
        raise ValidationError(f"N must be at least 64, got {N!r}")
    s_plus = critical_points(p).s_plus

    dr = R / N
    r = np.linspace(0.0, R, N + 1)
    h = s_plus * r / R
    h[0] = 0.0
    h[-1] = s_plus

    ri = r[1:-1]
    off_hi = 1.0 / dr**2 + 1.0 / (ri * dr)  # coupling to h_{i+1}
    off_lo = 1.0 / dr**2 - 1.0 / (ri * dr)  # coupling to h_{i-1}

    res = _interior_residual(h, r, dr, p)
    res_norm = float(np.abs(res).max())
    history = [res_norm]
    for it in range(_MAX_ITERS):
        if res_norm < _TOL:
            return HedgehogProfile(R=float(R), r=r, h=h, s_plus=float(s_plus), residual=res_norm)
        hi = h[1:-1]
        diag = -2.0 / dr**2 - 6.0 / ri**2 - (p.a - (2.0 * p.b / 3.0) * hi + 2.0 * p.c * hi**2)
        ab = np.zeros((3, ri.size))
        ab[0, 1:] = off_hi[:-1]
        ab[1, :] = diag
        ab[2, :-1] = off_lo[1:]
        delta = solve_banded((1, 1), ab, -res)

        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            h_try = h.copy()
            h_try[1:-1] = hi + step * delta
            res_try = _interior_residual(h_try, r, dr, p)
            norm_try = float(np.abs(res_try).max())
            if np.isfinite(norm_try) and norm_try < res_norm:
                h, res, res_norm = h_try, res_try, norm_try
                history.append(res_norm)
                break
            step *= 0.5
        else:
            raise NoConvergence(
                f"Newton step stalled; residual history tail {history[-4:]}",
                iterations=it,
                residual=res_norm,
            )
    if res_norm < _TOL:
        return HedgehogProfile(R=float(R), r=r, h=h, s_plus=float(s_plus), residual=res_norm)
    raise NoConvergence(
        f"damped Newton exhausted its budget; residual history tail {history[-4:]}",
        iterations=_MAX_ITERS,
        residual=res_norm,
    )
