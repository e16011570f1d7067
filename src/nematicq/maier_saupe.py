"""Homogeneous Maier-Saupe critical points and Leslie coefficients.

Axially symmetric critical points of the mean-field orientational free
energy are Boltzmann densities e^{eta (m.n)^2} whose concentration
parameter eta solves R(eta) = alpha with

    R(eta) = int_0^1 e^{eta z^2} dz / int_0^1 z^2 (1 - z^2) e^{eta z^2} dz.

R attains a positive minimum alpha* ~ 6.7314: below it only the
isotropic state exists; above it a prolate branch eta1 (stable) and an
oblate branch eta2 (unstable) bracket the minimizer eta*.  The uniaxial
order parameters S2, S4 of a branch feed the Leslie viscosity
coefficients; Parodi's relation and alpha3 - alpha2 = -gamma1 hold by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from .errors import ValidationError

__all__ = [
    "MsCriticalPoint",
    "LeslieSet",
    "ratio",
    "critical_alpha",
    "solve_branches",
    "order_parameters",
    "leslie_coefficients",
]

_ETA_MAX = 500.0
# brentq's absolute and relative tolerances on each branch's eta
_ETA_XTOL = 1e-13
_ETA_RTOL = 8.9e-16
_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-13, limit=200)


@dataclass(frozen=True)
class MsCriticalPoint:
    """One critical point of the homogeneous free energy at a given alpha.

    ``marginal`` flags the stability boundary: the isotropic state at
    alpha = 7.5 and the oblate branch as eta2 passes through 0 there.
    """

    eta: float
    branch: str  # "isotropic" | "prolate" | "oblate"
    stable: bool
    s2: float
    s4: float
    marginal: bool = False


@dataclass(frozen=True)
class LeslieSet:
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    gamma1: float
    gamma2: float


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not np.isfinite(eta) or abs(eta) > _ETA_MAX:
        raise ValidationError(f"eta must lie in [-{_ETA_MAX:g}, {_ETA_MAX:g}], got {eta!r}")
    return eta


@lru_cache(maxsize=8192)
def _moments(eta: float) -> tuple[float, float, float]:
    """(I0, I2, I4): moments of e^{eta z^2} on [0, 1], all scaled by
    e^{-max(eta, 0)} so nothing overflows; every consumer takes ratios."""
    shift = max(eta, 0.0)

    def moment(p: int) -> float:
        val, _ = quad(lambda z: z**p * np.exp(eta * z * z - shift), 0.0, 1.0, **_QUAD_OPTS)
        return val

    return moment(0), moment(2), moment(4)


def ratio(eta: float) -> float:
    """R(eta): the alpha at which concentration eta is critical."""
    eta = _check_eta(eta)
    i0, i2, i4 = _moments(eta)
    return i0 / (i2 - i4)


@lru_cache(maxsize=1)
def critical_alpha() -> tuple[float, float]:
    """(alpha*, eta*): minimum of R and its minimizer.

    A coarse scan brackets the basin; golden-section polishes it.
    """
    grid = np.linspace(-10.0, 30.0, 401)
    values = [ratio(g) for g in grid]
    i = int(np.argmin(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(ratio, bracket=(lo, grid[i], hi), method="golden", tol=1e-13)
    eta_star = float(res.x)
    return float(ratio(eta_star)), eta_star


def order_parameters(eta: float) -> tuple[float, float]:
    """Uniaxial order parameters (S2, S4) = (<P2>, <P4>) of the branch."""
    eta = _check_eta(eta)
    i0, i2, i4 = _moments(eta)
    m2, m4 = i2 / i0, i4 / i0
    s2 = 0.5 * (3.0 * m2 - 1.0)
    s4 = 0.125 * (35.0 * m4 - 30.0 * m2 + 3.0)
    return s2, s4


def _bracket_root(alpha: float, eta_star: float, direction: float) -> float:
    """Find eta with R(eta) >= alpha on the requested side of eta*."""
    step = 1.0
    edge = eta_star + direction * step
    while abs(edge) <= _ETA_MAX:
        if ratio(edge) >= alpha:
            return edge
        step *= 2.0
        edge = eta_star + direction * step
    raise ValidationError(
        f"alpha = {alpha:g} has no branch within |eta| <= {_ETA_MAX:g}"
    )


def solve_branches(alpha: float) -> list[MsCriticalPoint]:
    """All critical points at interaction strength alpha.

    Always contains the isotropic state (stable iff alpha < 7.5); above
    alpha* the prolate root eta1 > eta* (stable) and the oblate root
    eta2 < eta* (unstable) join it, each solving R(eta) = alpha to
    bisection accuracy.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValidationError("alpha must be positive")
    at_boundary = abs(alpha - 7.5) < 1e-12
    points = [
        MsCriticalPoint(
            eta=0.0,
            branch="isotropic",
            stable=alpha < 7.5,
            s2=0.0,
            s4=0.0,
            marginal=at_boundary,
        )
    ]
    alpha_star, eta_star = critical_alpha()
    if alpha <= alpha_star:
        return points

    def solve_side(direction: float) -> float:
        edge = _bracket_root(alpha, eta_star, direction)
        lo, hi = sorted((eta_star, edge))
        return float(brentq(lambda e: ratio(e) - alpha, lo, hi, xtol=_ETA_XTOL, rtol=_ETA_RTOL))

    eta1 = solve_side(+1.0)
    eta2 = solve_side(-1.0)
    s2, s4 = order_parameters(eta1)
    points.append(MsCriticalPoint(eta=eta1, branch="prolate", stable=True, s2=s2, s4=s4))
    s2, s4 = order_parameters(eta2)
    points.append(
        MsCriticalPoint(
            eta=eta2,
            branch="oblate",
            stable=False,
            s2=s2,
            s4=s4,
            marginal=abs(eta2) < 1e-8,
        )
    )
    return points


def leslie_coefficients(s2: float, s4: float, gamma1: float) -> LeslieSet:
    """Leslie viscosity coefficients from uniaxial order parameters.

    gamma1 (the rotational viscosity) is a caller-supplied parameter.
    alpha3 and alpha6 are constructed from the other coefficients so
    that alpha3 - alpha2 = -gamma1 and Parodi's relation
    alpha2 + alpha3 = alpha6 - alpha5 hold identically.
    """
    s2, s4, gamma1 = float(s2), float(s4), float(gamma1)
    alpha1 = -0.5 * s4
    alpha2 = 0.5 * (gamma1 - s2)
    alpha3 = alpha2 - gamma1
    alpha4 = 4.0 / 15.0 - (5.0 / 21.0) * s2 - s4 / 35.0
    alpha5 = s4 / 7.0 + 6.0 * s2 / 7.0
    alpha6 = alpha5 + (alpha2 + alpha3)
    return LeslieSet(
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=alpha3,
        alpha4=alpha4,
        alpha5=alpha5,
        alpha6=alpha6,
        gamma1=gamma1,
        gamma2=-s2,
    )
