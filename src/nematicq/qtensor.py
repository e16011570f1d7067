"""Pointwise algebra of traceless symmetric order tensors.

A tensor is stored as five independent components q = (q1, ..., q5) with

    Q = [[q1, q2, q3],
         [q2, q4, q5],
         [q3, q5, -q1 - q4]].

Every function here broadcasts over leading axes, so a whole field of
tensors is an array of shape (..., 5).  The squared Frobenius norm is the
quadratic form |Q|^2 = q^T G q whose matrix G couples q1 and q4; gradients
of scalar invariants are returned as plain partial derivatives with
respect to the five components.

The uniaxial quadratic 2c s^2 - b s + 3a = 0 is solved in closed form once,
for ``critical_points`` and for ``bulk_floor``, the SAV flow's bulk floor.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import NoNematicRoots, ShapeMismatch

__all__ = [
    "BulkParams",
    "BulkCriticalSet",
    "to_matrix",
    "sym_components",
    "G",
    "metric_apply",
    "frob2",
    "trq3",
    "biaxiality",
    "bulk_energy",
    "bulk_gradient",
    "bulk_energy_gradient",
    "bulk_hessian",
    "bulk_energy_uniaxial",
    "bulk_energy_uniaxial_deriv",
    "uniaxial_components",
    "critical_points",
    "bulk_floor",
]

# Biaxiality convention: tensors with |Q|^2 below this are reported beta = 0.
ISO_NORM2_FLOOR = 1e-12

# The Frobenius metric on the five components: |Q|^2 = q . G q.
G = np.array(
    [
        [2.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 2.0],
    ]
)


def _check_last_axis(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (5,):
        raise ShapeMismatch(f"expected trailing axis of length 5, got shape {q.shape}")
    return q


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Map component vectors (..., 5) to matrices (..., 3, 3)."""
    q = _check_last_axis(q)
    m = np.empty(q.shape[:-1] + (3, 3), dtype=float)
    q1, q2, q3, q4, q5 = (q[..., k] for k in range(5))
    m[..., 0, 0] = q1
    m[..., 0, 1] = q2
    m[..., 0, 2] = q3
    m[..., 1, 0] = q2
    m[..., 1, 1] = q4
    m[..., 1, 2] = q5
    m[..., 2, 0] = q3
    m[..., 2, 1] = q5
    m[..., 2, 2] = -q1 - q4
    return m


def sym_components(m: np.ndarray) -> np.ndarray:
    """Extract (q1..q5) from traceless symmetric matrices (..., 3, 3)."""
    m = np.asarray(m, dtype=float)
    return np.stack(
        [m[..., 0, 0], m[..., 0, 1], m[..., 0, 2], m[..., 1, 1], m[..., 1, 2]], axis=-1
    )


def metric_apply(q: np.ndarray) -> np.ndarray:
    """Apply the Frobenius metric G, so that |Q|^2 = q . metric_apply(q)."""
    return _check_last_axis(q) @ G


def _half_frob2(q1, q2, q3, q4, q5):
    """|Q|^2 / 2 from the component planes."""
    return q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4 + q5 * q5 + q1 * q4


def _det(q1, q2, q3, q4, q5, q6):
    """det Q from the component planes, q6 = -q1 - q4."""
    return q1 * (q4 * q6 - q5 * q5) - q2 * (q2 * q6 - q3 * q5) + q3 * (q2 * q5 - q3 * q4)


def frob2(q: np.ndarray) -> np.ndarray:
    """|Q|^2 = tr(Q^2), broadcast over leading axes."""
    q = _check_last_axis(q)
    return 2.0 * _half_frob2(*(q[..., k] for k in range(5)))


def trq3(q: np.ndarray) -> np.ndarray:
    """tr(Q^3) = 3 det(Q) for traceless Q, broadcast over leading axes."""
    q = _check_last_axis(q)
    q1, q2, q3, q4, q5 = (q[..., k] for k in range(5))
    return 3.0 * _det(q1, q2, q3, q4, q5, -q1 - q4)


def biaxiality(q: np.ndarray) -> np.ndarray:
    """Biaxiality parameter beta = 1 - 6 tr(Q^3)^2 / tr(Q^2)^3 in [0, 1].

    beta = 0 exactly on uniaxial tensors and, by convention, on tensors
    with |Q|^2 below ``ISO_NORM2_FLOOR``; beta = 1 on maximally biaxial
    ones.  The result is clipped to [0, 1] to absorb rounding.
    """
    q = _check_last_axis(q)
    f2 = frob2(q)
    t3 = trq3(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = 1.0 - 6.0 * t3 * t3 / (f2 * f2 * f2)
    beta = np.where(f2 < ISO_NORM2_FLOOR, 0.0, beta)
    return np.clip(beta, 0.0, 1.0)


@dataclass(frozen=True)
class BulkParams:
    """Coefficients of the bulk density f_b(Q) = a/2 |Q|^2 - b/3 tr Q^3 + c/4 |Q|^4.

    ``a`` carries the temperature; optionally record the linear law
    a = thermal_slope * (T - t_star) so that critical temperatures can be
    reported.  b and c must not be negative, and c = 0 needs b = 0 and
    a >= 0 (quadratic-only diagnostics): otherwise the density is not
    bounded below.
    """

    a: float
    b: float
    c: float
    thermal_slope: float | None = None
    t_star: float | None = None

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ShapeMismatch(f"bulk coefficient {name} must be finite, got {v}")
        # b = c = 0 is allowed for quadratic-only diagnostics; negative
        # coefficients never are.
        if self.b < 0 or self.c < 0:
            raise ShapeMismatch(f"bulk coefficients need b, c >= 0, got b={self.b}, c={self.c}")
        if self.c == 0 and not (self.b == 0 and self.a >= 0):
            raise ShapeMismatch(
                f"c = 0 needs b = 0 and a >= 0 for a bulk energy bounded below, got a={self.a}, b={self.b}"
            )


def _density(p: BulkParams, f2, t3):
    """a/2 |Q|^2 - b/3 tr Q^3 + c/4 |Q|^4 from f2 = |Q|^2 and t3 = tr Q^3."""
    return 0.5 * p.a * f2 - (p.b / 3.0) * t3 + 0.25 * p.c * f2 * f2


def bulk_energy(q: np.ndarray, p: BulkParams) -> np.ndarray:
    """Bulk density a/2 |Q|^2 - b/3 tr Q^3 + c/4 |Q|^4 per tensor, component-major."""
    return _bulk_pass(q, p, True, gradient=False)[0]


def bulk_gradient(q: np.ndarray, p: BulkParams) -> np.ndarray:
    """Partials of the bulk density with respect to (q1..q5), in closed form

        (a + c |Q|^2) G q - b d(det Q)/dq,   q6 = -q1 - q4,

    G the Frobenius metric; the matrix form a Q - b (Q^2 - |Q|^2/3 I)
    + c |Q|^2 Q contracted against dQ/dq, without the matrices.
    """
    return _bulk_pass(q, p, False)[1]


def bulk_energy_gradient(q: np.ndarray, p: BulkParams) -> tuple[np.ndarray, np.ndarray]:
    """``(bulk_energy(q, p), bulk_gradient(q, p))`` bit for bit, from one
    component-major pass that evaluates |Q|^2 and det Q once per tensor."""
    return _bulk_pass(q, p, True)


def _bulk_pass(q: np.ndarray, p: BulkParams, energy: bool, gradient: bool = True):
    """(bulk_energy or None, bulk_gradient or None) of q, each only when asked for."""
    q = _check_last_axis(q)
    # component-major copy, so that every product below runs on contiguous data
    q1, q2, q3, q4, q5 = np.moveaxis(q, -1, 0).copy()
    q6 = -q1 - q4
    half = _half_frob2(q1, q2, q3, q4, q5)
    density = _density(p, 2.0 * half, 3.0 * _det(q1, q2, q3, q4, q5, q6)) if energy else None
    if not gradient:
        return density, None
    s = p.a + 2.0 * p.c * half
    b = p.b
    out = np.empty_like(q)
    out[..., 0] = s * (2.0 * q1 + q4) - b * (q4 * (q6 - q1) - q5 * q5 + q2 * q2)
    out[..., 1] = 2.0 * (s * q2 - b * (q3 * q5 - q2 * q6))
    out[..., 2] = 2.0 * (s * q3 - b * (q2 * q5 - q3 * q4))
    out[..., 3] = s * (q1 + 2.0 * q4) - b * (q1 * (q6 - q4) - q3 * q3 + q2 * q2)
    out[..., 4] = 2.0 * (s * q5 - b * (q2 * q3 - q1 * q5))
    return density, out


def _det_hessian(q1, q2, q3, q4, q5) -> np.ndarray:
    """d^2 det Q / dq^2: the derivatives of the det partials in bulk_gradient."""
    q6 = -q1 - q4
    return 2.0 * np.array(
        [
            [-q4, q2, 0.0, q6, -q5],
            [q2, -q6, q5, q2, q3],
            [0.0, q5, -q4, -q3, q2],
            [q6, q2, -q3, -q1, 0.0],
            [-q5, q3, q2, 0.0, -q1],
        ]
    )


# det Q is cubic, so d^2 det Q / dq_i dq_j is row 5i + j of this (25, 5) table dotted with q
_DET_HESSIAN = np.array([_det_hessian(*e) for e in np.eye(5)]).reshape(5, 25).T.copy()


def bulk_hessian(q: np.ndarray, p: BulkParams) -> Callable[[np.ndarray], np.ndarray]:
    """The bulk Hessian at each tensor of q (..., 5), as a map that applies it
    to a component-major block v (m, 5, ...), the five component planes of
    each of m fields on the tensors' grid, and returns the same layout:

        (a + c |Q|^2) G v + 2c (q^T G v) G q - b (d^2 det Q / dq^2) v,

    the derivative of ``bulk_gradient`` along v.  Each tensor's 5 x 5 matrix (less the
    rank-one term) is assembled once, component-major, when the map is made; one
    contraction applies it to all m fields, each as in its single call bit for bit.
    """
    q = _check_last_axis(q)
    qc = q.reshape(-1, 5).T
    gq = G @ qc
    # row 5i + j: -b d^2 det Q / dq_i dq_j + (a + c |Q|^2) G_ij
    table = np.hstack([(-p.b) * _DET_HESSIAN, G.reshape(25, 1)])
    h = (table @ np.vstack([qc, p.a + p.c * np.einsum("in,in->n", qc, gq)])).reshape(5, 5, -1)

    def apply(v: np.ndarray) -> np.ndarray:
        # on a flattened copy of the grid: einsum is three times slower on 4-d views
        vc = v.reshape(v.shape[:2] + (-1,))
        out = np.einsum("ijn,mjn->min", h, vc)
        t = np.einsum("jn,mjn->mn", gq, vc)
        t *= 2.0 * p.c
        out += gq * t[:, None]
        return out.reshape(v.shape)

    return apply


def uniaxial_components(s, n) -> np.ndarray:
    """Components of the uniaxial tensor s (n n^T - I/3) for unit director n."""
    n = np.asarray(n, dtype=float)
    s = np.asarray(s, dtype=float)
    m = s[..., None, None] * (n[..., :, None] * n[..., None, :] - np.eye(3) / 3.0)
    return sym_components(m)


def bulk_energy_uniaxial(s, p: BulkParams):
    """Bulk density restricted to uniaxial tensors of amplitude s."""
    s = np.asarray(s, dtype=float)
    return p.a * s * s / 3.0 - 2.0 * p.b * s**3 / 27.0 + p.c * s**4 / 9.0


def bulk_energy_uniaxial_deriv(s, p: BulkParams):
    """d/ds of the uniaxial bulk density: (2s/9)(2c s^2 - b s + 3a)."""
    s = np.asarray(s, dtype=float)
    return (2.0 * s / 9.0) * (2.0 * p.c * s * s - p.b * s + 3.0 * p.a)


def _uniaxial_roots(p: BulkParams) -> tuple[float, tuple]:
    """D = b^2 - 24ac and the real roots ((b + sqrt(D)) / 4c, (b - sqrt(D)) / 4c)
    of the uniaxial quadratic 2c s^2 - b s + 3a = 0, c > 0; no roots when D < 0."""
    disc = p.b * p.b - 24.0 * p.a * p.c
    if disc < 0.0:
        return disc, ()
    root = np.sqrt(disc)
    return disc, ((p.b + root) / (4.0 * p.c), (p.b - root) / (4.0 * p.c))


def bulk_floor(p: BulkParams) -> float:
    """Global minimum over all tensors of the bulk density (b >= 0, c > 0): it is
    attained on the uniaxial family, at s = 0 or a real root of 2c s^2 - b s + 3a."""
    return float(np.min(bulk_energy_uniaxial(np.array([*_uniaxial_roots(p)[1], 0.0]), p)))


@dataclass(frozen=True)
class BulkCriticalSet:
    """Critical amplitudes of the uniaxial bulk density and their stability.

    ``stability`` labels each of s_zero, s_minus, s_plus with one of
    "global_min", "local_min", "unstable", "marginal".  ``regime`` names
    the temperature window the coefficients sit in.  ``t_c`` (first-order
    transition) and ``t_ii`` (nematic spinodal) are populated when the
    linear temperature law is attached to the parameters.
    """

    params: BulkParams
    s_zero: float
    s_plus: float
    s_minus: float
    discriminant: float
    energies: dict = field(repr=False)
    stability: dict
    regime: str
    t_c: float | None = None
    t_ii: float | None = None


def critical_points(p: BulkParams) -> BulkCriticalSet:
    """Stationary amplitudes of f_b on the uniaxial slice.

    The nonzero stationary points solve 2c s^2 - b s + 3a = 0, so
    s = (b +- sqrt(b^2 - 24ac)) / (4c), as ``bulk_floor`` takes them; s_plus
    is the root with the lower restricted energy.  Raises NoNematicRoots when
    b^2 < 24ac.  Each returned root is verified stationary to 10 significant
    digits.
    """
    a, b, c = p.a, p.b, p.c
    if b <= 0 or c <= 0:
        raise ShapeMismatch("critical_points needs strictly positive b and c")
    disc, roots = _uniaxial_roots(p)
    if not roots:
        raise NoNematicRoots(a, b, c)
    r_hi, r_lo = roots
    e_hi = float(bulk_energy_uniaxial(r_hi, p))
    e_lo = float(bulk_energy_uniaxial(r_lo, p))
    if e_hi <= e_lo:
        s_plus, s_minus = r_hi, r_lo
    else:
        s_plus, s_minus = r_lo, r_hi
    for s in (s_plus, s_minus):
        scale = abs(a) * abs(s) + b * s * s + c * abs(s) ** 3 + 1.0
        resid = abs(float(bulk_energy_uniaxial_deriv(s, p)))
        if resid > 1e-9 * scale:
            raise ShapeMismatch(
                f"stationarity check failed at s={s:g}: |f'(s)| = {resid:g}"
            )

    a_c = b * b / (27.0 * c)
    a_ii = b * b / (24.0 * c)
    if a < 0.0:
        regime = "deep_nematic"
        stability = {"s_zero": "unstable", "s_minus": "unstable", "s_plus": "global_min"}
    elif a == 0.0:
        regime = "supercooling_limit"
        stability = {"s_zero": "marginal", "s_minus": "marginal", "s_plus": "global_min"}
    elif a < a_c:
        regime = "nematic_global"
        stability = {"s_zero": "local_min", "s_minus": "unstable", "s_plus": "global_min"}
    elif a == a_c:
        regime = "coexistence"
        stability = {"s_zero": "global_min", "s_minus": "unstable", "s_plus": "global_min"}
    elif a < a_ii:
        regime = "isotropic_global"
        stability = {"s_zero": "global_min", "s_minus": "unstable", "s_plus": "local_min"}
    else:
        regime = "superheating_limit"
        stability = {"s_zero": "global_min", "s_minus": "marginal", "s_plus": "marginal"}

    t_c = t_ii = None
    if p.thermal_slope is not None and p.t_star is not None and p.thermal_slope > 0:
        t_c = a_c / p.thermal_slope + p.t_star
        t_ii = a_ii / p.thermal_slope + p.t_star

    energies = {
        "s_zero": 0.0,
        "s_plus": float(bulk_energy_uniaxial(s_plus, p)),
        "s_minus": float(bulk_energy_uniaxial(s_minus, p)),
    }
    return BulkCriticalSet(
        params=p,
        s_zero=0.0,
        s_plus=float(s_plus),
        s_minus=float(s_minus),
        discriminant=float(disc),
        energies=energies,
        stability=stability,
        regime=regime,
        t_c=t_c,
        t_ii=t_ii,
    )
