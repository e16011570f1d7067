"""Gradient-flow time integration with a scalar auxiliary variable.

The discrete free energy is split as

    F(q) = 1/2 q.Lq + c.q + F1(q) + const,

where L collects the elastic operator plus an `a1` multiple of the
Frobenius metric (``energy.linear_shift``; its one-constant part L1,
``energy.l1_operator``, is the solvers' metric M and each step's direct
solve), and the nonlinear remainder F1 is shifted by a constant C0 so
that F1 >= 1 on every field.  F1 - C0 is itself a bulk energy, with the
coefficients hx hy (lambda2 a - a1, lambda2 b, lambda2 c) of
lambda2 f_b - a1/2 |Q|^2, so F1 or its gradient is one bulk pass, and
C0 comes from that density's global minimum, ``qtensor.bulk_floor``.
Writing r = sqrt(F1), the flow dq/dt = -grad F is integrated by a
Crank-Nicolson scheme in (q, r) whose step delta of size h lowers the
modified energy

    1/2 q.Lq + c.q + r^2

by exactly |delta|^2 / h.  `flow_to_equilibrium` runs it to a stationary
field.  It relaxes r toward sqrt(F1) within 0.99 of each step's dissipation
(relaxed SAV, Jiang, Zhang and Zhao, J. Comput. Phys. 456, 2022), and
cycles h over a power-of-2 ladder whose rungs 2/lambda span L's spectrum:
a step of size h annihilates the eigenmode lambda = 2/h.  Its tail still
converges only linearly, on modes below L's spectrum, so once the measure
is a decade below its start value (and a decade further down after each
rejected attempt) the flow tries the saddle searches' guarded Newton
endgame with no directions, k = 0 (``minimize._polish``): CG steps on
H d = -g that stop at the first direction of non-positive curvature, so
they never head for a saddle, with no energy rise and a falling gradient.
Each Newton step adds a trace row whose r^2 = min(F1, M - 1/2 q.Lq - c.q),
M the modified energy before it, so its modified energy min(E, M) never
rises.  `max_steps` and the returned step count cover the SAV steps only.

A step costs one bulk pass at the extrapolated field, two sine solves
and one elastic apply, L q+ + c on the new field: it checks the step
against its Crank-Nicolson equation, is carried to the next step's
right-hand side and, with a bulk pass at q+, gives the flow's measure
and F1(q+).  Conjugate gradients run only when the check fails (l2/l3).
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field, replace
from itertools import chain, cycle
from math import ceil, floor, log2

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg
from scipy.sparse.linalg import splu  # noqa: F401  no longer called; perfbench/tracing.py rebinds sav.splu

from .errors import LinearSolveFailure, NoConvergence, SolveError, ValidationError, check_positive
from .field import Domain, QField, kept_on_domain
from .energy import LdGSystem, elastic_affine, elastic_apply, gradient, l1_operator, linear_shift
from .energy import free_energy  # noqa: F401  no longer called; perfbench/tracing.py rebinds sav.free_energy
from .minimize import _NEWTON_DECADE, _polish
from .qtensor import BulkParams, bulk_energy, bulk_energy_gradient, bulk_floor, metric_apply
from .qtensor import bulk_gradient  # noqa: F401  no longer called; perfbench/tracing.py rebinds sav.bulk_gradient

__all__ = [
    "SavSplit",
    "SavState",
    "sav_split",
    "sav_init",
    "sav_step",
    "step_ladder",
    "flow_to_equilibrium",
]

_CG_ATOL = 1e-10
_CG_MAXITER = 500
_ETA = 0.99  # share of a flow step's dissipation that relaxing r may spend


class SavSplit:
    """Linear/nonlinear energy splitting for the stabilized flow."""

    def __init__(self, domain: Domain):
        if domain.bulk.c <= 0.0:
            raise ValidationError("the stabilized flow needs a positive quartic bulk coefficient")
        self.domain = domain
        lam2, p = domain.lambda2, domain.bulk
        self.a1 = linear_shift(domain)
        # lambda2 f_b - a1/2 |Q|^2 as one bulk density (lambda2 > 0 keeps b, c >= 0)
        shifted = BulkParams(lam2 * p.a - self.a1, lam2 * p.b, lam2 * p.c)
        self.c0 = 1.0 - bulk_floor(shifted)
        # with e0 - C0 the modified and the true energy agree whenever r^2 = F1
        self.shift, e0 = elastic_affine(domain)
        self._constant = e0 - self.c0
        self._hw = hw = domain.hx * domain.hy
        self._bulk = BulkParams(hw * shifted.a, hw * shifted.b, hw * shifted.c)  # F1 - C0 per node

    def l_apply(self, flat: np.ndarray) -> np.ndarray:
        values = flat.reshape(self.domain.shape)
        out = elastic_apply(self.domain, flat)
        out += (self.a1 * self._hw) * metric_apply(values).reshape(-1)
        return out

    def f1(self, flat: np.ndarray) -> float:
        """Nonlinear remainder; >= 1 on every field by choice of C0."""
        return float(np.sum(bulk_energy(flat.reshape(self.domain.shape), self._bulk))) + self.c0

    def f1_grad_f1(self, flat: np.ndarray) -> tuple[float, np.ndarray]:
        """F1 and its gradient from one bulk pass; the F1 is ``f1(flat)`` bit for bit."""
        density, g = bulk_energy_gradient(flat.reshape(self.domain.shape), self._bulk)
        return float(np.sum(density)) + self.c0, g.reshape(-1)

    def modified_energy(self, flat: np.ndarray, r: float) -> float:
        quad = 0.5 * float(flat @ self.l_apply(flat)) + float(self.shift @ flat)
        return quad + r * r + self._constant

    def sherman_morrison(self, dt: float, bvec: np.ndarray):
        """x -> (P + b b^T)^-1 x by Sherman-Morrison, P^-1 = 2 (L1 + (2/dt) I)^-1 the
        shifted solve of the domain's ``l1_operator``, L1 the one-constant part of L:
        the exact inverse of the step operator I/dt + L/2 + b b^T when l2 = l3 = 0.
        Building it takes one sine solve, each use one more."""
        l1, shift = l1_operator(self.domain), 2.0 / dt
        u = l1.solve(bvec, shift)
        u *= 2.0
        denom = 1.0 + float(bvec @ u)

        def solve(v):
            z = l1.solve(v, shift)
            z *= 2.0
            z -= u * (float(bvec @ z) / denom)
            return z

        return solve

    def solve_cn(self, dt: float, bvec: np.ndarray, rhs: np.ndarray, precond, atol: float = _CG_ATOL) -> np.ndarray:
        """Solve (I/dt + L/2 + b b^T) x = rhs by CG from zero, which costs no operator
        action, to a residual below max(atol, 1e-13 |rhs|), preconditioned by `precond`,
        the `sherman_morrison(dt, bvec)` inverse."""
        n = rhs.size

        def matvec(v):
            return v / dt + 0.5 * self.l_apply(v) + bvec * float(bvec @ v)

        a_op = LinearOperator((n, n), matvec=matvec, dtype=float)
        m_op = LinearOperator((n, n), matvec=precond, dtype=float)
        x, info = cg(a_op, rhs, rtol=1e-13, atol=atol, maxiter=_CG_MAXITER, M=m_op)
        if info != 0:
            residual = float(np.linalg.norm(a_op @ x - rhs))
            if residual > atol * (1.0 + float(np.linalg.norm(rhs))):
                raise LinearSolveFailure(
                    f"conjugate gradient stalled at residual {residual:.3e} after {_CG_MAXITER} iterations"
                )
        return x


@kept_on_domain
def sav_split(domain: Domain) -> SavSplit:
    """Splitting for `domain`, built once and kept on the domain."""
    return SavSplit(domain)


@dataclass(frozen=True)
class SavState:
    """One point of the discrete flow.

    `r` tracks sqrt(F1) exactly at initialization and to O(dt^2) along
    the trajectory; `q_prev` feeds the extrapolated predictor.
    `linear_gradient` is L q + c of `field`, computed from that field,
    never updated by linearity; `sav_step` computes it when it is None.
    """

    field: QField
    r: float
    q_prev: QField | None = None
    step: int = 0
    time: float = 0.0
    linear_gradient: np.ndarray | None = _field(default=None, repr=False, compare=False)


def sav_init(field: QField) -> SavState:
    """The flow's state at `field`, r = sqrt(F1) exactly, split by the domain's `sav_split`."""
    split = sav_split(field.domain)
    r = float(np.sqrt(split.f1(field.flat)))
    return SavState(field=field, r=r, linear_gradient=split.l_apply(field.flat) + split.shift)


def sav_step(state: SavState, dt: float) -> SavState:
    """Advance one Crank-Nicolson step of the (q, r) flow, split by the domain's `sav_split`.

    The r update is eliminated, leaving a single SPD solve with the
    constant operator I/dt + L/2 plus a rank-one correction.  A
    stationary state with consistent r is an exact fixed point.

    One bulk pass at q_bar, delta by Sherman-Morrison (two sine solves)
    and one elastic apply, L q+ + c at q+ = q + delta, carried to the new
    state.  delta is accepted when the residual of the step's equation
    delta/dt + (Lq + c + Lq+ + c)/2 + 2 (r + b.delta/2) b is below the CG
    tolerance; otherwise CG solves for the correction e with A e = -residual
    from e = 0, to the same absolute tolerance, so the residual the check
    computed is not computed again, and L q+ + c is redone.
    A non-finite q+ raises NoConvergence with `iterations` at this step,
    and a dt outside (0, inf) ValidationError before any work.
    """
    check_positive("dt", dt)
    split = sav_split(state.field.domain)
    q = state.field.flat
    lin = split.l_apply(q) + split.shift if state.linear_gradient is None else state.linear_gradient
    q_bar = q if state.q_prev is None else 1.5 * q - 0.5 * state.q_prev.flat
    f1_bar, bvec = split.f1_grad_f1(q_bar)
    if not f1_bar >= 1.0 - 1e-9:
        raise SolveError(f"nonlinear remainder {f1_bar!r} dropped below its certified floor 1")
    bvec /= 2.0 * np.sqrt(f1_bar)
    rhs = (-2.0 * state.r) * bvec
    rhs -= lin
    precond = split.sherman_morrison(dt, bvec)
    delta = precond(rhs)
    q_next = q + delta
    lin_next = split.l_apply(q_next)
    lin_next += split.shift
    residual = 0.5 * (lin + lin_next)
    residual += delta / dt
    residual += (2.0 * state.r + float(bvec @ delta)) * bvec
    # scipy cg's stopping test; a non-finite delta skips CG and is caught below
    tol = max(_CG_ATOL, 1e-13 * float(np.linalg.norm(rhs)))
    if np.linalg.norm(residual) >= tol:
        delta = delta + split.solve_cn(dt, bvec, -residual, precond, atol=tol)
        q_next = q + delta
        lin_next = split.l_apply(q_next) + split.shift
    if not np.isfinite(q_next).all():
        raise NoConvergence(f"the flow left finite values at step {state.step + 1}", iterations=state.step + 1)
    return SavState(
        field=QField.from_flat(state.field.domain, q_next),
        r=state.r + float(bvec @ delta),
        q_prev=state.field,
        step=state.step + 1,
        time=state.time + dt,
        linear_gradient=lin_next,
    )


def step_ladder(domain: Domain, dt: float) -> range:
    """Exponents j of the flow's step sizes dt 2^j: from min(0, floor(log2(2/(lambda_max dt))))
    to max(0, ceil(log2(2/(lambda_min dt)))), lambda_min/max the extreme eigenvalues of L1.
    A dt whose bounds or rungs 2^j leave the positive floats raises ValidationError."""
    eig = l1_operator(domain).eigenvalues
    lo, hi = 2.0 / (float(eig[-1, -1, -1]) * dt), 2.0 / (float(eig[0, 0, 0]) * dt)
    if not 0.0 < lo <= hi <= 2.0**1023:
        raise ValidationError(f"step size {dt} has no finite ladder of steps dt 2^j")
    return range(min(0, floor(log2(lo))), max(0, ceil(log2(hi))) + 1)


def flow_to_equilibrium(
    init: QField,
    dt: float,
    tol_grad: float = 1e-7,
    max_steps: int = 100_000,
    trace: list | None = None,
) -> tuple[QField, int]:
    """Step sav_step until the true gradient inf-norm drops below tol_grad,
    finishing by a guarded Newton endgame once the flow is near a minimum.

    Returns (field, steps), steps the SAV steps taken; `max_steps` bounds
    them and no Newton step counts toward either.  A stationary input
    returns after 0 steps.  The first step has size dt; the next ones go up
    `step_ladder`'s rungs dt 2^j and wrap to its smallest.  `trace`, if
    given, collects (step, time, energy, modified_energy, grad_inf_norm)
    rows suitable for the trajectory CSV, built from the carried L q + c
    and the measure's F1, one per state.  Stability of the returned field
    is the caller's to certify.

    Each state gets one bulk pass: its measure |L q + c + grad F1(q)|inf,
    `gradient` up to rounding and confirmed below tol_grad by a fresh
    `gradient` before the field is returned, and F1(q), which relaxes r:
    after a step delta of size h from sav_step's r~, r^2 = min(F1,
    r~^2 + _ETA |delta|^2 / h), so the modified energy never rises.

    Once the measure is a decade below its start value, and again a decade
    further down after each rejected attempt, the flow tries the saddle
    searches' Newton endgame (``minimize._polish``) on ``LdGSystem(init.domain)``
    with no directions (k = 0), its first step checked against -M^-1 g:
    CG steps on H d = -g that stop at the first direction of non-positive
    curvature, so a landing is never a saddle, with no energy rise and a
    falling |g|inf.  An accepted attempt returns its last Newton iterate
    and adds a trace row per Newton step, numbered on from the last SAV
    row at that row's time, whose modified energy is min(E, M), M the row
    before, i.e. r^2 = min(F1(q+), M - 1/2 q+.Lq+ - c.q+); a row with
    M <= E - F1(q+), whose r^2 is not positive, rejects the attempt.

    A non-finite field or measure raises NoConvergence at its step, and
    a bad dt (not finite, or without a finite `step_ladder`), tol_grad or
    max_steps raises ValidationError before any.
    """
    check_positive("dt", dt)
    check_positive("tol_grad", tol_grad)
    if not max_steps >= 0:
        raise ValidationError(f"max_steps must be at least 0, got {max_steps!r}")
    split = sav_split(init.domain)
    system = LdGSystem(init.domain)
    rungs = step_ladder(init.domain, dt)
    sizes = (dt * 2.0**j for j in chain(range(rungs.stop), cycle(rungs)))
    state, bound = sav_init(init), np.inf
    while True:
        q, lin = state.field.flat, state.linear_gradient
        f1, grad = split.f1_grad_f1(q)
        state = replace(state, r=float(np.sqrt(min(f1, bound))))
        grad += lin
        g = system.grad_inf(grad)
        # 1/2 q.Lq + c.q + const from the carried L q + c
        quad = 0.5 * float(q @ (lin - split.shift)) + float(split.shift @ q) + split._constant
        modified = quad + state.r * state.r
        if trace is not None:
            trace.append((state.step, state.time, quad + f1, modified, g))
        if not np.isfinite(g):
            raise NoConvergence(f"the flow left finite values at step {state.step}", iterations=state.step, residual=g)
        if g < tol_grad and system.grad_inf(gradient(split.domain, state.field.values)) < tol_grad:
            return state.field, state.step
        if state.step == 0:
            polish_below = _NEWTON_DECADE * g
        elif g < polish_below:
            path = _polish(system, q, quad + f1, grad, np.empty((q.size, 0)), tol_grad) or []
            rows, m = [], modified
            for x, e, g_x in path:
                # the row's r^2 = min(F1, M - (E - F1)), M the row before, must be
                # positive; its modified energy is then min(E, M)
                if not m > e - split.f1(x):
                    break
                m = min(e, m)
                rows.append((state.step + len(rows) + 1, state.time, e, m, g_x))
            if path and len(rows) == len(path):
                if trace is not None:
                    trace.extend(rows)
                # a copy: returning the Newton iterate itself, allocated amid the solves'
                # temporaries, left relax64's peak RSS 1.1 MB higher (a heap-layout effect)
                return QField.from_flat(split.domain, path[-1][0]).copy(), state.step
            polish_below = _NEWTON_DECADE * g
        if state.step == max_steps:
            msg = f"gradient inf-norm {g:.3e} above {tol_grad:.3e} after {max_steps} steps"
            raise NoConvergence(msg, iterations=max_steps, residual=g)
        h = next(sizes)
        state = sav_step(state, h)
        delta = state.field.flat - q
        bound = state.r * state.r + _ETA * float(delta @ delta) / h
