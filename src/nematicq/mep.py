"""Minimal energy paths by the two-step string method.

A path is a polyline of N fields between two stationary endpoints.  Each
sweep moves every interior node downhill (step 1) and then redistributes
nodes to equal arc length by linear interpolation (step 2), as in the
simplified string method.  The normal part of each move is preconditioned
by the system's metric M, as in the preconditioned string of Makri,
Ortner and Kermode, so the sweep count does not grow with the grid.
Each sweep evaluates its resampled nodes in one fused block pass
(``System.energies_gradients``), whose gradients the next residual and
step reuse; a path computes its chords, tangents and normal gradients
once.  The converged string's energy maximum seeds an index-1 climbing
refinement whose unstable direction starts along the string's tangent
there, as in climbing-image and climbing-string methods, so the climb's
only eigensolve is its certificate through the leading Hessian
eigenvalues; the barriers are measured from the string's own endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePath, NoConvergence, NotIndexOne, NotStationary, ValidationError, WrongIndex
from .field import QField
from .hisd import SaddleOptions, SaddleRecord, find_saddle
from .spectrum import operator_scale
from .spectrum import smallest_eigs  # noqa: F401  no caller here; perfbench/tracing.py rebinds mep.smallest_eigs
from .systems import System, preconditioner_of

__all__ = ["Path", "MepResult", "evolve_step", "reparametrize", "perpendicular_residual", "find_mep"]

_CHORD_SPREAD_TOL = 1e-8
# halvings of a node's step before it stays put (evolve_step)
_MAX_BACKTRACKS = 30
# resampling passes allowed to reach uniform spacing (reparametrize)
_MAX_PASSES = 200
# evolve/reparametrize sweeps allowed to bring a string below tol (find_mep)
_MAX_SWEEPS = 5_000


@dataclass(frozen=True)
class Path:
    """Polyline of fields with energies and arc-length labels.

    nodes has shape (N, n); alpha is the normalized cumulative chord
    length, strictly increasing from 0 to 1, and chords the N - 1 chord
    lengths it was built from.  The first and last node are the fixed
    endpoints.
    """

    system: System
    nodes: np.ndarray
    energies: np.ndarray
    alpha: np.ndarray
    chords: np.ndarray

    @classmethod
    def from_nodes(
        cls,
        system: System,
        nodes: np.ndarray,
        energies: np.ndarray | None = None,
        *,
        gradients: np.ndarray | None = None,
        chords: np.ndarray | None = None,
    ) -> "Path":
        """The path through nodes.  energies, the interior gradients and the
        chord lengths, when given, must be those of these nodes; the sweeps
        pass what they already evaluated, and the rest is evaluated here
        (energies, chords) or on first use (gradients)."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] < 3:
            raise ValidationError("a path needs at least 3 nodes of equal size")
        if energies is None:
            energies = system.energies(nodes)
        if chords is None:
            chords = _chords(nodes)
        total = float(chords.sum())
        if total < 1e-14:
            raise DegeneratePath("total path length below resolution")
        alpha = np.concatenate([[0.0], np.cumsum(chords)]) / total
        alpha[-1] = 1.0
        energies = np.asarray(energies, dtype=float)
        path = cls(system=system, nodes=nodes, energies=energies, alpha=alpha, chords=chords)
        if gradients is not None:
            vars(path)["gradients"] = gradients  # fills the cached property
        return path

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def gradients(self) -> np.ndarray:
        """Gradients at the interior nodes (row i - 1 for node i).  A path
        from ``reparametrize`` carries those of its one fused
        ``energies_gradients`` pass at the resampled nodes; any other path
        evaluates them once, on first use."""
        return self.system.gradients(self.nodes[1:-1])

    @cached_property
    def tangents(self) -> np.ndarray:
        """Unit chord tangents τ_i at the interior nodes (``_tangents``)."""
        return _tangents(self.nodes)

    @cached_property
    def normal_gradients(self) -> np.ndarray:
        """Π_i g_i = g_i − (g_i·τ_i)τ_i at the interior nodes, computed once per
        path and shared by the residual and the evolution step."""
        return _normal(self.gradients, self.tangents)

    def chord_spread(self) -> float:
        """Relative spread of consecutive chord lengths."""
        return _spread(self.chords)


@dataclass(frozen=True)
class MepResult:
    path: Path
    ts_index: int
    ts_field: np.ndarray
    barrier_forward: float
    barrier_backward: float
    ts_lambda1: float
    sweeps: int  # evolve/reparametrize sweeps the string took


def evolve_step(p: Path, base_step: float) -> Path:
    """Step 1: move every interior node i along d_i = g_i + Π_i(M⁻¹Π_i g_i − Π_i g_i).

    Π_i = I − τ_iτ_iᵀ removes the unit tangent τ_i (``_tangents``); M⁻¹,
    from ``preconditioner_of(system)``, is one block solve over all nodes.
    d_i vanishes exactly where Π_i g_i does, gᵀd ≥ 0, and with M = I, d = g.
    The per-node step starts at the shared ``base_step`` and halves until
    the node's energy does not increase; a node that cannot descend stays
    put.  Endpoints are untouched.  Node updates are mutually independent;
    the nodes still backtracking are evaluated in one ``energies`` call.
    """
    system = p.system
    if not 0.0 < base_step < np.inf:
        raise ValidationError("base step must be positive and finite")
    pg = p.normal_gradients
    d = p.gradients + _normal(preconditioner_of(system).solve(pg.T).T - pg, p.tangents)
    nodes, energies = p.nodes.copy(), p.energies.copy()
    active = np.arange(1, p.n_nodes - 1)  # nodes still backtracking
    step = base_step
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = p.nodes[active] - step * d[active - 1]
        e_trial = system.energies(trial)
        ok = np.isfinite(e_trial) & (e_trial <= energies[active])
        nodes[active[ok]] = trial[ok]
        energies[active[ok]] = e_trial[ok]
        active = active[~ok]
        if active.size == 0:
            break
        step *= 0.5
    return Path.from_nodes(system, nodes, energies)


def _tangents(nodes: np.ndarray) -> np.ndarray:
    """Unit chords nodes[i + 1] - nodes[i - 1] (row i - 1 for node i); zero where the chord is."""
    tangent = nodes[2:] - nodes[:-2]
    nt = np.linalg.norm(tangent, axis=1)[:, None]
    return np.divide(tangent, nt, out=np.zeros_like(tangent), where=nt > 0.0)


def _normal(v: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Each row of v minus its component along the matching unit tangent."""
    return v - np.sum(v * tangent, axis=1)[:, None] * tangent


def _spread(chords: np.ndarray) -> float:
    mean = chords.mean()
    if mean == 0.0:
        return 0.0
    return float((chords.max() - chords.min()) / mean)


def _chords(nodes: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(nodes, axis=0), axis=1)


def _resample(nodes: np.ndarray, chords: np.ndarray) -> np.ndarray:
    """One linear redistribution pass of nodes, whose chord lengths are chords,
    to equal chord-length targets."""
    n = nodes.shape[0]
    s = np.concatenate([[0.0], np.cumsum(chords)])
    if s[-1] < 1e-14:
        raise DegeneratePath("total path length below resolution")
    targets = np.linspace(0.0, s[-1], n)
    pts, s_sup = nodes, s
    rise = np.diff(s) > 0.0
    if not rise.all():  # a repeated node: drop it
        keep = np.concatenate([[True], rise])
        pts, s_sup = nodes[keep], s[keep]
    seg = np.clip(np.searchsorted(s_sup, targets, side="right") - 1, 0, pts.shape[0] - 2)
    frac = (targets - s_sup[seg]) / np.diff(s_sup)[seg]
    # pts[seg] + frac (pts[seg + 1] - pts[seg]), in place
    left = pts[seg]
    out = pts[seg + 1]
    out -= left
    out *= frac[:, None]
    out += left
    out[0], out[-1] = nodes[0], nodes[-1]
    return out


def reparametrize(p: Path) -> Path:
    """Step 2: redistribute nodes to equal arc length.

    A single resample leaves a corner-cutting residue, so the resampling
    is iterated to its fixed point: uniform chord lengths within 1e-8
    relative spread.  The returned path carries the interior energies and
    gradients of one fused ``energies_gradients`` pass at its nodes;
    endpoints and their energies come back bit-identical.
    """
    if p.chord_spread() < _CHORD_SPREAD_TOL:
        return p
    nodes, chords = p.nodes, p.chords
    for _ in range(_MAX_PASSES):
        nodes = _resample(nodes, chords)
        chords = _chords(nodes)
        if (spread := _spread(chords)) < _CHORD_SPREAD_TOL:
            energies = p.energies.copy()
            energies[1:-1], gradients = p.system.energies_gradients(nodes[1:-1])
            return Path.from_nodes(p.system, nodes, energies, gradients=gradients, chords=chords)
    raise NoConvergence(
        f"reparametrization did not reach uniform spacing in {_MAX_PASSES} passes",
        iterations=_MAX_PASSES,
        residual=spread,
    )


def perpendicular_residual(p: Path) -> float:
    """Max over interior nodes of the gradient component normal to the chord
    nodes[i + 1] - nodes[i - 1]; where that chord is zero, of the whole gradient."""
    return float(np.abs(p.normal_gradients).max())


def _as_flat(field, system: System | None):
    """Accept a QField or a flat array; derive the system when possible."""
    if isinstance(field, QField):
        from .energy import LdGSystem

        return field.flat.copy(), system or LdGSystem(field.domain)
    if system is None:
        raise ValidationError("plain-array endpoints need an explicit system")
    return np.asarray(field, dtype=float).reshape(-1).copy(), system


def _refine_ts(system: System, x0: np.ndarray, direction: np.ndarray, tol: float) -> SaddleRecord:
    """Climbing correction: index-1 saddle dynamics from x0 whose unstable
    direction starts at `direction` (the string's tangent at its top node,
    M-normalized by the search) and is relaxed with the position, finished
    by the guarded Newton endgame, as in every other search.  The only
    eigensolve is the certificate: the returned record's index is verified
    by find_saddle, and any other index raises NotIndexOne."""
    try:
        return find_saddle(system, 1, x0, direction[:, None], SaddleOptions(tol_grad=tol))
    except WrongIndex as err:
        raise NotIndexOne(
            f"climbing correction converged to Morse index {err.found}"
        ) from err


def _string_loop(path: Path, tol: float) -> tuple[Path, int]:
    # one step for every sweep: 1/ρ(M⁻¹H) at the middle node
    system, mid = path.system, path.nodes[path.n_nodes // 2]
    precond = preconditioner_of(system)
    base_step = 1.0 / operator_scale(lambda w: precond.solve(system.hessian_vec(mid, w)), mid.size)
    path = reparametrize(path)
    sweeps = 0
    while (residual := perpendicular_residual(path)) >= tol:
        if sweeps == _MAX_SWEEPS:
            raise NoConvergence(
                f"string residual {residual:.3e} above {tol:.3e} after {_MAX_SWEEPS} sweeps",
                iterations=_MAX_SWEEPS,
                residual=residual,
            )
        path = evolve_step(path, base_step)
        path = reparametrize(path)
        sweeps += 1
    return path, sweeps


def _climb_tolerance(tol: float, ts_tol: float | None = None) -> float:
    """The gradient tolerance of find_mep's climb: ts_tol, by default min(tol, 1e-8)."""
    return min(tol, 1e-8) if ts_tol is None else ts_tol


def find_mep(
    a,
    b,
    n_nodes: int = 16,
    tol: float = 1e-6,
    system: System | None = None,
    ts_tol: float | None = None,
) -> MepResult:
    """Minimal energy path between two stationary states.

    Endpoints must satisfy ||grad||_inf < 10 tol.  The string starts as
    the straight segment, alternates evolution and reparametrization
    until every interior node's perpendicular gradient is below tol,
    then refines and certifies the transition state.

    The string residual bottoms out at a discretization floor set by the
    node spacing and path curvature, so tol should be chosen against the
    resolution; the transition state itself is refined to ts_tol
    (default min(tol, 1e-8)) by the climbing correction, independent of
    that floor.  A tol or ts_tol outside (0, inf) raises ValidationError
    before any work.
    """
    ts_tol = _climb_tolerance(tol, ts_tol)
    if not (0.0 < tol < np.inf and 0.0 < ts_tol < np.inf):
        raise ValidationError(f"need finite tol > 0 and ts_tol > 0, got {tol}, {ts_tol}")
    xa, system = _as_flat(a, system)
    xb, system = _as_flat(b, system)
    if n_nodes < 8:
        raise ValidationError("a global string needs at least 8 nodes")
    for x in (xa, xb):
        g_inf = float(np.abs(system.gradient(x)).max())
        if g_inf >= 10.0 * tol:
            raise NotStationary(g_inf, 10.0 * tol)
    frac = np.linspace(0.0, 1.0, n_nodes)[:, None]
    path, sweeps = _string_loop(Path.from_nodes(system, (1.0 - frac) * xa + frac * xb), tol)
    ts_index = int(np.argmax(path.energies))
    # the climb's unstable direction starts along the string's chord at its top
    chord = path.nodes[min(ts_index + 1, n_nodes - 1)] - path.nodes[max(ts_index - 1, 0)]
    ts = _refine_ts(system, path.nodes[ts_index].copy(), chord, ts_tol)
    return MepResult(
        path=path,
        ts_index=ts_index,
        ts_field=ts.field,
        barrier_forward=ts.energy - path.energies[0],
        barrier_backward=ts.energy - path.energies[-1],
        ts_lambda1=float(ts.lambda_spectrum[0]),
        sweeps=sweeps,
    )

