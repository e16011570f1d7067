"""Minimal energy paths by the two-step string method.

A path is a polyline of N fields between two stationary endpoints.  Each
sweep moves every interior node down the full gradient (step 1) and then
redistributes nodes to equal arc length by linear interpolation (step 2),
as in the simplified string method; the reparametrization supplies the
tangential control that makes the plain-descent step well posed.  The
converged string's energy maximum seeds an index-1 climbing refinement,
and the refined transition state is certified through its leading
Hessian eigenvalues.
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
from .systems import System

__all__ = [
    "Path",
    "MepResult",
    "evolve_step",
    "reparametrize",
    "find_mep",
    "refine_multiscale",
    "perpendicular_residual",
]

_CHORD_SPREAD_TOL = 1e-8
# halvings of a node's step before it stays put (evolve_step)
_MAX_BACKTRACKS = 30
# resampling passes allowed to reach uniform spacing (reparametrize)
_MAX_PASSES = 200
# evolve/reparametrize sweeps allowed to bring a string below tol (find_mep, refine_multiscale)
_MAX_SWEEPS = 5_000


@dataclass(frozen=True)
class Path:
    """Polyline of fields with energies and arc-length labels.

    nodes has shape (N, n); alpha is the normalized cumulative chord
    length, strictly increasing from 0 to 1.  The first and last node
    are the fixed endpoints.
    """

    system: System
    nodes: np.ndarray
    energies: np.ndarray
    alpha: np.ndarray

    @classmethod
    def from_nodes(cls, system: System, nodes: np.ndarray, energies: np.ndarray | None = None) -> "Path":
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] < 3:
            raise ValidationError("a path needs at least 3 nodes of equal size")
        if energies is None:
            energies = system.energies(nodes)
        chords = _chords(nodes)
        total = float(chords.sum())
        if total < 1e-14:
            raise DegeneratePath("total path length below resolution")
        alpha = np.concatenate([[0.0], np.cumsum(chords)]) / total
        alpha[-1] = 1.0
        return cls(system=system, nodes=nodes, energies=np.asarray(energies, dtype=float), alpha=alpha)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def gradients(self) -> np.ndarray:
        """Gradients at the interior nodes (row i - 1 for node i), evaluated
        once per path and shared by the residual and the evolution step."""
        return self.system.gradients(self.nodes[1:-1])

    def chord_spread(self) -> float:
        """Relative spread of consecutive chord lengths."""
        return _spread(_chords(self.nodes))


@dataclass(frozen=True)
class MepResult:
    path: Path
    ts_index: int
    ts_field: np.ndarray
    barrier_forward: float
    barrier_backward: float
    ts_lambda1: float


def evolve_step(p: Path, base_step: float) -> Path:
    """Step 1: move every interior node down its full gradient.

    The per-node step starts at the shared ``base_step`` and halves until
    the node's energy does not increase; a node that cannot descend stays
    put.  Endpoints are untouched.  Node updates are mutually independent;
    the nodes still backtracking are evaluated in one ``energies`` call.
    """
    system = p.system
    if base_step <= 0.0:
        raise ValidationError("base step must be positive")
    nodes = p.nodes.copy()
    energies = p.energies.copy()
    active = np.arange(1, p.n_nodes - 1)  # nodes still backtracking
    step = base_step
    for _ in range(_MAX_BACKTRACKS + 1):
        trial = p.nodes[active] - step * p.gradients[active - 1]
        e_trial = system.energies(trial)
        ok = np.isfinite(e_trial) & (e_trial <= energies[active])
        nodes[active[ok]] = trial[ok]
        energies[active[ok]] = e_trial[ok]
        active = active[~ok]
        if active.size == 0:
            break
        step *= 0.5
    return Path.from_nodes(system, nodes, energies)


def _spread(chords: np.ndarray) -> float:
    mean = chords.mean()
    if mean == 0.0:
        return 0.0
    return float((chords.max() - chords.min()) / mean)


def _chords(nodes: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(nodes, axis=0), axis=1)


def _resample(nodes: np.ndarray) -> np.ndarray:
    """One linear redistribution pass to equal chord-length targets."""
    n = nodes.shape[0]
    s = np.concatenate([[0.0], np.cumsum(_chords(nodes))])
    if s[-1] < 1e-14:
        raise DegeneratePath("total path length below resolution")
    targets = np.linspace(0.0, s[-1], n)
    keep = np.concatenate([[True], np.diff(s) > 0.0])
    pts, s_sup = nodes[keep], s[keep]
    seg = np.clip(np.searchsorted(s_sup, targets, side="right") - 1, 0, pts.shape[0] - 2)
    frac = (targets - s_sup[seg]) / np.diff(s_sup)[seg]
    out = pts[seg] + frac[:, None] * (pts[seg + 1] - pts[seg])
    out[0], out[-1] = nodes[0], nodes[-1]
    return out


def reparametrize(p: Path) -> Path:
    """Step 2: redistribute nodes to equal arc length.

    A single resample leaves a corner-cutting residue, so the resampling
    is iterated to its fixed point: uniform chord lengths within 1e-8
    relative spread.  The returned path carries freshly evaluated
    interior energies; endpoints and their energies come back
    bit-identical.
    """
    nodes = p.nodes
    spread = _spread(_chords(nodes))
    if spread < _CHORD_SPREAD_TOL:
        return p
    for _ in range(_MAX_PASSES):
        nodes = _resample(nodes)
        spread = _spread(_chords(nodes))
        if spread < _CHORD_SPREAD_TOL:
            energies = p.energies.copy()
            energies[1:-1] = p.system.energies(nodes[1:-1])
            return Path.from_nodes(p.system, nodes, energies)
    raise NoConvergence(
        f"reparametrization did not reach uniform spacing in {_MAX_PASSES} passes",
        iterations=_MAX_PASSES,
        residual=spread,
    )


def perpendicular_residual(p: Path) -> float:
    """Max over interior nodes of the gradient component normal to the chord
    nodes[i + 1] - nodes[i - 1]; where that chord is zero, of the whole gradient."""
    tangent = p.nodes[2:] - p.nodes[:-2]
    nt = np.linalg.norm(tangent, axis=1)[:, None]
    tangent = np.divide(tangent, nt, out=np.zeros_like(tangent), where=nt > 0.0)
    g = p.gradients
    g = g - np.sum(g * tangent, axis=1)[:, None] * tangent
    return float(np.abs(g).max())


def _as_flat(field, system: System | None):
    """Accept a QField or a flat array; derive the system when possible."""
    if isinstance(field, QField):
        from .energy import LdGSystem

        return field.flat.copy(), system or LdGSystem(field.domain)
    if system is None:
        raise ValidationError("plain-array endpoints need an explicit system")
    return np.asarray(field, dtype=float).reshape(-1).copy(), system


def _refine_ts(system: System, x0: np.ndarray, tol: float, seed: int = 0) -> SaddleRecord:
    """Climbing correction: index-1 saddle dynamics from x0, whose unstable
    direction is solved once at the start and then relaxed with the
    position, as in every other search.  The returned record's index is
    verified by find_saddle; any other index raises NotIndexOne."""
    try:
        return find_saddle(system, 1, x0, opts=SaddleOptions(tol_grad=tol, seed=seed))
    except WrongIndex as err:
        raise NotIndexOne(
            f"climbing correction converged to Morse index {err.found}"
        ) from err


def _string_loop(path: Path, tol: float) -> Path:
    # one step for every sweep: 1/|H| at the middle node
    mid = path.nodes[path.n_nodes // 2]
    base_step = 1.0 / operator_scale(lambda w: path.system.hessian_vec(mid, w), mid.size)
    path = reparametrize(path)
    for _ in range(_MAX_SWEEPS):
        if perpendicular_residual(path) < tol:
            return path
        path = evolve_step(path, base_step)
        path = reparametrize(path)
    residual = perpendicular_residual(path)
    if residual < tol:
        return path
    raise NoConvergence(
        f"string residual {residual:.3e} above {tol:.3e} after {_MAX_SWEEPS} sweeps",
        iterations=_MAX_SWEEPS,
        residual=residual,
    )


def _finish(global_e0: float, global_e1: float, path: Path, ts_tol: float, seed: int) -> MepResult:
    ts_index = int(np.argmax(path.energies))
    ts = _refine_ts(path.system, path.nodes[ts_index].copy(), ts_tol, seed)
    return MepResult(
        path=path,
        ts_index=ts_index,
        ts_field=ts.field,
        barrier_forward=ts.energy - global_e0,
        barrier_backward=ts.energy - global_e1,
        ts_lambda1=float(ts.lambda_spectrum[0]),
    )


def find_mep(
    a,
    b,
    n_nodes: int = 16,
    tol: float = 1e-6,
    system: System | None = None,
    ts_tol: float | None = None,
    seed: int = 0,
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
    that floor.
    """
    xa, system = _as_flat(a, system)
    xb, system = _as_flat(b, system)
    if n_nodes < 8:
        raise ValidationError("a global string needs at least 8 nodes")
    for x in (xa, xb):
        g_inf = float(np.abs(system.gradient(x)).max())
        if g_inf >= 10.0 * tol:
            raise NotStationary(g_inf, 10.0 * tol)
    frac = np.linspace(0.0, 1.0, n_nodes)[:, None]
    path = Path.from_nodes(system, (1.0 - frac) * xa + frac * xb)
    path = _string_loop(path, tol)
    ts_tol = min(tol, 1e-8) if ts_tol is None else ts_tol
    return _finish(path.energies[0], path.energies[-1], path, ts_tol, seed)


def refine_multiscale(
    coarse: Path,
    fine_n: int = 16,
    tol: float = 1e-8,
    ts_tol: float | None = None,
    seed: int = 0,
) -> MepResult:
    """Local fine string between the two highest-energy coarse nodes.

    The selected coarse nodes become the (frozen, generally
    non-stationary) ends of a fine string resolving the barrier region;
    barriers in the result are still measured from the coarse string's
    global endpoints.
    """
    if fine_n < 3:
        raise ValidationError("a fine string needs at least 3 nodes")
    order = np.argsort(coarse.energies)
    lo, hi = sorted((int(order[-1]), int(order[-2])))
    frac = np.linspace(0.0, 1.0, fine_n)[:, None]
    nodes = (1.0 - frac) * coarse.nodes[lo] + frac * coarse.nodes[hi]
    fine = Path.from_nodes(coarse.system, nodes)
    fine = _string_loop(fine, tol)
    ts_tol = min(tol, 1e-8) if ts_tol is None else ts_tol
    return _finish(coarse.energies[0], coarse.energies[-1], fine, ts_tol, seed)
