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
once.  A string loop keeps its blocks in buffers allocated once per
``find_mep`` call (``_Workspace``): two node buffers that evolution and
resampling write in turn, the tangents, the normal gradients, the step
direction and one scratch block, so a sweep pages in no fresh memory
beyond the energy kernels' own; ``find_mep`` returns a copy of the final
path, and the public calls on any other path return fresh arrays.
The converged string's energy maximum seeds an index-1 climbing
refinement whose unstable direction starts along the string's tangent
there, as in climbing-image and climbing-string methods, so the climb's
only eigensolve is its certificate through the leading Hessian
eigenvalues; the barriers are measured from the string's own endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneratePath, NoConvergence, NotIndexOne, NotStationary, ValidationError, WrongIndex
from .errors import check_positive
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


class _Fresh:
    """Hands out a new array for every block: the paths users build, and
    those the public calls derive from them, own all their arrays."""

    def block(self, name: str, shape: tuple) -> np.ndarray:
        return np.empty(shape)

    def nodes_besides(self, nodes: np.ndarray) -> np.ndarray:
        return np.empty_like(nodes)


_FRESH = _Fresh()


class _Workspace:
    """The (N, n) blocks of one string loop, allocated once: two node
    buffers that evolution and resampling write in turn, the tangents,
    the normal gradients Π_i g_i, the step direction, and a scratch block
    for the trial rows, the squared chords and the resample's gather.  A
    path derived from a path on a workspace writes into it, so it is valid
    only until the loop's next step."""

    def __init__(self, shape: tuple):
        n_nodes, n = shape
        self.node_buffers = (np.empty(shape), np.empty(shape))
        self._blocks = {name: np.empty((n_nodes - 2, n)) for name in ("tangents", "normal_gradients", "step")}
        self._blocks["scratch"] = np.empty(shape)

    def block(self, name: str, shape: tuple) -> np.ndarray:
        return self._blocks[name][: shape[0]]

    def nodes_besides(self, nodes: np.ndarray) -> np.ndarray:
        return self.node_buffers[1] if nodes is self.node_buffers[0] else self.node_buffers[0]


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
    # where this path's derived blocks and paths are written (_Workspace)
    _workspace: _Fresh | _Workspace = field(default=_FRESH, repr=False, compare=False)

    @classmethod
    def from_nodes(
        cls,
        system: System,
        nodes: np.ndarray,
        energies: np.ndarray | None = None,
        *,
        gradients: np.ndarray | None = None,
        chords: np.ndarray | None = None,
        _workspace: _Fresh | _Workspace = _FRESH,
    ) -> "Path":
        """The path through nodes.  energies, the interior gradients and the
        chord lengths, when given, must be those of these nodes; the sweeps
        pass what they already evaluated, and the rest is evaluated here
        (energies, chords) or on first use (gradients).  A string loop passes
        its ``_workspace``, which the path's blocks are written into."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] < 3:
            raise ValidationError("a path needs at least 3 nodes of equal size")
        if energies is None:
            energies = system.energies(nodes)
        if chords is None:
            chords = _chords(nodes, _workspace.block("scratch", nodes.shape))
        total = float(chords.sum())
        if total < 1e-14:
            raise DegeneratePath("total path length below resolution")
        alpha = np.concatenate([[0.0], np.cumsum(chords)]) / total
        alpha[-1] = 1.0
        energies = np.asarray(energies, dtype=float)
        path = cls(system=system, nodes=nodes, energies=energies, alpha=alpha, chords=chords, _workspace=_workspace)
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
        ws, shape = self._workspace, (self.n_nodes - 2, self.nodes.shape[1])
        return _tangents(self.nodes, ws.block("tangents", shape), ws.block("scratch", shape))

    @cached_property
    def normal_gradients(self) -> np.ndarray:
        """Π_i g_i = g_i − (g_i·τ_i)τ_i at the interior nodes, computed once per
        path and shared by the residual and the evolution step."""
        ws, shape = self._workspace, self.gradients.shape
        return _normal(self.gradients, self.tangents, ws.block("normal_gradients", shape), ws.block("scratch", shape))

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
    system, ws = p.system, p._workspace
    check_positive("base step", base_step)
    pg = p.normal_gradients
    shape = pg.shape
    # d = g + Π(M⁻¹pg − pg), built in the step block
    d = np.subtract(preconditioner_of(system).solve(pg.T).T, pg, out=ws.block("step", shape))
    _normal(d, p.tangents, d, ws.block("scratch", shape))
    d += p.gradients
    nodes, energies = ws.nodes_besides(p.nodes), p.energies.copy()
    nodes[...] = p.nodes
    start, moved, e_moved = p.nodes[1:-1], nodes[1:-1], energies[1:-1]
    active = np.arange(shape[0])  # interior rows still backtracking
    step = base_step
    for _ in range(_MAX_BACKTRACKS + 1):
        # every row at the first trial, by slices, which copy nothing; then the rows left
        rows = slice(None) if active.size == shape[0] else active
        trial = ws.block("scratch", (active.size, shape[1]))
        np.subtract(start[rows], np.multiply(d[rows], step, out=trial), out=trial)
        e_trial = system.energies(trial)
        ok = np.isfinite(e_trial) & (e_trial <= e_moved[rows])
        if ok.all():
            moved[rows], e_moved[rows] = trial, e_trial
            break
        moved[active[ok]], e_moved[active[ok]] = trial[ok], e_trial[ok]
        active = active[~ok]
        step *= 0.5
    return Path.from_nodes(system, nodes, energies, _workspace=ws)


def _tangents(nodes: np.ndarray, out: np.ndarray | None = None, squares: np.ndarray | None = None) -> np.ndarray:
    """Unit chords nodes[i + 1] - nodes[i - 1] (row i - 1 for node i); zero where
    the chord is.  Written into out, with the squared entries in squares, when given."""
    tangent = np.subtract(nodes[2:], nodes[:-2], out=out)
    nt = _row_norms(tangent, squares)[:, None]
    np.divide(tangent, nt, out=tangent, where=nt > 0.0)
    tangent[~(nt[:, 0] > 0.0)] = 0.0
    return tangent


def _normal(
    v: np.ndarray, tangent: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Each row of v minus its component along the matching unit tangent; written
    into out (which may be v), with scratch for the products, when given."""
    along = np.multiply(v, tangent, out=scratch)
    along = np.multiply(np.add.reduce(along, axis=1)[:, None], tangent, out=along)
    return np.subtract(v, along, out=out)


def _row_norms(v: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """np.linalg.norm(v, axis=1) bit for bit, with the squares in squares (may be v)."""
    return np.sqrt(np.add.reduce(np.multiply(v, v, out=squares), axis=1))


def _spread(chords: np.ndarray) -> float:
    mean = chords.mean()
    if mean == 0.0:
        return 0.0
    return float((chords.max() - chords.min()) / mean)


def _chords(nodes: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Chord lengths |nodes[i + 1] - nodes[i]|; the differences go to scratch, when given."""
    diff = np.subtract(nodes[1:], nodes[:-1], out=None if scratch is None else scratch[: nodes.shape[0] - 1])
    return _row_norms(diff, diff)


def _resample(nodes: np.ndarray, chords: np.ndarray, out: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """One linear redistribution pass of nodes, whose chord lengths are chords,
    to equal chord-length targets, into out; gather holds the left ends."""
    n = nodes.shape[0]
    s = np.concatenate([[0.0], np.cumsum(chords)])
    if s[-1] < 1e-14:
        raise DegeneratePath("total path length below resolution")
    targets = np.linspace(0.0, s[-1], n)
    # the nodes that start a chord of positive length, and the last: a repeated node is dropped
    rows = np.flatnonzero(np.concatenate([[True], np.diff(s) > 0.0]))
    s_sup = s[rows]
    seg = np.clip(np.searchsorted(s_sup, targets, side="right") - 1, 0, rows.size - 2)
    frac = (targets - s_sup[seg]) / np.diff(s_sup)[seg]
    # left + frac (right - left), in place; mode="clip" gathers straight into out
    left = np.take(nodes, rows[seg], axis=0, out=gather, mode="clip")
    np.take(nodes, rows[seg + 1], axis=0, out=out, mode="clip")
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
    ws, nodes, chords = p._workspace, p.nodes, p.chords
    for _ in range(_MAX_PASSES):
        scratch = ws.block("scratch", nodes.shape)
        nodes = _resample(nodes, chords, ws.nodes_besides(nodes), scratch)
        chords = _chords(nodes, scratch)
        if (spread := _spread(chords)) < _CHORD_SPREAD_TOL:
            energies = p.energies.copy()
            energies[1:-1], gradients = p.system.energies_gradients(nodes[1:-1])
            return Path.from_nodes(p.system, nodes, energies, gradients=gradients, chords=chords, _workspace=ws)
    raise NoConvergence(
        f"reparametrization did not reach uniform spacing in {_MAX_PASSES} passes",
        iterations=_MAX_PASSES,
        residual=spread,
    )


def perpendicular_residual(p: Path) -> float:
    """Max over interior nodes of the gradient component normal to the chord
    nodes[i + 1] - nodes[i - 1]; where that chord is zero, of the whole gradient."""
    return p.system.grad_inf(p.normal_gradients)


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


def _straight_string(system: System, xa: np.ndarray, xb: np.ndarray, n_nodes: int) -> Path:
    """The straight segment from xa to xb, written into the node buffers of a
    new workspace: no start block of the path's size is allocated, and none
    is freed beneath the workspace.  The interior energies and gradients come
    from one fused ``energies_gradients`` pass, the endpoints' energies from
    ``energies``."""
    ws = _Workspace((n_nodes, xa.size))
    nodes, other = ws.node_buffers
    frac = np.linspace(0.0, 1.0, n_nodes)[:, None]
    # (1 - frac) xa + frac xb
    np.multiply(1.0 - frac, xa, out=nodes)
    nodes += np.multiply(frac, xb, out=other)
    energies = np.empty(n_nodes)
    energies[[0, -1]] = system.energies(nodes[[0, -1]])
    energies[1:-1], gradients = system.energies_gradients(nodes[1:-1])
    return Path.from_nodes(system, nodes, energies, gradients=gradients, _workspace=ws)


def _string_loop(path: Path, tol: float) -> tuple[Path, int]:
    """Sweeps from path, which is on a workspace, until its residual is below
    tol; returns a copy of the final path, which owns its arrays, and the sweeps."""
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
        # the path before the step, and its gradient block, are freed only after
        # the fused pass has made the next block, so that the two blocks take
        # heap slots in turn; freed first, the block leaves the top of the heap
        # free, and glibc trims it and pages it in again on every sweep
        previous = path
        path = reparametrize(evolve_step(path, base_step))
        del previous
        sweeps += 1
    # a copy that owns its nodes, without the last gradient block, which would
    # hold the heap the loop used in place through the climb
    final = Path.from_nodes(system, path.nodes.copy(), path.energies, chords=path.chords)
    return final, sweeps


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
    check_positive("tol", tol)
    check_positive("ts_tol", ts_tol)
    xa, system = _as_flat(a, system)
    xb, system = _as_flat(b, system)
    if n_nodes < 8:
        raise ValidationError("a global string needs at least 8 nodes")
    for x in (xa, xb):
        g_inf = system.grad_inf(system.gradient(x))
        if g_inf >= 10.0 * tol:
            raise NotStationary(g_inf, 10.0 * tol)
    path, sweeps = _string_loop(_straight_string(system, xa, xb, n_nodes), tol)
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

