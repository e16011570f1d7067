"""Index-k saddle search by reflected gradient dynamics, and the
assembly of solution landscapes.

A saddle of index k is found by flowing

    dx/dt = -(I - 2 V V^T M) M^-1 grad E(x)

while the k directions in V relax toward the k smallest eigenvectors of
M^-1 H; explicit Euler steps plus LOBPCG's Cholesky re-orthonormalization,
V L^-T for V^T M V = L L^T (``spectrum.inverse_factor``), keep V orthonormal in
<a, b>_M = a^T M b.  M is the system's SPD metric from ``preconditioner_of`` (for
a tensor field, the SineSolver of the SAV flow's linear operator L1, which applies
M and M^-1 by sine transforms; it keeps the step count flat as the grid is
refined), and the identity for a system that brings none.

One step size h moves x and V, and starts at 1/|M^-1 H| at the start point.
For k > 0 it keeps that value, capped by a fresh estimate every 25 steps.  A k = 0
search has no V to keep pace with, and each accepted step from x to x+ sets
the next to the Barzilai-Borwein step in the metric M (Barzilai and Borwein,
IMA J. Numer. Anal. 8, 1988; the x step of Yin, Zhang and Zhang's HiOSD, SIAM
J. Sci. Comput. 41, 2019): with s = x+ - x = -h M^-1 g and y = g+ - g,
s^T M s = -h s^T g, so h+ = -h s^T g / s^T y needs no extra solve.  It is capped
at _BB_CAP times the start's step, and s^T y <= 0 takes the cap.  There is no
lower clip: where the curvature grows along the way, the step follows it down.

Once the gradient inf-norm of a search has fallen a decade below its
start, the search tries a guarded Newton endgame (Newton-Krylov, Knoll
and Keyes, J. Comput. Phys. 193, 2004; ``minimize._polish``, which the
gradient flow shares): each step solves H d = -g preconditioned by
M^-1, for k > 0 by MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12,
1975), which takes the indefinite H, and for k = 0 by conjugate
gradients that give up at the first direction of non-positive
curvature.  Newton heads for the nearest stationary point of any
index, so the endgame is kept only when its first step points along
the dynamics' own direction at its start, -(M^-1 g - 2 V V^T g) for the
search's directions V (cos_M >= 1/2), every step lowers the gradient
inf-norm, the energy never rises when k = 0, and it reaches the
search's tolerance within 10 steps; otherwise it is discarded and the
dynamics go on from where they were, with the next attempt a decade
further down.  The certificate alone decides the index of a landing,
polished or not.

Verified stationary points become SaddleRecords, which keep the
eigenvectors of their certificate; repeated downward (and optionally
upward) searches start from those and, from a seed record, grow the
directed graph of stationary points connected by search pathways, in
which only a new node pays for a certificate.  With a symmetry group
only a new orbit does, and a branch whose start is the image g.y0 of a
branch already run to the same index takes the image of its landing
instead of running (Han et al., Nonlinearity 34, 2021; Yin, Wang and
Zhang, Sci. China Math. 64, 2021).
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateStationary, NoConvergence, NotStationary, ShapeMismatch, ValidationError, WrongIndex
from .minimize import _check_tol, _energy_rose, _polish, _reflected_direction
from .spectrum import SpectrumReport, inverse_factor, operator_scale, smallest_eigs
from .systems import System, preconditioner_of, symmetries_of

__all__ = [
    "SaddleSearchState",
    "SaddleRecord",
    "SaddleOptions",
    "LandscapeOptions",
    "Edge",
    "LandscapeGraph",
    "hisd_step",
    "classify_stationary",
    "make_record",
    "find_saddle",
    "branch_search",
    "build_landscape",
]

# A search fails when the position runs off to _RADIUS_FACTOR times its
# start scale; an energy above _BLOW_FACTOR times the start scale halves
# the step.  The step is capped by a fresh 1/|M^-1 H| every
# _SCALE_CHECK_EVERY steps of an index k > 0 search.
_BLOW_FACTOR = 1e6
_RADIUS_FACTOR = 1e3
_SCALE_CHECK_EVERY = 25
# An index-0 search's Barzilai-Borwein step is capped at _BB_CAP times its
# starting 1/|M^-1 H|: past 2/|M^-1 H| the stiffest modes of a quadratic grow,
# and ten power iterations put |M^-1 H| 13% low at the 16^2 lambda2 = 50 cross.
_BB_CAP = 1.5
# Two landscape records are one node when their field distance is below
# _TOL_X times the field scale (and their energies agree); a branch start is
# the image of another within a tenth of that.
_TOL_X = 1e-4
# A direction keeping less than _DEPENDENT of its M-norm once the earlier ones are projected out
# has degenerated: Cholesky resolves only about sqrt(eps), and dependent blocks keep 1e-8 to 1e-7.
_DEPENDENT = 1e-6


def _m_orthonormalize(v: np.ndarray, precond) -> np.ndarray:
    """v's columns M-orthonormalized in order, M applied once; NoConvergence below _DEPENDENT."""
    try:
        return (inverse_factor(v.T, precond.apply(v).T, _DEPENDENT) @ v.T).T
    except np.linalg.LinAlgError:
        raise NoConvergence("direction set degenerated during orthonormalization") from None


@dataclass(frozen=True)
class SaddleSearchState:
    """Position plus k M-orthonormal unstable-direction candidates, k the
    search's index; a v that is not an (n, k) block raises ShapeMismatch."""

    x: np.ndarray
    v: np.ndarray  # (n, k), columns orthonormal in <a, b>_M

    def __post_init__(self):
        if np.ndim(self.v) != 2 or np.shape(self.v)[0] != np.size(self.x):
            raise ShapeMismatch(f"v has shape {np.shape(self.v)}, need ({np.size(self.x)}, k)")


@dataclass(frozen=True)
class SaddleRecord:
    """A verified stationary point.

    `field` is the flat coefficient vector (QField.from_flat views it on
    a domain); `lambda_spectrum` holds the smallest morse_index + 2
    eigenvalues (capped at the problem size), so the sign change behind
    the index count is visible, and `eigenvectors` the matching
    Euclidean-orthonormal columns from the same solve, from which every
    branch search leaving the point starts; `iterations` counts the
    saddle-dynamics steps that reached it and `newton_steps` the Newton
    steps of the endgame that finished the search (both 0 for a record
    made on the spot).
    """

    field: np.ndarray
    energy: float
    morse_index: int
    lambda_spectrum: np.ndarray
    eigenvectors: np.ndarray  # (n, len(lambda_spectrum))
    grad_inf: float
    id: int | None = None
    iterations: int = 0
    newton_steps: int = 0


@dataclass
class SaddleOptions:
    """Stopping rule and budget of one saddle search.

    The search stops when the gradient inf-norm falls below `tol_grad`
    and gives up after `max_iters` steps.  Step control has no setting
    (1/|M^-1 H|, and for k = 0 a capped Barzilai-Borwein step), and V is
    relaxed, not re-solved: see find_saddle.
    """

    tol_grad: float = 1e-8
    max_iters: int = 50_000


def hisd_step(
    system: System, state: SaddleSearchState, dt: float, grad: np.ndarray | None = None
) -> SaddleSearchState:
    """One explicit Euler step of size dt of the saddle dynamics in the metric M.

    x moves by dt along the M-reflected preconditioned gradient M^-1 g - 2 V (V^T g)
    (plain preconditioned descent when V is empty); the v_i then relax by the same
    dt along M^-1 H v_i at the new x (one block product), each shielded from the
    earlier directions, and the set is M-orthonormalized in order (NoConvergence
    when it has degenerated).  M is ``preconditioner_of(system)`` (``solve`` applies
    M^-1, ``apply`` M; for a tensor field both are the SineSolver's transforms, for
    a system without one the identity).
    """
    if not 0.0 < dt < np.inf:
        raise ValidationError("step size must be positive and finite")
    precond = preconditioner_of(system)
    x, v, k = state.x, state.v, state.v.shape[1]
    g = system.gradient(x) if grad is None else grad
    x_new = x - dt * _reflected_direction(precond, g, v)
    if not k:
        return SaddleSearchState(x_new, v)
    hv = system.hessian_vec(x_new, v)
    # <v_j, M^-1 H v_i>_M = v_j^T H v_i
    coef = v.T @ hv
    # shield[j, i]: weight of v_j in the update of v_i; the running
    # direction counts once, every earlier one twice, later ones not at all
    shield = np.triu(2.0 * np.ones((k, k)), 1) + np.eye(k)
    return SaddleSearchState(x_new, _m_orthonormalize(v - dt * (precond.solve(hv) - v @ (shield * coef)), precond))


def classify_stationary(
    system: System, x: np.ndarray, tol_grad: float = 1e-8, k_hint: int = 0
) -> tuple[int, np.ndarray, SpectrumReport]:
    """Verified Morse index and leading spectrum at a stationary point.

    The eigensolve window grows until a non-negative eigenvalue is seen
    (or the problem size is reached), so the count is the true index,
    not a lower bound.  When one of the m + 1 Ritz values that decide the
    index m (the m negative ones and the first non-negative one) lies
    within max(tol_eig, its fresh residual) of zero, the index is not
    decided and DegenerateStationary is raised.  A tol_grad outside
    (0, inf) raises ValidationError before any evaluation.
    """
    _check_tol(tol_grad)
    return _certify(system, x, float(np.abs(system.gradient(x)).max()), tol_grad, k_hint)


def _certify(system: System, x: np.ndarray, g_inf: float, tol_grad: float, k_hint: int):
    """classify_stationary at a point whose gradient inf-norm g_inf is known."""
    if g_inf >= tol_grad:
        raise NotStationary(g_inf, tol_grad)
    n = x.size
    k_query = min(n, max(2, k_hint + 2))
    while True:
        rep = smallest_eigs(system, x, k_query)
        m = rep.morse_index
        if m + 2 <= k_query or k_query >= n:
            break
        k_query = min(n, m + 2)
    for value, r in zip(rep.eigenvalues[: m + 1], rep.residuals[: m + 1]):
        if abs(value) <= max(rep.tol_eig, r):
            raise DegenerateStationary(
                f"degenerate stationary point: Ritz value {value:.3e} with residual {r:.3e} "
                f"is within max(tol_eig = {rep.tol_eig:.3e}, residual) of zero"
            )
    return m, rep.eigenvalues[: min(m + 2, n)].copy(), rep


def make_record(system: System, x: np.ndarray, tol_grad: float = 1e-8, k_hint: int = 0) -> SaddleRecord:
    """Certify x by classify_stationary and keep its eigenpairs."""
    _check_tol(tol_grad)
    e, g = system.energy_gradient(x)
    return _record(system, _Landing(x, e, float(np.abs(g).max()), 0, 0), tol_grad, k_hint)


# where a search stopped, not yet certified: the point, its energy and
# gradient inf-norm, and the dynamics and Newton steps taken
_Landing = namedtuple("_Landing", "field energy grad_inf iterations newton_steps")


def _record(system: System, hit: _Landing, tol_grad: float, k_hint: int) -> SaddleRecord:
    """Certify a point whose energy and gradient are known (make_record's
    x, or the landing of an index-k_hint search) under the index it has."""
    m, spectrum, rep = _certify(system, hit.field, hit.grad_inf, tol_grad, k_hint)
    return SaddleRecord(
        field=np.array(hit.field, dtype=float),
        energy=hit.energy,
        morse_index=m,
        lambda_spectrum=spectrum,
        eigenvectors=rep.eigenvectors[:, : spectrum.size].copy(),
        grad_inf=hit.grad_inf,
        iterations=hit.iterations,
        newton_steps=hit.newton_steps,
    )


def find_saddle(
    system: System,
    k: int,
    x0: np.ndarray,
    v0: np.ndarray | None = None,
    opts: SaddleOptions | None = None,
) -> SaddleRecord:
    """Flow the saddle dynamics to a stationary point and verify its index.

    The dynamics run in the metric ``preconditioner_of(system)`` (see
    hisd_step), with one step size for x and V: 1/|M^-1 H| estimated by
    power iteration at the start point and, for k > 0, capped by a fresh
    estimate every 25 steps.  For k = 0 each accepted step sets the next
    by the capped Barzilai-Borwein rule of the module docstring.  V starts
    at v0 (else at the k smallest eigenvectors at x0) and is relaxed by the
    dynamics from then on; the next eigensolve is the certificate.  Each
    trial point costs one ``energy_gradient``, and an accepted trial's
    gradient drives the next step.  The step halves when the energy blows up (or, for k = 0,
    rises); a position that runs far off its start scale raises
    NoConvergence.  Once the gradient inf-norm has fallen a decade below
    its start, the guarded Newton endgame of the module docstring may
    finish the search (a rejected attempt is retried a decade further
    down); the record counts its steps in `newton_steps`, apart from the
    dynamics steps in `iterations`.  Raises WrongIndex (carrying the
    verified record) when the landing point is stationary but of a
    different index than requested; the caller may keep that record.
    A tol_grad outside (0, inf) raises ValidationError, and a v0 without
    n * k entries ShapeMismatch, before any step.
    """
    opts = opts or SaddleOptions()
    record = _record(system, _search(system, k, x0, v0, opts), opts.tol_grad, k)
    if record.morse_index != k:
        raise WrongIndex(record.morse_index, k, record=record)
    return record


def _search(system: System, k: int, x0: np.ndarray, v0: np.ndarray | None, opts: SaddleOptions) -> _Landing:
    """find_saddle's dynamics, up to the landing and short of its certificate."""
    _check_tol(opts.tol_grad)
    precond = preconditioner_of(system)
    x = np.array(x0, dtype=float).reshape(-1)
    n = x.size
    if not 0 <= k <= n:
        raise ValidationError(f"index {k} out of range for {n} unknowns")
    if v0 is None:
        v0 = smallest_eigs(system, x, k).eigenvectors if k else np.zeros((n, 0))
    v0 = np.asarray(v0, dtype=float)
    if v0.size != n * k:
        raise ShapeMismatch(f"v0 has {v0.size} entries, need {n} x {k}")
    v = _m_orthonormalize(v0.reshape(n, k), precond)

    def scale_at(y: np.ndarray) -> float:
        # spectral radius of M^-1 H, the rate of the fastest mode
        return operator_scale(lambda w: precond.solve(system.hessian_vec(y, w)), n)

    step = step0 = 1.0 / scale_at(x)
    e_state, g = system.energy_gradient(x)
    e_scale = 1.0 + abs(e_state)
    x_scale = 1.0 + float(np.abs(x).max())
    state = SaddleSearchState(x, v)
    g_inf = np.inf
    # the Newton endgame is tried below this gradient inf-norm
    polish_below = 0.1 * float(np.abs(g).max())

    def halve():
        nonlocal step
        step *= 0.5
        if step < 1e-12 * step0:
            raise NoConvergence("saddle dynamics stalled despite step halving", it, g_inf)

    for it in range(opts.max_iters):
        g_inf = float(np.abs(g).max())
        if g_inf < opts.tol_grad:
            return _Landing(state.x, e_state, g_inf, it, 0)
        if g_inf < polish_below:
            path = _polish(system, state.x, e_state, g, state.v, opts.tol_grad)
            if path is not None:
                return _Landing(*path[-1], it, len(path))
            polish_below = 0.1 * g_inf
        if k and it and it % _SCALE_CHECK_EVERY == 0:
            # curvature can grow along the way; keep the step below 1/|M^-1 H|
            # at the current point or the unstable modes start to rattle
            step = min(step, 1.0 / scale_at(state.x))
        trial = hisd_step(system, state, step, grad=g)
        # a position running off to _RADIUS_FACTOR times the start scale is
        # divergence, not a step-size problem; halving cannot rescue it
        if not np.all(np.isfinite(trial.x)) or np.abs(trial.x).max() > _RADIUS_FACTOR * x_scale:
            raise NoConvergence("position diverged during saddle dynamics", it, g_inf)
        e_new, g_new = system.energy_gradient(trial.x)
        if not np.isfinite(e_new) or abs(e_new) > _BLOW_FACTOR * e_scale:
            halve()
            continue
        if k == 0 and _energy_rose(e_new, e_state):
            # plain descent must be monotone; an energy rise means the
            # step has outrun the local curvature
            halve()
            continue
        if k == 0:
            # BB1 in the metric M: s = -step M^-1 g, so s^T M s = -step s^T g
            s = trial.x - state.x
            sy = float(s @ (g_new - g))
            step = _BB_CAP * step0 if sy <= 0.0 else min(-step * float(s @ g) / sy, _BB_CAP * step0)
        state, e_state, g = trial, e_new, g_new
    raise NoConvergence(
        f"gradient inf-norm {g_inf:.3e} above {opts.tol_grad:.3e} after {opts.max_iters} steps",
        iterations=opts.max_iters,
        residual=g_inf,
    )


def _branch_searches(
    system: System,
    origin: SaddleRecord,
    k: int,
    opts: SaddleOptions,
    errors_out: list | None,
    group: tuple,
    runs: list,
) -> list[tuple[float, _Landing]]:
    """Run the index-k search from origin +/- eps * v_j, with
    V = (v_1 .. v_k) from the origin's eigenvectors: j = k + 1 below the
    origin's index, j = k above it.  Only a target beyond the record's
    columns solves for more.  Returns the (sign, landing) of each branch,
    uncertified, and reports failed branches as (sign, error) to
    errors_out when given.  `runs` collects (k, start, outcome) of every
    branch run, the outcome its landing or its NoConvergence; a branch whose
    start is g.y0 for a run (k, y0, outcome) and a g in `group` takes
    g.(that landing), or that error, in place of its search."""
    want = k + 1 if k < origin.morse_index else k
    vecs = origin.eigenvectors
    if vecs.shape[1] < want:
        vecs = smallest_eigs(system, origin.field, want).eigenvectors
    eps = 1e-2 * max(1.0, float(np.linalg.norm(origin.field)))
    found = []
    for sign in (1.0, -1.0):
        x0 = origin.field + (sign * eps) * vecs[:, want - 1]
        near = 0.1 * _TOL_X * (1.0 + float(np.linalg.norm(x0)))
        out = next(
            (hit if isinstance(hit, NoConvergence) else hit._replace(field=g(hit.field))
             for k_run, y0, hit in runs if k_run == k for g in group if np.linalg.norm(g(y0) - x0) < near),
            None,
        )
        if out is None:
            try:
                out = _search(system, k, x0, vecs[:, :k], opts)
            except NoConvergence as err:
                out = err
            runs.append((k, x0, out))
        if not isinstance(out, NoConvergence):
            found.append((sign, out))
        elif errors_out is not None:
            errors_out.append((sign, out))
    return found


def branch_search(
    system: System,
    origin: SaddleRecord,
    k: int,
    opts: SaddleOptions | None = None,
    errors_out: list | None = None,
) -> list[SaddleRecord]:
    """Search for index-k saddles below or above a verified origin.

    Below it (k < origin.morse_index) x starts at origin +/- eps * v_{k+1};
    above it, at origin +/- eps * v_k.  V starts at (v_1 .. v_k), the
    eigenvectors the origin's record carries from its certificate (a fresh
    eigensolve only when k exceeds its morse_index + 2 columns).  Failed
    branches never abort the sibling and are reported to errors_out as
    (sign, error); every landing is certified, and wrong-index landings are
    kept with their true index.
    """
    if k == origin.morse_index:
        raise ValidationError("target index must differ from the origin index")
    opts = opts or SaddleOptions()
    hits = _branch_searches(system, origin, k, opts, errors_out, (), [])
    return [_record(system, hit, opts.tol_grad, k) for _, hit in hits]


@dataclass
class LandscapeOptions:
    """Search options and budgets for landscape assembly.

    `search` configures every branch search; `max_nodes` and
    `max_searches` bound the graph; `max_index`, when set, adds upward
    sweeps from every node up to that index (there is no a priori
    bound, so it is an explicit budget).  Branches start 1e-2*max(1, |x|)
    off their node along the eigenvectors its record carries, and two
    records match when both the energy gap is below 1e-8*(1+|E|) and the
    field distance is below 1e-4*(1 + field scale).
    """

    search: SaddleOptions = field(default_factory=SaddleOptions)
    max_nodes: int = 200
    max_searches: int = 2000
    max_index: int | None = None


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    kind: str  # "downward" | "upward"
    sign: float


@dataclass
class LandscapeGraph:
    """Stationary points and the search pathways between them.

    `searches` counts the branches accounted for, two per scheduled
    search; `branches_run` those whose search actually ran.  They differ
    only under a symmetry group, where a branch whose start is g.y0 for
    the start y0 of a branch run to the same index takes g.(that landing),
    or that run's error, instead.
    `failed` lists every branch that ended in NoConvergence, run or
    mapped, as (node, kind, k, sign, message): the node it started from,
    the search kind and target index, the perturbation sign and the error.
    """

    nodes: list  # SaddleRecords with ids assigned in discovery order
    edges: list  # Edges
    truncated: bool
    searches: int
    branches_run: int
    failed: list = field(default_factory=list)

    def node(self, node_id: int) -> SaddleRecord:
        return self.nodes[node_id]

    def by_index(self) -> dict:
        out: dict = {}
        for rec in self.nodes:
            out.setdefault(rec.morse_index, []).append(rec)
        return out


def _records_match(a, b, g=None) -> bool:
    """Whether two records (or a record and a landing) are one stationary
    point; with a symmetry g, whether b is the image g.a."""
    if abs(a.energy - b.energy) >= 1e-8 * (1.0 + max(abs(a.energy), abs(b.energy))):
        return False
    fa = a.field if g is None else g(a.field)
    scale = 1.0 + max(float(np.linalg.norm(fa)), float(np.linalg.norm(b.field)))
    return float(np.linalg.norm(fa - b.field)) < _TOL_X * scale


def _image_record(system: System, rec: SaddleRecord, g, hit: _Landing, tol_grad: float):
    """g.rec for the landing `hit` that matched it, field and eigenvectors mapped, index
    and spectrum copied; None when the fresh gradient is not below tol_grad."""
    x = g(rec.field)
    e, grad = system.energy_gradient(x)
    g_inf = float(np.abs(grad).max())
    if not g_inf < tol_grad:
        return None
    mapped = replace(rec, field=x, energy=e, eigenvectors=g(rec.eigenvectors), grad_inf=g_inf)
    return replace(mapped, iterations=hit.iterations, newton_steps=hit.newton_steps)


def build_landscape(
    system: System, seed: SaddleRecord, opts: LandscapeOptions | None = None
) -> LandscapeGraph:
    """Grow the stationary-point graph from a verified seed record.

    Breadth-first: every accepted node schedules downward searches to
    each index below it (and upward sweeps up to max_index when set),
    both perturbation signs, in a fixed order, so discovery ids are
    deterministic.  A landing that matches a node reuses that node's
    record and index; only a new node (within max_nodes) is certified,
    under the index it has, whatever the search's target.  Hitting a
    budget stops scheduling and returns the partial graph with
    truncated = True; branches that fail to converge are recorded in the
    graph's `failed` list.

    With a symmetry group (``symmetries_of``) the graph grows orbit by
    orbit, by two rules.  A landing that matches only the image g.n of a
    node takes n's record mapped by g, for one energy_gradient.  A branch
    whose start is g.y0, to a tenth of the matching distance, for the
    start y0 of a branch already run to the same target index takes
    g.(that landing), or goes to `failed` with that run's error, and is
    not run; this covers the - branch a symmetry of its origin maps onto
    the + branch, and every branch of a node mapped from another.
    `branches_run` counts the branches run.
    """
    opts = opts or LandscapeOptions()
    group = symmetries_of(system)[1:]  # the identity is the plain match
    nodes: list[SaddleRecord] = [replace(seed, id=0)]
    edges: list[Edge] = []
    failed: list[tuple] = []
    runs: list = []  # (k, start, landing or error) of every branch run
    searches = 0
    truncated = False

    def schedule(node_id: int) -> deque:
        rec = nodes[node_id]
        jobs = deque()
        for k in range(rec.morse_index - 1, -1, -1):
            jobs.append((node_id, "downward", k))
        if opts.max_index is not None:
            for k in range(rec.morse_index + 1, opts.max_index + 1):
                jobs.append((node_id, "upward", k))
        return jobs

    queue = schedule(0)
    while queue:
        if searches >= opts.max_searches or len(nodes) >= opts.max_nodes:
            truncated = True
            break
        node_id, kind, k = queue.popleft()
        parent = nodes[node_id]
        searches += 2
        errors: list = []
        hits = _branch_searches(system, parent, k, opts.search, errors, group, runs)
        failed.extend((node_id, kind, k, sign, str(err)) for sign, err in errors)
        for sign, hit in hits:
            match_id = next((rec.id for rec in nodes if _records_match(rec, hit)), None)
            if match_id is None:
                if len(nodes) >= opts.max_nodes:
                    truncated = True
                    continue
                match_id = len(nodes)
                image = next(((rec, g) for rec in nodes for g in group if _records_match(rec, hit, g)), None)
                rec = None if image is None else _image_record(system, *image, hit, opts.search.tol_grad)
                if rec is None:
                    rec = _record(system, hit, opts.search.tol_grad, k)
                nodes.append(replace(rec, id=match_id))
                queue.extend(schedule(match_id))
            found_index = nodes[match_id].morse_index
            if match_id == node_id:
                continue
            if kind == "downward" and found_index < parent.morse_index:
                edges.append(Edge(node_id, match_id, "downward", sign))
            elif kind == "upward" and found_index > parent.morse_index:
                edges.append(Edge(node_id, match_id, "upward", sign))
    return LandscapeGraph(nodes, edges, truncated, searches, len(runs), failed)
