"""Minimal interface shared by every energy the solvers can drive.

A system exposes a scalar energy and its gradient on flat float vectors.
Minimization, gradient flow, the string method and the saddle searches
are all written against this interface, so discretized tensor fields and
low-dimensional toy potentials run through identical code paths.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["System", "EUCLIDEAN", "make_rng", "preconditioner_of", "symmetries_of"]

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: str = "") -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream name).

    Distinct stream names give independent, reproducible streams for the
    same user seed; results do not depend on draw order elsewhere.
    """
    h = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    key = np.array([seed & _MASK64, h], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def default_probe_length(x: np.ndarray, v: np.ndarray) -> float:
    """Default finite-difference length for a nonzero v: 1e-4 times the field scale per unit v."""
    return 1e-4 * (1.0 + float(np.linalg.norm(x))) / float(np.linalg.norm(v))


class System:
    """Base class: subclasses implement ``energy`` and ``gradient``.

    ``n`` is the number of degrees of freedom; vectors passed in and out
    are flat float64 arrays of that length.  ``energy_gradient`` returns
    both at one point; ``energies``/``gradients`` evaluate the rows of an
    (m, n) block and ``energies_gradients`` both, the one fused block pass
    that each string sweep takes at its resampled nodes.  These defaults
    call ``energy`` and ``gradient``.
    """

    n: int = 0

    def energy(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def energy_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``(energy(x), gradient(x))``, the energy as a float; a system that
        can share work between the two overrides it with the same values."""
        return float(self.energy(x)), self.gradient(x)

    def energies(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.energy(x) for x in xs])

    def gradients(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.gradient(x) for x in xs])

    def energies_gradients(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(energies(xs), gradients(xs))``; a system that can share work
        between the two overrides it with the same values."""
        return self.energies(xs), self.gradients(xs)

    def hessian_vec(self, x: np.ndarray, v: np.ndarray, l: float | None = None) -> np.ndarray:
        """H(x) v, by default a central difference (grad(x + l v) - grad(x - l v)) / (2 l);
        ``LdGSystem`` overrides it with the exact action.

        ``v`` is a vector or an (n, m) block, and so is the result: each
        nonzero column gets its own probe length (``l`` or the default) and
        all probes go through one ``gradients`` call.  Exact (independent of
        l) whenever the gradient is affine in x.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        cols = v.reshape(v.shape[0], -1).T
        hv = np.zeros_like(cols)
        live = np.flatnonzero(cols.any(axis=1))
        if live.size:
            step = np.array([[default_probe_length(x, cols[j]) if l is None else float(l)] for j in live])
            d = step * cols[live]
            g = self.gradients(np.concatenate([x + d, x - d]))
            hv[live] = (g[: live.size] - g[live.size :]) / (2.0 * step)
        return hv.T.reshape(v.shape)


class _Identity:
    """M = I: ``solve`` and ``apply`` return their argument.

    ``solve(v, shift)`` returns v for every shift, (I + shift I)^-1 v without
    its factor 1/(1 + shift): only LOBPCG shifts, by -theta with 0 < theta < 1
    (``spectrum.lobpcg``), and it projects and orthonormalizes W, so a
    positive factor would change nothing but the bits."""

    lowest_eigenvalue = 1.0

    def solve(self, v: np.ndarray, shift: float = 0.0) -> np.ndarray:
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v

    def add_lowest_modes(self, x: np.ndarray) -> None:
        """Nothing: LOBPCG's start block stays the random one (``solve_smallest``)."""


EUCLIDEAN = _Identity()


def preconditioner_of(system: System):
    """The system's SPD metric M: its own ``preconditioner()`` when it
    brings one, else the identity EUCLIDEAN."""
    build = getattr(system, "preconditioner", None)
    return build() if callable(build) else EUCLIDEAN


def symmetries_of(system: System) -> tuple:
    """The system's own ``symmetries`` (maps of flat vectors and (n, m) blocks,
    identity first) when it brings them, else none."""
    return tuple(getattr(system, "symmetries", ()))
