"""Error taxonomy shared across the package.

Two families: validation errors (bad inputs, malformed files) and solve
errors (an algorithm ran and failed to produce a converged artifact).
The CLI maps validation errors to exit code 1 and solve errors to 2.
"""

from __future__ import annotations

import math


class NematicqError(Exception):
    """Base class for all package errors."""


class ValidationError(NematicqError):
    """Bad input: shapes, parameter ranges, file contents, config keys."""


class SolveError(NematicqError):
    """An iterative solver failed to reach its contract."""


class NoNematicRoots(ValidationError):
    """The bulk quadratic 2cs^2 - bs + 3a has no real roots (b^2 < 24ac)."""

    def __init__(self, a: float, b: float, c: float, discriminant: float):
        self.discriminant = discriminant
        super().__init__(
            f"no nematic critical points: b^2 - 24ac = {self.discriminant:g} < 0 "
            f"for a={a:g}, b={b:g}, c={c:g}"
        )


def check_positive(name: str, value: float) -> None:
    """ValidationError unless 0 < value < inf (NaN fails too)."""
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


class ShapeMismatch(ValidationError):
    """Array or file shape disagrees with the domain it is used with."""


class ParseError(ValidationError):
    """Malformed text input; carries 1-based line and field numbers."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = int(line)
        self.column = int(column)
        super().__init__(f"line {line}, field {column}: {message}")


class ConfigError(ValidationError):
    """Run configuration is missing keys, has unknown keys, or bad values."""


class NoConvergence(SolveError):
    """Iteration budget exhausted before the stopping test held."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(f"{message} (iterations={iterations}, residual={residual:g})")


class LinearSolveFailure(SolveError):
    """The SAV flow's conjugate-gradient solve did not reach its tolerance."""


class DegeneratePath(ValidationError):
    """String endpoints coincide: total path length below resolution."""


class NotStationary(SolveError):
    """A field asserted stationary has a gradient norm above tolerance."""

    def __init__(self, grad_norm: float, tol: float):
        self.grad_norm = float(grad_norm)
        self.tol = float(tol)
        super().__init__(f"not stationary: |grad|_inf = {grad_norm:g} >= {tol:g}")


class DegenerateStationary(SolveError):
    """A Ritz value that decides a certificate's Morse index lies within
    max(tol_eig, its residual) of zero, as at a bifurcation."""


class NotIndexOne(SolveError):
    """A transition state candidate fails the lambda1 < 0 < lambda2 test."""


class WrongIndex(SolveError):
    """A saddle search converged, but to a different Morse index.

    Carries the converged record so callers may keep it under its true
    index (the landscape builder does).
    """

    def __init__(self, found: int, wanted: int, record=None):
        self.found = int(found)
        self.wanted = int(wanted)
        self.record = record
        super().__init__(f"converged to Morse index {found}, wanted {wanted}")
