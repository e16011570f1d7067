"""Stable states, defect configurations, transition pathways, and
solution landscapes of the Landau-de Gennes Q-tensor model, plus the
homogeneous Maier-Saupe branch structure.

The five-component tensor calculus, broadcast over whole fields, lives
in ``qtensor``; ``field`` and ``energy`` discretize the square-domain
free energy; ``minimize``, ``sav``, ``hisd`` (saddle dynamics and
landscapes) and ``mep`` (the string method, reparametrized to equal arc
length) provide the solvers, ``spectrum`` their matrix-free
eigensolver; ``maier_saupe`` and ``hedgehog`` cover the molecular model
and the radial defect profile; ``fieldio`` and ``cli`` handle
persistence and the command line.
"""

from .energy import LdGSystem, free_energy, gradient
from .errors import (
    ConfigError,
    DegeneratePath,
    DegenerateStationary,
    LinearSolveFailure,
    NematicqError,
    NoConvergence,
    NoNematicRoots,
    NotIndexOne,
    NotStationary,
    ParseError,
    ShapeMismatch,
    SolveError,
    ValidationError,
    WrongIndex,
)
from .field import Domain, QField, seed_field, square_symmetry_orbit, symmetrize
from .fieldio import RunConfig, load_config, read_field, write_field
from .hedgehog import HedgehogProfile, ode_residual, solve_profile
from .hisd import (
    Edge,
    LandscapeGraph,
    LandscapeOptions,
    SaddleOptions,
    SaddleRecord,
    branch_search,
    build_landscape,
    classify_stationary,
    find_saddle,
    hisd_step,
    make_record,
)
from .maier_saupe import (
    LeslieSet,
    MsCriticalPoint,
    critical_alpha,
    leslie_coefficients,
    order_parameters,
    ratio,
    solve_branches,
)
from .mep import MepResult, Path, find_mep, perpendicular_residual, reparametrize
from .minimize import MinimizeOptions, MinimizeResult, minimize
from .qtensor import (
    BulkCriticalSet,
    BulkParams,
    biaxiality,
    bulk_energy,
    bulk_gradient,
    critical_points,
    frob2,
    trq3,
    uniaxial_components,
)
from .sav import SavSplit, flow_to_equilibrium, sav_init, sav_split, sav_step
from .spectrum import SpectrumReport, smallest_eigs
from .systems import System, make_rng

__version__ = "0.1.0"

__all__ = [
    "BulkCriticalSet",
    "BulkParams",
    "ConfigError",
    "DegeneratePath",
    "DegenerateStationary",
    "Domain",
    "Edge",
    "HedgehogProfile",
    "LandscapeGraph",
    "LandscapeOptions",
    "LdGSystem",
    "LeslieSet",
    "LinearSolveFailure",
    "MepResult",
    "MinimizeOptions",
    "MinimizeResult",
    "MsCriticalPoint",
    "NematicqError",
    "NoConvergence",
    "NoNematicRoots",
    "NotIndexOne",
    "NotStationary",
    "ParseError",
    "Path",
    "QField",
    "RunConfig",
    "SaddleOptions",
    "SaddleRecord",
    "SavSplit",
    "ShapeMismatch",
    "SolveError",
    "SpectrumReport",
    "System",
    "ValidationError",
    "WrongIndex",
    "biaxiality",
    "branch_search",
    "build_landscape",
    "bulk_energy",
    "bulk_gradient",
    "classify_stationary",
    "critical_alpha",
    "critical_points",
    "find_mep",
    "find_saddle",
    "flow_to_equilibrium",
    "free_energy",
    "frob2",
    "gradient",
    "hisd_step",
    "leslie_coefficients",
    "load_config",
    "make_record",
    "make_rng",
    "minimize",
    "ode_residual",
    "order_parameters",
    "perpendicular_residual",
    "ratio",
    "read_field",
    "reparametrize",
    "sav_init",
    "sav_split",
    "sav_step",
    "seed_field",
    "smallest_eigs",
    "solve_branches",
    "solve_profile",
    "square_symmetry_orbit",
    "symmetrize",
    "trq3",
    "uniaxial_components",
    "write_field",
]
