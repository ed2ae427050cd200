"""Stabilizer-free weak Galerkin solver for the clamped biharmonic problem."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceReport,
    ExactSolution,
    convergence_rates,
    error_2h,
    error_l2,
    error_triple,
)
from .mesh import Mesh, build_polygonal, build_triangular, dump_mesh, load_mesh, validate
from .solutions import builtin_solution
from .study import StudyConfig, run_study, write_report
from .system import build_dof_map, assemble, solve, solve_biharmonic
from .weakop import (
    WeakFunction,
    apply_weak_laplacian,
    element_operators,
    interpolate_qh,
)

__all__ = [
    "ConvergenceReport",
    "ExactSolution",
    "Mesh",
    "StudyConfig",
    "WeakFunction",
    "apply_weak_laplacian",
    "assemble",
    "build_dof_map",
    "build_polygonal",
    "build_triangular",
    "builtin_solution",
    "convergence_rates",
    "dump_mesh",
    "element_operators",
    "error_2h",
    "error_l2",
    "error_triple",
    "interpolate_qh",
    "load_mesh",
    "run_study",
    "solve",
    "solve_biharmonic",
    "validate",
    "write_report",
]
