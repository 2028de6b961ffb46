"""Finite elements for volume-constrained nonlocal Poisson problems.

Inner ball integrals are discretized with optimization-based quadrature
weights on a regular grid over the full interaction ball, so assembly never
computes element-ball intersections.
"""

from .assembly import (DiscreteSystem, assemble_system, outer_rules, reconstruct,
                       solve_system, truncated_weights)
from .convergence import (ConvergenceReport, ErrorRecord, RateFit, error_norms,
                          fit_rate, guarded_fit_rate, h1_error, l2_error)
from .exceptions import (AssemblyError, ConfigError, KernelError, MeshError,
                         NlfemError, QuadratureError, SolverError)
from .geometry import (BallNorm, BoxDomain, Mesh, PerturbationSpec,
                       build_uniform_mesh, locate_points, perturb_mesh)
from .kernels import Kernel, KernelKind
from .problems import ManufacturedCase, get_case
from .quadrature import InnerQuadratureRule, default_cache, full_ball_rule

__version__ = "0.1.0"

__all__ = [
    "DiscreteSystem", "assemble_system", "outer_rules", "reconstruct",
    "solve_system", "truncated_weights",
    "ConvergenceReport", "ErrorRecord", "RateFit", "error_norms", "fit_rate",
    "guarded_fit_rate", "h1_error", "l2_error",
    "AssemblyError", "ConfigError", "KernelError", "MeshError", "NlfemError",
    "QuadratureError", "SolverError",
    "BallNorm", "BoxDomain", "Mesh", "PerturbationSpec", "build_uniform_mesh",
    "locate_points", "perturb_mesh",
    "Kernel", "KernelKind",
    "ManufacturedCase", "get_case",
    "InnerQuadratureRule", "default_cache", "full_ball_rule",
]
