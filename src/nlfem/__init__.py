"""Finite elements for volume-constrained nonlocal Poisson problems.

Inner ball integrals are discretized with optimization-based quadrature
weights on a regular grid over the full interaction ball, so assembly never
computes element-ball intersections.
"""

from .assembly import (DiscreteSystem, Field, assemble_system, outer_rules,
                       reconstruct, solve_system, truncated_weights)
from .convergence import (ConvergenceReport, ErrorRecord, RateFit, error_norms,
                          fit_rate, guarded_fit_rate, h1_error, l2_error)
from .exceptions import (AssemblyError, ConfigError, KernelError, MeshError,
                         NlfemError, OutsideDomainError, QuadratureError,
                         SolverError)
from .geometry import (BallNorm, BoxDomain, Mesh, PerturbationSpec,
                       build_uniform_mesh, locate_points, perturb_mesh)
from .kernels import (Kernel, KernelKind, exact_moment_integrals,
                      second_moment_indices)
from .problems import (ManufacturedCase, case_linear_1d, case_sin_1d,
                       case_sin_2d, get_case)
from .quadrature import (InnerGridSpec, InnerQuadratureRule, RuleCache,
                         default_cache, filter_to_ball, full_ball_rule,
                         generate_offsets, solve_weights)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
