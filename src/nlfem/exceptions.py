"""Exception hierarchy shared across the package.

``ConfigError`` and ``MeshError`` signal bad user input (CLI exit code 2);
everything else derived from ``NlfemError`` is a numerical failure (exit 3).
"""


class NlfemError(Exception):
    """Base class for all package errors."""


class ConfigError(NlfemError):
    """Invalid run configuration."""


class MeshError(NlfemError):
    """Mesh construction precondition violated."""


class OutsideDomainError(NlfemError):
    """Point location requested outside the meshed region, or in another dimension."""


class KernelError(NlfemError):
    """Invalid kernel evaluation (e.g. at the singular point of a rational kernel)."""


class QuadratureError(NlfemError):
    """Inner quadrature rule could not be constructed."""


class AssemblyError(NlfemError):
    """System assembly failed."""


class SolverError(NlfemError):
    """Linear solve failed or did not meet the residual contract."""
