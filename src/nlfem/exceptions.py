"""Exception hierarchy shared across the package, and its scalar input checks.

Loading a config runs every level's constructor checks and refuses it with a
``ConfigError`` (CLI exit code 2).  After loading, only an output path that
cannot be written exits 2; any ``NlfemError`` a level raises is exit 3.
"""

import math
import numbers


class NlfemError(Exception):
    """Base class for all package errors."""


class ConfigError(NlfemError):
    """Invalid run configuration."""


class MeshError(NlfemError):
    """Mesh construction precondition violated."""


class OutsideDomainError(NlfemError):
    """Point location given points or offsets without one coordinate per mesh dimension."""


class KernelError(NlfemError):
    """Invalid kernel parameters: dimension, horizon, kind or ball norm."""


class QuadratureError(NlfemError):
    """Inner quadrature rule could not be constructed."""


class AssemblyError(NlfemError):
    """System assembly failed."""


class SolverError(NlfemError):
    """Linear solve failed or did not meet the residual contract."""


def _integer(name: str, value, error: type[NlfemError], lo=None, hi=None):
    """``value`` if it is an integer, numpy's included but not a bool, in [lo, hi)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value < hi:
        bound = f"2^{hi.bit_length() - 1}" if hi & (hi - 1) == 0 else hi
        raise error(f"{name} must lie in [{lo}, {bound}), got {value!r}")
    if lo is not None and value < lo:
        raise error(f"{name} must be at least {lo}, got {value!r}")
    return value


def _real(name: str, value, error: type[NlfemError]) -> float:
    """``value`` as a float if it is a finite real number, numpy's included but not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    return number
