"""Nonlocal interaction kernels and their exact second-moment integrals.

Two kernel families are supported on balls of radius ``horizon``: a constant
profile scaling/horizon^(d+2) and a rational profile scaling/(horizon^(d+1) r).
The scaling is not a parameter: it is looked up from the kind, dimension and
ball norm, and makes the diagonal second moments over the full ball equal
one, which is exactly the normalization that makes the nonlocal operator
converge to the classical Laplacian as the horizon shrinks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import KernelError, _integer, _real
from .geometry import BallNorm


class KernelKind(enum.Enum):
    CONSTANT = "constant"
    RATIONAL = "rational"


# Inverse diagonal moments at unit scaling; in 1D both balls are one interval.
_DEFAULT_SCALING = {
    (KernelKind.CONSTANT, 1, BallNorm.EUCLIDEAN): 1.5,
    (KernelKind.RATIONAL, 1, BallNorm.EUCLIDEAN): 1.0,
    (KernelKind.CONSTANT, 1, BallNorm.MAX): 1.5,
    (KernelKind.RATIONAL, 1, BallNorm.MAX): 1.0,
    (KernelKind.CONSTANT, 2, BallNorm.EUCLIDEAN): 4.0 / math.pi,
    (KernelKind.RATIONAL, 2, BallNorm.EUCLIDEAN): 3.0 / math.pi,
    (KernelKind.CONSTANT, 2, BallNorm.MAX): 3.0 / 4.0,
    (KernelKind.RATIONAL, 2, BallNorm.MAX): 9.0 / 16.0,
}


@dataclass(frozen=True)
class Kernel:
    kind: KernelKind
    dim: int
    horizon: float
    ball_norm: BallNorm = BallNorm.EUCLIDEAN

    def __post_init__(self):
        _integer("dimension", self.dim, KernelError, 1, 3)
        if not _real("horizon", self.horizon, KernelError) > 0:
            raise KernelError(f"horizon must be positive, got {self.horizon!r}")
        # the table holds every enum pair, so this refuses exactly the keys it lacks
        if not (isinstance(self.kind, KernelKind) and isinstance(self.ball_norm, BallNorm)):
            raise KernelError("kind must be a KernelKind and ball_norm a BallNorm,"
                              f" got {self.kind!r} and {self.ball_norm!r}")

    @property
    def scaling(self) -> float:
        """Constant that normalizes the diagonal second moments to one."""
        return _DEFAULT_SCALING[(self.kind, self.dim, self.ball_norm)]

    def strength(self, r: np.ndarray) -> np.ndarray:
        """Kernel value as a function of ball-norm distance r, 0 < r <= horizon.

        No support check; callers guarantee r is inside the ball.
        """
        r = np.asarray(r, dtype=float)
        if self.kind is KernelKind.CONSTANT:
            return np.full_like(r, self.scaling / self.horizon ** (self.dim + 2))
        return self.scaling / (self.horizon ** (self.dim + 1) * r)


def second_moment_indices(dim: int) -> list[tuple[int, ...]]:
    """Multi-indices of total degree two, in fixed order."""
    if dim == 1:
        return [(2,)]
    return [(2, 0), (1, 1), (0, 2)]


def exact_moment_integrals(kernel: Kernel) -> np.ndarray:
    """Integrals of kernel * (y-x)^beta over the full ball, |beta| = 2.

    Independent of the center; closed forms for both ball norms.
    """
    z = kernel.scaling
    constant = kernel.kind is KernelKind.CONSTANT
    if kernel.dim == 1:
        # The 1D max-norm ball coincides with the Euclidean one.
        return np.array([2.0 * z / 3.0 if constant else z])
    if kernel.ball_norm is BallNorm.EUCLIDEAN:
        diag = z * math.pi / 4.0 if constant else z * math.pi / 3.0
    else:
        # Square [-d, d]^2: the rational kernel's 1/max(|s1|, |s2|) splits
        # along the diagonals into two polynomial pieces.
        diag = 4.0 * z / 3.0 if constant else 16.0 * z / 9.0
    return np.array([diag, 0.0, diag])
