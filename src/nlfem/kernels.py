"""Nonlocal interaction kernels, scaled to unit second moments.

Two kernel families are supported on balls of radius ``horizon``: a constant
profile scaling/horizon^(d+2) and a rational profile scaling/(horizon^(d+1) r).
The scaling is not a parameter: it is looked up from the kind, dimension and
ball norm, and makes the second moments over the full ball the unit tensor,
the integral of kernel * s_i * s_j equal to delta_ij at every horizon.  That
is exactly the normalization that makes the nonlocal operator converge to
the classical Laplacian as the horizon shrinks, and it is why the inner
quadrature's moment targets (``quadrature``) are 1 and 0.
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


# Each entry is the inverse of the diagonal moment, the integral of
# kernel * s_1^2 over the full ball, at unit scaling.  Constant, then rational:
# 2/3 and 1 on the 1D interval (both balls), pi/4 and pi/3 on the 2D disc,
# 4/3 and 16/9 on the 2D square, where 1/max(|s_1|, |s_2|) splits along the
# diagonals into two polynomial pieces.  Off-diagonal moments vanish by symmetry.
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

