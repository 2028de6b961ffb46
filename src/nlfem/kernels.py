"""Nonlocal interaction kernels and their exact second-moment integrals.

Two kernel families are supported on balls of radius ``horizon``: a constant
profile scaling/horizon^(d+2) and a rational profile scaling/(horizon^(d+1) r).
With the default scaling constants the diagonal second moments over a full
ball of either norm equal one, which is exactly the normalization that makes
the nonlocal operator converge to the classical Laplacian as the horizon
shrinks.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import KernelError
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


def default_scaling(kind: KernelKind, dim: int,
                    ball_norm: BallNorm = BallNorm.EUCLIDEAN) -> float:
    """Scaling constant that normalizes the diagonal second moments to one."""
    try:
        return _DEFAULT_SCALING[(kind, dim, ball_norm)]
    except KeyError:
        raise KernelError(f"no default scaling for {kind}, dim={dim}, {ball_norm}") from None


@dataclass(frozen=True)
class Kernel:
    kind: KernelKind
    dim: int
    horizon: float
    scaling: float
    ball_norm: BallNorm = BallNorm.EUCLIDEAN

    def __post_init__(self):
        if (isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer))
                or self.dim not in (1, 2)):
            raise KernelError(f"unsupported dimension {self.dim!r}")
        for name, value in (("horizon", self.horizon), ("scaling", self.scaling)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise KernelError(f"{name} must be a real number, got {value!r}")
            if not (value > 0 and math.isfinite(value)):
                raise KernelError(f"{name} must be positive and finite, got {value!r}")

    @classmethod
    def make(cls, kind: KernelKind, dim: int, horizon: float,
             scaling: float | None = None,
             ball_norm: BallNorm = BallNorm.EUCLIDEAN) -> "Kernel":
        if scaling is None:
            scaling = default_scaling(kind, dim, ball_norm)
        return cls(kind, dim, horizon, scaling, ball_norm)

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
    return _moment_integrals_cached(kernel).copy()


@lru_cache(maxsize=None)
def _moment_integrals_cached(kernel: Kernel) -> np.ndarray:
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
