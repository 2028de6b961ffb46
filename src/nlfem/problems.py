"""Manufactured solutions for convergence studies.

Every case solves -Δu = λu for one eigenvalue λ, so a case is plain data:
its name, dimension, λ and ``solution_and_gradient``, which writes the
closed-form local solution once and returns its values and one gradient
component per axis from one evaluation; the error norms use both.
``solution``, the Dirichlet layer data, is its values, and ``source``
(minus the Laplacian) is λ times them.  All callables take (n, d) point
arrays.  ``get_case`` returns the one shared instance of each case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ManufacturedCase:
    name: str
    dim: int
    eigenvalue: float  # λ in -Δu = λu
    solution_and_gradient: Callable[[np.ndarray], tuple[np.ndarray, tuple[np.ndarray, ...]]]

    def solution(self, p: np.ndarray) -> np.ndarray:
        return self.solution_and_gradient(p)[0]

    def source(self, p: np.ndarray) -> np.ndarray:
        return self.eigenvalue * self.solution(p)


def _sin_1d(p):
    """u(x) = sin(2 pi x)."""
    x = _TWO_PI * p[..., 0]
    return np.sin(x), (_TWO_PI * np.cos(x),)


def _linear_1d(p):
    """u(x) = x, which the basis represents exactly."""
    return p[..., 0].copy(), (np.ones(p.shape[:-1]),)


def _sin_2d(p):
    """u(x) = sin(2 pi x1) sin(2 pi x2)."""
    x1, x2 = _TWO_PI * p[..., 0], _TWO_PI * p[..., 1]
    s1, s2 = np.sin(x1), np.sin(x2)
    return s1 * s2, (_TWO_PI * np.cos(x1) * s2, _TWO_PI * s1 * np.cos(x2))


_CASES = {case.name: case for case in (
    ManufacturedCase("sin1d", 1, 4.0 * math.pi**2, _sin_1d),
    ManufacturedCase("linear1d", 1, 0.0, _linear_1d),
    ManufacturedCase("sin2d", 2, 8.0 * math.pi**2, _sin_2d),
)}


def get_case(name: str) -> ManufacturedCase:
    try:
        return _CASES[name]
    except KeyError:
        raise ConfigError(
            f"unknown case {name!r}; available: {sorted(_CASES)}"
        ) from None
