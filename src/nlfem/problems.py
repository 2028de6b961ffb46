"""Manufactured solutions for convergence studies.

Each case writes its closed-form local solution once, in
``solution_and_gradient``, which returns the values and one gradient
component per axis from one evaluation; the error norms use both.
``solution``, the Dirichlet layer data, is its values, and the source term
(minus the Laplacian) is built from the same evaluation.  All callables
take (n, d) point arrays.
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
    source: Callable[[np.ndarray], np.ndarray]
    solution_and_gradient: Callable[[np.ndarray], tuple[np.ndarray, tuple[np.ndarray, ...]]]

    def solution(self, p: np.ndarray) -> np.ndarray:
        return self.solution_and_gradient(p)[0]


def case_sin_1d() -> ManufacturedCase:
    """u(x) = sin(2 pi x) with source 4 pi^2 sin(2 pi x)."""

    def u_grad(p):
        x = _TWO_PI * p[..., 0]
        return np.sin(x), (_TWO_PI * np.cos(x),)

    def b(p):
        return 4.0 * math.pi**2 * u_grad(p)[0]

    return ManufacturedCase("sin1d", 1, b, u_grad)


def case_linear_1d() -> ManufacturedCase:
    """u(x) = x; zero source.  Exactly representable by the basis."""

    def u_grad(p):
        return p[..., 0].copy(), (np.ones(p.shape[:-1]),)

    def b(p):
        return np.zeros(p.shape[:-1])

    return ManufacturedCase("linear1d", 1, b, u_grad)


def case_sin_2d() -> ManufacturedCase:
    """u(x) = sin(2 pi x1) sin(2 pi x2) with source 8 pi^2 times itself."""

    def u_grad(p):
        x1, x2 = _TWO_PI * p[..., 0], _TWO_PI * p[..., 1]
        s1, s2 = np.sin(x1), np.sin(x2)
        return s1 * s2, (_TWO_PI * np.cos(x1) * s2, _TWO_PI * s1 * np.cos(x2))

    def b(p):
        return 8.0 * math.pi**2 * u_grad(p)[0]

    return ManufacturedCase("sin2d", 2, b, u_grad)


_CASES = {
    "sin1d": case_sin_1d,
    "linear1d": case_linear_1d,
    "sin2d": case_sin_2d,
}


def get_case(name: str) -> ManufacturedCase:
    try:
        return _CASES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown case {name!r}; available: {sorted(_CASES)}"
        ) from None
