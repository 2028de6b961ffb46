"""Optimization-based quadrature rules over interaction balls.

Inner integrals of the nonlocal bilinear form are evaluated on a regular
point grid spread over the whole ball around each outer quadrature point,
never element by element.  The weights are the minimal-Euclidean-norm
solution of exactness constraints for the functions kernel * (y-x)^beta
with |beta| = 2: for the constraint system B w = g they are B^T (B B^T)^+ g,
where the pseudoinverse of the normal matrix B B^T always drops its
singular values below a relative cutoff.

Near the layer boundary the ball sticks out of the meshed region.  There
the grid is first intersected with the region grown by the configured
extension, weights are solved on that extended set against the full-ball
moments, and points falling outside the meshed region are then discarded
together with their weights.  Solving before restricting is deliberate:
with extension equal to the horizon every near-boundary point keeps its
full-ball weight, which is what restores second-order accuracy.  That
construction runs batched in ``assembly.truncated_weights`` on masks from
``locate_points``; this module supplies its cached masked solve.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import QuadratureError
from .geometry import BallNorm
from .kernels import Kernel, exact_moment_integrals, second_moment_indices

_RANK_CUTOFF = 1e-12
_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class InnerGridSpec:
    """Regular grid over the ball: ``points_per_radius`` points per horizon length."""

    points_per_radius: int

    def __post_init__(self):
        n = self.points_per_radius
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise QuadratureError(f"points_per_radius must be an integer, got {n!r}")
        if n < 1:
            raise QuadratureError("points_per_radius must be at least 1")

    def spacing(self, horizon: float) -> float:
        return horizon / self.points_per_radius


@dataclass
class InnerQuadratureRule:
    """Inner rule: offsets relative to the center, weights, and diagnostics.

    ``strengths`` caches the kernel value at each offset.  ``residual`` is the
    constraint defect of the solve that produced the weights.
    """

    offsets: np.ndarray
    weights: np.ndarray
    strengths: np.ndarray
    residual: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise QuadratureError("non-finite quadrature weights")

    @property
    def size(self) -> int:
        return len(self.weights)

    def dump_csv(self, path) -> None:
        dim = self.offsets.shape[1]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f"offset_{'xy'[k]}" for k in range(dim)) + ",weight\n")
            for off, w in zip(self.offsets, self.weights):
                fh.write(",".join(repr(float(c)) for c in off) + f",{float(w)!r}\n")


def generate_offsets(spec: InnerGridSpec, dim: int, horizon: float) -> np.ndarray:
    """Symmetric grid of (2n)^d offsets, components at odd multiples of spacing/2."""
    n = spec.points_per_radius
    half = 0.5 * spec.spacing(horizon)
    ks = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    axis = (2 * ks - np.sign(ks)) * half
    grids = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def filter_to_ball(offsets: np.ndarray, horizon: float, ball_norm: BallNorm) -> np.ndarray:
    """Mask of the offsets inside the closed ball of radius horizon."""
    included = ball_norm.length(offsets) <= horizon
    if not included.any():
        raise QuadratureError("no quadrature points fall inside the ball")
    return included


def _monomials(offsets: np.ndarray, dim: int) -> np.ndarray:
    """(y-x)^beta for each |beta| = 2 row, in ``second_moment_indices`` order,
    and each offset column."""
    return np.stack([math.prod(offsets[:, k] ** p for k, p in enumerate(beta) if p)
                     for beta in second_moment_indices(dim)])


def _constraint_matrix(kernel: Kernel, offs: np.ndarray) -> np.ndarray:
    """Entry (a, j) is kernel strength at offset j times offset j ** beta_a."""
    r = kernel.ball_norm.length(offs)
    if np.any(r < 1e-14 * kernel.horizon):
        raise QuadratureError("singular constraint: quadrature point coincides with the center")
    return kernel.strength(r)[None, :] * _monomials(offs, kernel.dim)


def solve_weights(B: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimal-norm weights satisfying B w = g, with the achieved residual.

    Solves through the normal matrix B B^T; singular values below
    1e-12 * sigma_max are truncated, which handles redundant constraints.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    g = np.asarray(g, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        S = B @ B.T
    # S is finite only if B is and no product overflowed
    if not (np.isfinite(S).all() and np.isfinite(g).all()):
        raise QuadratureError("non-finite constraints: B, g or B B^T has an inf or NaN")
    U, s, Vt = np.linalg.svd(S)
    if s[0] <= 0.0:
        raise QuadratureError("degenerate constraints: zero constraint matrix")
    keep = s > _RANK_CUTOFF * s[0]  # always holds s[0], which is finite and positive
    w = B.T @ (Vt.T[:, keep] @ ((U[:, keep].T @ g) / s[keep]))
    residual = float(np.linalg.norm(B @ w - g))
    return w, residual


def _moment_weights(kernel: Kernel, offs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimal-norm weights on ``offs`` that reproduce the full-ball moments.

    Raises ``QuadratureError`` when the constraint residual exceeds
    1e-12 relative to the moments.
    """
    B = _constraint_matrix(kernel, offs)
    g = exact_moment_integrals(kernel)
    w, residual = solve_weights(B, g)
    if residual > _RESIDUAL_TOL * max(float(np.linalg.norm(g)), 1e-300):
        raise QuadratureError(
            f"inner rule constraint residual {residual:.3e} exceeds tolerance"
        )
    return w, residual


class RuleCache:
    """Thread-safe cache of inner rules; ``default_cache()`` is the process's one.

    Keys hold the rule kind, the kernel, the grid's points per radius and,
    for a truncated solve, the mask's bytes: everything a rule is built from.
    """

    def __init__(self):
        self._data: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key, builder):
        with self._lock:
            if key in self._data:
                self.hits += 1
                return self._data[key]
        value = builder()
        with self._lock:
            # First writer wins; builders are deterministic so the value is
            # identical regardless of which thread got here first.
            if key in self._data:
                self.hits += 1
            else:
                self._data[key] = value
                self.misses += 1
            return self._data[key]

    def clear(self):
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0


_default_cache = RuleCache()


def default_cache() -> RuleCache:
    return _default_cache


def full_ball_rule(kernel: Kernel, spec: InnerGridSpec) -> InnerQuadratureRule:
    """Rule for a ball entirely inside the region; computed once and reused.

    Cached under ``("full", kernel, points_per_radius)``.  Every weight of
    this rule must be positive; a solve that gives a weight at or below zero
    raises ``QuadratureError``.
    """
    key = ("full", kernel, spec.points_per_radius)
    return _default_cache.get_or_build(key, lambda: _build_full_rule(kernel, spec))


def _build_full_rule(kernel: Kernel, spec: InnerGridSpec) -> InnerQuadratureRule:
    offs = generate_offsets(spec, kernel.dim, kernel.horizon)
    offs = offs[filter_to_ball(offs, kernel.horizon, kernel.ball_norm)]
    w, residual = _moment_weights(kernel, offs)
    if np.any(w <= 0):
        raise QuadratureError(
            f"full-ball rule has a non-positive weight (min {float(w.min()):.3e})")
    return InnerQuadratureRule(
        offsets=offs, weights=w,
        strengths=kernel.strength(kernel.ball_norm.length(offs)),
        residual=residual,
    )


def solve_weights_on_subset(kernel: Kernel, spec: InnerGridSpec,
                            mask: np.ndarray) -> tuple[np.ndarray, float]:
    """Cached minimal-norm solve on the full rule's masked points, full-ball moments.

    The points are ``full_ball_rule(kernel, spec).offsets[mask]``, so the key
    ``("trunc", kernel, points_per_radius, mask bytes)`` holds everything the
    weights depend on.  On perturbed meshes near the boundary only a small
    number of distinct masks occur, so identical systems are never re-solved.
    """
    key = ("trunc", kernel, spec.points_per_radius, mask.tobytes())
    return _default_cache.get_or_build(
        key, lambda: _moment_weights(kernel, full_ball_rule(kernel, spec).offsets[mask]))
