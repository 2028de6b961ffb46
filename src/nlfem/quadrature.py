"""Optimization-based quadrature rules over interaction balls.

Inner integrals of the nonlocal bilinear form are evaluated on a regular
point grid spread over the whole ball around each outer quadrature point,
never element by element.  A rule is built in two steps.  ``_ball_grid``
lays out the grid and keeps its points inside the closed ball.
``_moment_weights`` gives them the minimal-Euclidean-norm weights that meet
the exactness constraints for the functions kernel * s_i * s_j, s = y - x,
i <= j.  The kernel's scaling makes their full-ball integrals delta_ij, so
the targets g are 1 and 0.  For the constraint system B w = g the weights
are B^T (B B^T)^+ g, where the pseudoinverse of the normal matrix B B^T
always drops its singular values below a relative cutoff.

Near the layer boundary the ball sticks out of the meshed region.  There
the grid is first intersected with the region grown by the configured
extension, weights are solved on that extended set against the full-ball
moments, and points falling outside the meshed region are then discarded
together with their weights.  Solving before restricting is deliberate:
with extension equal to the horizon every near-boundary point keeps its
full-ball weight, which is what restores second-order accuracy.  That
construction runs batched in ``assembly.truncated_weights`` on masks from
``locate_points``; this module supplies its cached masked solve, which
takes the full rule's constraint columns at the masked points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import QuadratureError, _integer
from .kernels import Kernel

_RANK_CUTOFF = 1e-12
_RESIDUAL_TOL = 1e-12


@dataclass(eq=False)
class InnerQuadratureRule:
    """Inner rule: offsets relative to the center, weights, and diagnostics.

    ``strengths`` caches the kernel value and ``constraints`` the constraint
    column at each offset, which masked solves take.  ``residual`` is the
    constraint defect of the solve that produced the weights.  A rule equals
    only itself, so masked solves are cached under the rule they came from.
    """

    offsets: np.ndarray
    weights: np.ndarray
    strengths: np.ndarray
    constraints: np.ndarray
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


def _ball_grid(kernel: Kernel, points_per_radius: int) -> np.ndarray:
    """Offsets of the (2n)^d grid at odd multiples of horizon / 2n, n =
    ``points_per_radius``, that lie inside the closed ball."""
    n = points_per_radius
    half = 0.5 * (kernel.horizon / n)
    ks = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    axis = (2 * ks - np.sign(ks)) * half
    grids = np.meshgrid(*[axis] * kernel.dim, indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    offs = offs[kernel.ball_norm.length(offs) <= kernel.horizon]
    if not len(offs):
        raise QuadratureError("no quadrature points fall inside the ball")
    return offs


def _second_moment_pairs(dim: int) -> list[tuple[int, int]]:
    """(i, j) with i <= j, one per second moment s_i s_j: x^2, xy, y^2 in 2D."""
    return list(itertools.combinations_with_replacement(range(dim), 2))


def _constraint_matrix(kernel: Kernel, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel strength at each offset s, and B: row (i, j) is strength times s_i s_j."""
    r = kernel.ball_norm.length(offs)
    if np.any(r < 1e-14 * kernel.horizon):
        raise QuadratureError("singular constraint: quadrature point coincides with the center")
    strength = kernel.strength(r)
    return strength, np.stack([strength * (offs[:, i] * offs[:, j])
                               for i, j in _second_moment_pairs(kernel.dim)])


def _moment_weights(B: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """Minimal-norm weights for constraints ``B`` that reproduce the full-ball
    moments, with the achieved residual.

    The kernel's scaling makes those moments delta_ij, so the targets g are
    1 on the diagonal and 0 off it.  Solves through the normal matrix B B^T;
    singular values below 1e-12 * sigma_max are truncated, which handles
    redundant constraints.  Raises ``QuadratureError`` when the constraint
    residual exceeds 1e-12 relative to the targets.
    """
    g = np.array([float(i == j) for i, j in _second_moment_pairs(dim)])
    with np.errstate(over="ignore", invalid="ignore"):
        S = B @ B.T
    # S is finite only if B is and no product overflowed
    if not np.isfinite(S).all():
        raise QuadratureError("non-finite constraints: B or B B^T has an inf or NaN")
    U, s, Vt = np.linalg.svd(S)
    if s[0] <= 0.0:
        raise QuadratureError("degenerate constraints: zero constraint matrix")
    keep = s > _RANK_CUTOFF * s[0]  # always holds s[0], which is finite and positive
    w = B.T @ (Vt.T[:, keep] @ ((U[:, keep].T @ g) / s[keep]))
    residual = float(np.linalg.norm(B @ w - g))
    if residual > _RESIDUAL_TOL * float(np.linalg.norm(g)):
        raise QuadratureError(
            f"inner rule constraint residual {residual:.3e} exceeds tolerance"
        )
    return w, residual


class RuleCache:
    """Cache of inner rules; ``default_cache()`` is the process's one.

    Keys hold everything the weights are built from: the kernel and points
    per radius of a full rule, the full rule and mask bytes of a masked solve.
    """

    def __init__(self):
        self._data: dict = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key, builder):
        if key in self._data:
            self.hits += 1
        else:
            self._data[key] = builder()
            self.misses += 1
        return self._data[key]

    def clear(self):
        self._data.clear()
        self.hits = 0
        self.misses = 0


_default_cache = RuleCache()


def default_cache() -> RuleCache:
    return _default_cache


def full_ball_rule(kernel: Kernel, points_per_radius: int) -> InnerQuadratureRule:
    """Rule for a ball entirely inside the region; computed once and reused.

    Cached under ``("full", kernel, points_per_radius)``.  Every weight of
    this rule must be positive; a solve that gives a weight at or below zero
    raises ``QuadratureError``.
    """
    # checked before the lookup, as True == 1 would find the rule cached for 1;
    # 2^31 or more per radius asks for at least that many offsets per axis
    _integer("points_per_radius", points_per_radius, QuadratureError, 1, 2**31)
    key = ("full", kernel, points_per_radius)
    return _default_cache.get_or_build(key, lambda: _build_full_rule(kernel, points_per_radius))


def _build_full_rule(kernel: Kernel, points_per_radius: int) -> InnerQuadratureRule:
    offs = _ball_grid(kernel, points_per_radius)
    strengths, B = _constraint_matrix(kernel, offs)
    w, residual = _moment_weights(B, kernel.dim)
    if np.any(w <= 0):
        raise QuadratureError(
            f"full-ball rule has a non-positive weight (min {float(w.min()):.3e})")
    return InnerQuadratureRule(offsets=offs, weights=w, strengths=strengths,
                               constraints=B, residual=residual)


def solve_weights_on_subset(full: InnerQuadratureRule, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """Cached minimal-norm solve on the full rule's masked points, full-ball moments.

    The constraints are the full rule's columns at ``mask``, so the key
    ``("trunc", full, mask bytes)`` holds everything the weights depend on.
    On perturbed meshes near the boundary only a small number of distinct
    masks occur, so identical systems are never re-solved.
    """
    # compress returns the columns C-ordered, as np.stack builds a fresh B;
    # constraints[:, mask] is F-ordered, and B @ B.T would then take another
    # BLAS path and move the weights by roundoff
    key = ("trunc", full, mask.tobytes())
    return _default_cache.get_or_build(key, lambda: _moment_weights(
        full.constraints.compress(mask, axis=1), full.offsets.shape[1]))
