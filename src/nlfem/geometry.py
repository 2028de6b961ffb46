"""Meshes for box domains with a nonlocal constraint layer.

The computational region is a box ``omega`` together with the surrounding
constraint layer of thickness ``horizon`` (where Dirichlet volume data
lives), optionally extended by a further layer of thickness ``extension``
that is used only while constructing inner quadrature weights.  Meshes are
uniform tensor grids over the layered box, perturbable node-by-node.  The
table ``_CELL_SIMPLICES`` splits each grid cell into simplices (in 2D, two
triangles along the lower-left to upper-right diagonal) so the basis stays
piecewise linear; the mesh builder and ``locate_points`` number elements
from it.  Node and cell numbering is lexicographic, x fastest.  Nodes
strictly inside the box are the unknowns ("interior"); all remaining nodes,
including those on the box boundary, carry constraint data.  Elements never
straddle the box boundary.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import MeshError, _integer, _real


class BallNorm(enum.Enum):
    """Norm inducing the interaction ball: Euclidean disc or max-norm square."""

    EUCLIDEAN = "euclidean"
    MAX = "max"

    def length(self, vectors: np.ndarray) -> np.ndarray:
        """Norm of each vector in an (..., d) array."""
        v = np.asarray(vectors, dtype=float)
        if self is BallNorm.EUCLIDEAN:
            return np.sqrt(np.sum(v * v, axis=-1))
        return np.max(np.abs(v), axis=-1)


@dataclass(frozen=True)
class BoxDomain:
    """Box domain with interaction layer of thickness ``horizon``.

    ``extension`` is the extra layer thickness used only when building
    inner quadrature weights near the layer boundary; it must lie in
    [0, horizon].
    """

    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    horizon: float
    extension: float = 0.0

    def __post_init__(self):
        _integer("dimension", self.dim, MeshError, 1, 3)
        if len(self.lo) != self.dim or len(self.hi) != self.dim:
            raise MeshError("corner coordinate count does not match dimension")
        for value in (*self.lo, *self.hi, self.horizon, self.extension):
            _real("box corners, horizon and extension", value, MeshError)
        if any(b <= a for a, b in zip(self.lo, self.hi)):
            raise MeshError("degenerate box: upper corner must exceed lower corner")
        if not self.horizon > 0.0:
            raise MeshError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.extension <= self.horizon:
            raise MeshError(
                f"extension must lie in [0, horizon], got {self.extension} with horizon {self.horizon}"
            )

    @classmethod
    def unit(cls, dim: int, horizon: float, extension: float = 0.0) -> "BoxDomain":
        return cls(dim, (0.0,) * dim, (1.0,) * dim, horizon, extension)

    # The layered box bounds below are the single source of truth: mesh
    # breakpoints end at exactly these floats for pad = horizon, and
    # locate_points compares against them for pad = horizon + extension.
    def layer_lo(self, pad: float) -> np.ndarray:
        return np.array([a - pad for a in self.lo])

    def layer_hi(self, pad: float) -> np.ndarray:
        return np.array([b + pad for b in self.hi])


@dataclass(frozen=True)
class PerturbationSpec:
    """Random node displacement: factor times spacing, uniform in [-1, 1].

    ``seed`` is the generator's 64-bit seed, an integer in [0, 2^64).
    """

    factor: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= _real("perturbation factor", self.factor, MeshError) < 0.5:
            raise MeshError(
                f"perturbation factor must lie in [0, 0.5) to keep elements valid, got {self.factor}"
            )
        _integer("perturbation seed", self.seed, MeshError, 0, 2**64)


@dataclass
class Mesh:
    """Conforming mesh of the layered box.

    ``elements`` holds node indices per element (2 in 1D, 3 in 2D);
    ``element_in_box`` tags elements of the box itself (versus the
    constraint layer); ``node_is_interior`` tags unknown nodes.  Interior
    nodes in ascending node order define the degree-of-freedom ordering,
    the x-fastest lattice of ``cell_counts``' box cells less one per axis.
    Its arrays are writable, but nothing in the package writes them once the
    mesh is built; ``perturb_mesh`` returns a new mesh.
    """

    domain: BoxDomain
    nodes: np.ndarray
    elements: np.ndarray
    element_in_box: np.ndarray
    node_is_interior: np.ndarray
    axis_breaks: tuple[np.ndarray, ...]
    spacing: float
    is_uniform: bool

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_is_interior)

    @property
    def constraint_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.node_is_interior)

    @property
    def num_interior(self) -> int:
        return int(self.node_is_interior.sum())

    def affine_maps(self, element_ids=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine maps x = p0 + sum_k t_k e_k from the reference simplex.

        Returns vertex 0 (n, d), the edges e_k from it to vertex k + 1
        (n, d, d), and the Jacobian determinant (n,), positive for the
        counter-clockwise elements the mesh builds.
        """
        verts = self.nodes[self.elements[element_ids]]
        p0 = verts[:, 0]
        edges = verts[:, 1:] - p0[:, None, :]
        if self.dim == 1:
            det = edges[:, 0, 0]
        else:
            det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        return p0, edges, det


def _axis_cell_count(length: float, h: float, what: str) -> int:
    n = length / h
    if not math.isfinite(n):
        raise MeshError(f"{what} must be finite: got ratio {n!r}")
    n_int = int(round(n))
    if n_int < 1 or abs(n - n_int) > 1e-9 * max(1.0, abs(n)):
        raise MeshError(
            f"{what} must be an integer multiple of the element size: got ratio {n!r}"
        )
    return n_int


def _axis_breaks(lo: float, hi: float, mesh_lo: float, mesh_hi: float,
                 m: int, n_inner: int) -> np.ndarray:
    # Three linspace pieces so that the four anchor coordinates are exact.
    left = np.linspace(mesh_lo, lo, m + 1)
    mid = np.linspace(lo, hi, n_inner + 1)
    right = np.linspace(hi, mesh_hi, m + 1)
    return np.concatenate([left, mid[1:], right[1:]])


# Corner offsets of each cell simplex in element node order (2D: lower, then
# upper triangle, counter-clockwise).  With n simplices per cell, simplex s of
# cell c is element n * c + s.
_CELL_SIMPLICES = {
    1: np.array([[[0], [1]]]),
    2: np.array([[[0, 0], [1, 0], [1, 1]],
                 [[0, 0], [1, 1], [0, 1]]]),
}


def _grid_indices(counts) -> np.ndarray:
    """(d, prod(counts)) multi-indices of a grid in lexicographic order, x fastest."""
    return np.indices(counts[::-1], dtype=np.int64).reshape(len(counts), -1)[::-1]


def _linear_index(axes, counts):
    """Linear index, x fastest, of per-axis indices into a grid of ``counts``."""
    if len(axes) == 1:
        return axes[0]
    return axes[0] + counts[0] * _linear_index(axes[1:], counts[1:])


def _mesh_from_breaks(domain: BoxDomain, breaks: tuple[np.ndarray, ...], m: int,
                      inner: tuple[int, ...], h: float, uniform: bool) -> Mesh:
    simplices = _CELL_SIMPLICES[domain.dim]
    node_counts = tuple(len(b) for b in breaks)
    node_idx = _grid_indices(node_counts)
    cell_idx = _grid_indices(tuple(n - 1 for n in node_counts))
    nodes = np.stack([b[i] for b, i in zip(breaks, node_idx)], axis=1)
    # node id of each (cell, simplex, vertex): (cell + corner offset) . node strides
    elements = (_linear_index(cell_idx, node_counts)[:, None, None]
                + _linear_index(np.moveaxis(simplices, -1, 0), node_counts)
                ).reshape(-1, domain.dim + 1)
    box_end = m + np.array(inner)[:, None]
    in_box = np.repeat(((cell_idx >= m) & (cell_idx < box_end)).all(axis=0), len(simplices))
    interior = ((node_idx > m) & (node_idx < box_end)).all(axis=0)
    return Mesh(domain=domain, nodes=nodes, elements=elements, element_in_box=in_box,
                node_is_interior=interior, axis_breaks=breaks, spacing=h, is_uniform=uniform)


def cell_counts(h: float, domain: BoxDomain) -> tuple[int, tuple[int, ...]]:
    """Cells across the layer and the box per axis, or MeshError unless ``h`` > 0
    divides the horizon and the box and gives under 2**31 nodes; allocates nothing."""
    if not h > 0:
        raise MeshError(f"element size must be positive, got {h}")
    m = _axis_cell_count(domain.horizon, h, "horizon / h")
    inner = tuple(
        _axis_cell_count(b - a, h, f"box extent along axis {k} / h")
        for k, (a, b) in enumerate(zip(domain.lo, domain.hi))
    )
    # 2**31 nodes need 16 GiB per coordinate
    if math.prod(n + 2 * m + 1 for n in inner) >= 2**31:
        raise MeshError(f"element size {h!r} gives a mesh of 2**31 or more nodes")
    return m, inner


def build_uniform_mesh(h: float, domain: BoxDomain) -> Mesh:
    """Uniform mesh of the box plus layer; 2D rectangles split into triangles."""
    m, inner = cell_counts(h, domain)
    mesh_lo = domain.layer_lo(domain.horizon)
    mesh_hi = domain.layer_hi(domain.horizon)
    breaks = tuple(
        _axis_breaks(domain.lo[k], domain.hi[k], mesh_lo[k], mesh_hi[k], m, inner[k])
        for k in range(domain.dim)
    )
    return _mesh_from_breaks(domain, breaks, m, inner, h, uniform=True)


_MASK64 = (1 << 64) - 1


def _symmetric_draws(seed: int):
    """Uniform doubles in [-1, 1) from xoshiro256++ seeded by splitmix64 (README).

    The state is splitmix64's first four outputs from ``seed``, and each
    64-bit output ``u`` gives the draw ``2 (u >> 11) 2**-53 - 1``.
    """
    state = []
    for _ in range(4):
        seed = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state.append(z ^ (z >> 31))
    s0, s1, s2, s3 = state
    while True:
        u = (s0 + s3) & _MASK64
        u = (((u << 23) | (u >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        yield 2.0 * ((u >> 11) * 2.0**-53) - 1.0


def perturb_mesh(mesh: Mesh, spec: PerturbationSpec) -> Mesh:
    """Displace grid breakpoints by factor*h*R, R uniform in [-1, 1).

    The anchors of each axis (layer ends and box corners) stay fixed.  In 2D
    each axis breakpoint list is perturbed independently and the tensor mesh
    is rebuilt.  Deterministic for a fixed seed.
    """
    if not mesh.is_uniform:
        raise MeshError("perturb_mesh requires a uniform mesh")
    draws = _symmetric_draws(int(spec.seed))  # numpy integers would wrap or overflow
    amp = spec.factor * mesh.spacing
    m, inner = cell_counts(mesh.spacing, mesh.domain)
    new_breaks = []
    for n, b in zip(inner, mesh.axis_breaks):
        free = np.delete(np.arange(len(b)), (0, m, m + n, len(b) - 1))
        nb = b.copy()
        nb[free] += amp * np.fromiter(itertools.islice(draws, len(free)), float, len(free))
        new_breaks.append(nb)
    return _mesh_from_breaks(mesh.domain, tuple(new_breaks), m, inner, mesh.spacing,
                             uniform=False)


def _axis_cells(breaks: np.ndarray, x: np.ndarray) -> np.ndarray:
    # searchsorted-left puts a point lying exactly on a breakpoint into the
    # cell to its left, which realizes the lowest-element-id tie-break.
    idx = np.searchsorted(breaks, x, side="left") - 1
    return np.clip(idx, 0, len(breaks) - 2)


def locate_points(mesh: Mesh, points: np.ndarray, offsets: np.ndarray):
    """Vectorized location of every (n, d) point plus every (n_off, d) offset.

    Returns ``(elem, bary, in_mesh, in_ext)``: (n, n_off) masks of the sums
    in the meshed region and in that region grown by ``domain.extension`` (a
    read-only broadcast True where all are; a NaN coordinate is in neither),
    and the element ids and barycentric coordinates of the ``in_mesh`` sums
    in (point, offset) order.  Ties on shared facets resolve to the lowest
    element id.  Each axis is searched and compared once per point and
    distinct offset coordinate, on the same float sums as
    ``points[:, None] + offsets``.  Points or offsets without one coordinate
    per mesh dimension raise MeshError.
    """
    pts, offs = _coordinate_rows(mesh, points), _coordinate_rows(mesh, offsets)
    pad = mesh.domain.horizon + mesh.domain.extension
    ext_lo, ext_hi = mesh.domain.layer_lo(pad), mesh.domain.layer_hi(pad)
    in_mesh = in_ext = None  # None while every pair so far lies inside
    cells, local = [], []
    for k, b in enumerate(mesh.axis_breaks):
        # distinct by bit pattern, so that -0.0 and 0.0 give their own sums
        bits, col = np.unique(offs[:, k].view(np.int64), return_inverse=True)
        x = pts[:, k, None] + bits.view(float)
        # comparisons that a NaN coordinate fails
        in_mesh = _narrow(in_mesh, (x >= b[0]) & (x <= b[-1]), col)
        in_ext = _narrow(in_ext, (x >= ext_lo[k]) & (x <= ext_hi[k]), col)
        i = _axis_cells(b, x)
        cells.append(i[:, col].ravel())
        local.append(((x - b[i]) / (b[i + 1] - b[i]))[:, col].ravel())
    if in_mesh is not None:
        cells, local = [c[in_mesh] for c in cells], [t[in_mesh] for t in local]

    if mesh.dim == 1:
        which, bary = 0, np.stack([1.0 - local[0], local[0]], axis=1)
    else:
        xi, eta = local
        lower = xi >= eta  # diagonal itself goes to the lower triangle (smaller id)
        which = (~lower).astype(np.int64)
        bary = np.stack([1.0 - np.where(lower, xi, eta),
                         np.where(lower, xi - eta, xi),
                         np.where(lower, eta, eta - xi)], axis=1)
    cell = _linear_index(cells, [len(b) - 1 for b in mesh.axis_breaks])
    elem = len(_CELL_SIMPLICES[mesh.dim]) * cell + which
    shape = (len(pts), len(offs))
    return elem, bary, *(np.broadcast_to(True, shape) if mask is None else mask.reshape(shape)
                         for mask in (in_mesh, in_ext))


def _coordinate_rows(mesh: Mesh, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != mesh.dim:
        raise MeshError(
            f"points of shape {np.shape(points)} cannot be located on a "
            f"{mesh.dim}D mesh, which needs shape (n, {mesh.dim})")
    return pts


def _narrow(mask: np.ndarray | None, inside: np.ndarray, col: np.ndarray) -> np.ndarray | None:
    """``mask`` and the (point, distinct coordinate) ``inside`` gathered to
    (point, offset) order, only when some sum lies outside; None stands for
    a mask that holds everywhere."""
    if inside.all():
        return mask
    inside = inside[:, col].ravel()
    return inside if mask is None else mask & inside
