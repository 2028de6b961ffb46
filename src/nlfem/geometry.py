"""Meshes for box domains with a nonlocal constraint layer.

The computational region is a box ``omega`` together with the surrounding
constraint layer of thickness ``horizon`` (where Dirichlet volume data
lives), optionally extended by a further layer of thickness ``extension``
that is used only while constructing inner quadrature weights.  Meshes are
uniform tensor grids over the layered box, perturbable node-by-node; in 2D
every grid rectangle is split into two triangles along its lower-left to
upper-right diagonal so the basis stays piecewise linear.

Node numbering is lexicographic.  Nodes strictly inside the box are the
unknowns ("interior"); all remaining nodes, including those on the box
boundary, carry constraint data.  Elements never straddle the box boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .exceptions import MeshError, OutsideDomainError
from .rng import Xoshiro256pp


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
        if self.dim not in (1, 2):
            raise MeshError(f"unsupported dimension {self.dim}; only 1 and 2 are implemented")
        if len(self.lo) != self.dim or len(self.hi) != self.dim:
            raise MeshError("corner coordinate count does not match dimension")
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

    # The layered box bounds below are the single source of truth for all
    # membership tests; mesh breakpoints reuse exactly these floats so that
    # comparisons stay consistent.
    def layer_lo(self, pad: float) -> np.ndarray:
        return np.array([a - pad for a in self.lo])

    def layer_hi(self, pad: float) -> np.ndarray:
        return np.array([b + pad for b in self.hi])

    def contains_meshed(self, points: np.ndarray) -> np.ndarray:
        """True for points in the closed box plus constraint layer."""
        return self._contains(points, self.horizon)

    def contains_extended(self, points: np.ndarray) -> np.ndarray:
        """True for points in the box plus constraint layer plus extension."""
        return self._contains(points, self.horizon + self.extension)

    def _contains(self, points: np.ndarray, pad: float) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = self.layer_lo(pad), self.layer_hi(pad)
        ok = np.all((p >= lo) & (p <= hi), axis=-1)
        return ok if np.asarray(points).ndim > 1 else ok[0]

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from points inside the box to the nearest box face."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = np.array(self.lo), np.array(self.hi)
        d = np.minimum(p - lo, hi - p).min(axis=-1)
        return d if np.asarray(points).ndim > 1 else d[0]


@dataclass(frozen=True)
class PerturbationSpec:
    """Random node displacement: factor times spacing, uniform in [-1, 1]."""

    factor: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.factor < 0.5:
            raise MeshError(
                f"perturbation factor must lie in [0, 0.5) to keep elements valid, got {self.factor}"
            )


@dataclass
class Mesh:
    """Conforming mesh of the layered box.

    ``elements`` holds node indices per element (2 in 1D, 3 in 2D);
    ``element_in_box`` tags elements of the box itself (versus the
    constraint layer); ``node_is_interior`` tags unknown nodes.  Interior
    nodes in ascending node order define the degree-of-freedom ordering.
    A built mesh is immutable and safe to share across threads.
    """

    domain: BoxDomain
    nodes: np.ndarray
    elements: np.ndarray
    element_in_box: np.ndarray
    node_is_interior: np.ndarray
    axis_breaks: tuple[np.ndarray, ...]
    spacing: float
    is_uniform: bool
    layer_cells: int  # cells across the constraint layer per side (= horizon / spacing)
    inner_cells: tuple[int, ...]  # cells across the box per axis

    _measures: np.ndarray | None = field(default=None, repr=False)

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

    def dof_of_node(self) -> np.ndarray:
        """Map node id -> dof index, -1 for constraint nodes."""
        dof = np.full(self.num_nodes, -1, dtype=np.int64)
        dof[self.interior_nodes] = np.arange(self.num_interior)
        return dof

    def element_measures(self) -> np.ndarray:
        if self._measures is None:
            verts = self.nodes[self.elements]
            if self.dim == 1:
                meas = verts[:, 1, 0] - verts[:, 0, 0]
            else:
                e1 = verts[:, 1] - verts[:, 0]
                e2 = verts[:, 2] - verts[:, 0]
                meas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            self._measures = meas
        return self._measures

    def dump_csv(self, path) -> None:
        """Debug dump: node table then element table in one CSV file."""
        dim = self.dim
        with open(path, "w", newline="") as fh:
            fh.write("# nodes\n")
            fh.write("id," + ",".join("xy"[:dim]) + ",class\n")
            for i, x in enumerate(self.nodes):
                coords = ",".join(repr(float(c)) for c in x)
                cls = "interior" if self.node_is_interior[i] else "constraint"
                fh.write(f"{i},{coords},{cls}\n")
            fh.write("# elements\n")
            fh.write("id," + ",".join(f"n{k}" for k in range(dim + 1)) + ",layer\n")
            for e, conn in enumerate(self.elements):
                layer = "box" if self.element_in_box[e] else "layer"
                fh.write(f"{e}," + ",".join(str(int(n)) for n in conn) + f",{layer}\n")


def _axis_cell_count(length: float, h: float, what: str) -> int:
    n = length / h
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


def _mesh_from_breaks(domain: BoxDomain, breaks: tuple[np.ndarray, ...], m: int,
                      inner: tuple[int, ...], h: float, uniform: bool) -> Mesh:
    dim = domain.dim
    if dim == 1:
        bx = breaks[0]
        n_cells = len(bx) - 1
        nodes = bx.reshape(-1, 1)
        idx = np.arange(n_cells)
        elements = np.stack([idx, idx + 1], axis=1)
        in_box = (idx >= m) & (idx < m + inner[0])
        node_idx = np.arange(len(bx))
        interior = (node_idx > m) & (node_idx < m + inner[0])
    else:
        bx, by = breaks
        ncx, ncy = len(bx) - 1, len(by) - 1
        xx, yy = np.meshgrid(bx, by, indexing="xy")
        nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
        nnx = len(bx)

        def nid(ix, iy):
            return iy * nnx + ix

        ix, iy = np.meshgrid(np.arange(ncx), np.arange(ncy), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()  # rectangle (ix, iy), raster order
        ll, lr = nid(ix, iy), nid(ix + 1, iy)
        ur, ul = nid(ix + 1, iy + 1), nid(ix, iy + 1)
        lower = np.stack([ll, lr, ur], axis=1)
        upper = np.stack([ll, ur, ul], axis=1)
        elements = np.empty((2 * ncx * ncy, 3), dtype=np.int64)
        elements[0::2] = lower
        elements[1::2] = upper
        cell_in_box = ((ix >= m) & (ix < m + inner[0])
                       & (iy >= m) & (iy < m + inner[1]))
        in_box = np.repeat(cell_in_box, 2)
        gx, gy = np.meshgrid(np.arange(len(bx)), np.arange(len(by)), indexing="xy")
        interior = (((gx > m) & (gx < m + inner[0]))
                    & ((gy > m) & (gy < m + inner[1]))).ravel()

    return Mesh(
        domain=domain,
        nodes=np.ascontiguousarray(nodes),
        elements=np.ascontiguousarray(elements, dtype=np.int64),
        element_in_box=in_box,
        node_is_interior=interior,
        axis_breaks=tuple(np.ascontiguousarray(b) for b in breaks),
        spacing=h,
        is_uniform=uniform,
        layer_cells=m,
        inner_cells=inner,
    )


def build_uniform_mesh(h: float, domain: BoxDomain) -> Mesh:
    """Uniform mesh of the box plus layer; 2D rectangles split into triangles."""
    if not h > 0:
        raise MeshError(f"element size must be positive, got {h}")
    m = _axis_cell_count(domain.horizon, h, "horizon / h")
    inner = tuple(
        _axis_cell_count(b - a, h, f"box extent along axis {k} / h")
        for k, (a, b) in enumerate(zip(domain.lo, domain.hi))
    )
    mesh_lo = domain.layer_lo(domain.horizon)
    mesh_hi = domain.layer_hi(domain.horizon)
    breaks = tuple(
        _axis_breaks(domain.lo[k], domain.hi[k], mesh_lo[k], mesh_hi[k], m, inner[k])
        for k in range(domain.dim)
    )
    return _mesh_from_breaks(domain, breaks, m, inner, h, uniform=True)


def perturb_mesh(mesh: Mesh, spec: PerturbationSpec) -> Mesh:
    """Displace grid breakpoints by factor*h*R, R uniform in [-1, 1).

    The anchors of each axis (layer ends and box corners) stay fixed.  In 2D
    each axis breakpoint list is perturbed independently and the tensor mesh
    is rebuilt.  Deterministic for a fixed seed.
    """
    if not mesh.is_uniform:
        raise MeshError("perturb_mesh requires a uniform mesh")
    gen = Xoshiro256pp(spec.seed)
    amp = spec.factor * mesh.spacing
    m = mesh.layer_cells
    new_breaks = []
    for axis, b in enumerate(mesh.axis_breaks):
        nb = b.copy()
        anchors = {0, m, m + mesh.inner_cells[axis], len(b) - 1}
        for i in range(len(b)):
            if i in anchors:
                continue
            nb[i] = b[i] + amp * gen.symmetric()
        new_breaks.append(nb)
    return _mesh_from_breaks(mesh.domain, tuple(new_breaks), m, mesh.inner_cells,
                             mesh.spacing, uniform=False)


def _axis_cells(breaks: np.ndarray, x: np.ndarray) -> np.ndarray:
    # searchsorted-left puts a point lying exactly on a breakpoint into the
    # cell to its left, which realizes the lowest-element-id tie-break.
    idx = np.searchsorted(breaks, x, side="left") - 1
    return np.clip(idx, 0, len(breaks) - 2)


def locate_points(mesh: Mesh, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized point location: element ids and barycentric coordinates.

    Ties on shared facets resolve to the lowest element id.  Raises
    OutsideDomainError if any point lies outside the meshed region, or if
    the points do not have one coordinate per mesh dimension.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != mesh.dim:
        raise OutsideDomainError(
            f"points of shape {np.shape(points)} cannot be located on a "
            f"{mesh.dim}D mesh, which needs shape (n, {mesh.dim})")
    for k in range(mesh.dim):
        b = mesh.axis_breaks[k]
        bad = (pts[:, k] < b[0]) | (pts[:, k] > b[-1])
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise OutsideDomainError(
                f"{int(bad.sum())} point(s) outside the meshed region; first is {pts[j]}"
            )
    if mesh.dim == 1:
        bx = mesh.axis_breaks[0]
        ix = _axis_cells(bx, pts[:, 0])
        t = (pts[:, 0] - bx[ix]) / (bx[ix + 1] - bx[ix])
        bary = np.stack([1.0 - t, t], axis=1)
        return ix, bary

    bx, by = mesh.axis_breaks
    ix = _axis_cells(bx, pts[:, 0])
    iy = _axis_cells(by, pts[:, 1])
    xi = (pts[:, 0] - bx[ix]) / (bx[ix + 1] - bx[ix])
    eta = (pts[:, 1] - by[iy]) / (by[iy + 1] - by[iy])
    rect = iy * (len(bx) - 1) + ix
    lower = xi >= eta  # diagonal itself goes to the lower triangle (smaller id)
    elem = 2 * rect + (~lower).astype(np.int64)
    bary = np.empty((len(pts), 3))
    bary[lower, 0] = 1.0 - xi[lower]
    bary[lower, 1] = xi[lower] - eta[lower]
    bary[lower, 2] = eta[lower]
    up = ~lower
    bary[up, 0] = 1.0 - eta[up]
    bary[up, 1] = xi[up]
    bary[up, 2] = eta[up] - xi[up]
    return elem, bary

