"""Assembly and solution of the fully discrete nonlocal system.

The stiffness entries are triple sums: outer Gauss points per element,
inner ball-grid points per outer point, hat-function differences at both.
Assembly accumulates the full node-by-node operator matrix (test functions
restricted to unknowns afterwards), because the same pass also yields the
coupling block that turns Dirichlet layer data into the load correction.

Everything is vectorized over (outer point, inner point) pairs in fixed
element chunks, so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from .exceptions import AssemblyError, OutsideDomainError, SolverError
from .geometry import BoxDomain, Mesh, locate_points
from .kernels import Kernel
from .quadrature import (InnerGridSpec, InnerQuadratureRule, RuleCache,
                         default_cache, full_ball_rule, solve_weights_on_subset)

_DENSE_NODE_LIMIT = 3000  # accumulate into a dense J x J scratch below this
_PAIR_CHUNK = 200_000


@dataclass
class DiscreteSystem:
    """Assembled system on the unknown (interior) nodes."""

    matrix: sparse.csr_matrix  # num_interior x num_interior, symmetric
    rhs: np.ndarray
    interior_nodes: np.ndarray  # dof index -> node id
    constraint_values: np.ndarray  # per constraint node, in node order
    mesh: Mesh


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _reference_rule(dim: int, n_points: int):
    """Reference-element rule: (positions, barycentric values, weights).

    In 2D the tensor rule on the unit square is collapsed onto the reference
    triangle, so ``n_points`` must be a perfect square there.  Weights sum to
    the reference measure (1, respectively 1/2).
    """
    if n_points < 1:
        raise AssemblyError("outer rule needs at least one point")
    if dim == 1:
        t, w = gauss_legendre_01(n_points)
        bary = np.stack([1.0 - t, t], axis=1)
        return t.reshape(-1, 1), bary, w
    side = int(round(n_points ** 0.5))
    if side * side != n_points:
        raise AssemblyError(f"2D outer rule needs a square point count, got {n_points}")
    a, wa = gauss_legendre_01(side)
    A, Bv = np.meshgrid(a, a, indexing="ij")
    WA, WB = np.meshgrid(wa, wa, indexing="ij")
    u = (A * (1.0 - Bv)).ravel()  # collapsed coordinates keep weights positive
    v = Bv.ravel()
    w = (WA * WB * (1.0 - Bv)).ravel()
    bary = np.stack([1.0 - u - v, u, v], axis=1)
    return np.stack([u, v], axis=1), bary, w


def outer_rules(mesh: Mesh, element_ids: np.ndarray, n_points: int):
    """Gauss rules on the given elements, exact for the rule's polynomial degree.

    Returns points (n_el, n_q, d), weights (n_el, n_q), and the reference
    barycentric values (n_q, d + 1) shared by every element.
    """
    ref, bary, w = _reference_rule(mesh.dim, n_points)
    verts = mesh.nodes[mesh.elements[element_ids]]
    if mesh.dim == 1:
        a = verts[:, 0, 0][:, None]
        b = verts[:, 1, 0][:, None]
        pts = (a + ref[:, 0][None, :] * (b - a))[..., None]
        wq = w[None, :] * (b - a)
        return pts, wq, bary
    p0 = verts[:, 0][:, None, :]
    e1 = (verts[:, 1] - verts[:, 0])[:, None, :]
    e2 = (verts[:, 2] - verts[:, 0])[:, None, :]
    pts = p0 + ref[:, 0][None, :, None] * e1 + ref[:, 1][None, :, None] * e2
    area2 = (e1[:, 0, 0] * e2[:, 0, 1] - e1[:, 0, 1] * e2[:, 0, 0])[:, None]
    return pts, w[None, :] * area2, bary


class _OperatorAccumulator:
    """Accumulates scattered (node, node, value) triples into a J x J matrix."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        if num_nodes <= _DENSE_NODE_LIMIT:
            self._dense = np.zeros(num_nodes * num_nodes)
            self._sparse = None
        else:
            self._dense = None
            self._sparse = sparse.csr_matrix((num_nodes, num_nodes))

    def add(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        flat = rows.astype(np.int64) * self.n + cols
        if self._dense is not None:
            self._dense += np.bincount(flat.ravel(), weights=vals.ravel(),
                                       minlength=self.n * self.n)
        else:
            chunk = sparse.coo_matrix(
                (vals.ravel(), (rows.ravel(), cols.ravel())),
                shape=(self.n, self.n))
            self._sparse = (self._sparse + chunk.tocsr())

    def interior_blocks(self, interior: np.ndarray, constraint: np.ndarray):
        """Unknown-by-unknown block and unknown-by-constraint coupling block."""
        if self._dense is not None:
            full = self._dense.reshape(self.n, self.n)
            a = sparse.csr_matrix(full[np.ix_(interior, interior)])
            coupling = full[np.ix_(interior, constraint)]
            return a, sparse.csr_matrix(coupling)
        full = self._sparse
        a = full[interior][:, interior].tocsr()
        coupling = full[interior][:, constraint].tocsr()
        return a, coupling


def _scatter_pairs(acc: _OperatorAccumulator, outer_nodes, outer_bary,
                   inner_nodes, inner_bary, coef) -> None:
    """Scatter one batch of (outer, inner) point pairs into the operator.

    The hat-difference factor at a pair is sum of +basis at the inner point
    and -basis at the outer point; expanding the product of two such sums
    gives a (2k)^2 block of contributions per pair.
    """
    nodes = np.concatenate([outer_nodes, inner_nodes], axis=1)
    vals = np.concatenate([-outer_bary, inner_bary], axis=1) * coef[:, None]
    vals_plain = np.concatenate([-outer_bary, inner_bary], axis=1)
    rows = np.broadcast_to(nodes[:, :, None], (*nodes.shape, nodes.shape[1]))
    cols = np.broadcast_to(nodes[:, None, :], rows.shape)
    data = vals[:, :, None] * vals_plain[:, None, :]
    acc.add(rows, cols, data)


def _assemble_operator(mesh: Mesh, kernel: Kernel, spec: InnerGridSpec,
                       n_q: int, cache: RuleCache):
    """Full node-by-node discrete operator matrix (both blocks via slicing)."""
    if kernel.dim != mesh.dim or spec.dim != mesh.dim:
        raise AssemblyError("kernel / grid spec / mesh dimensions do not match")
    full = full_ball_rule(kernel, spec, cache)
    acc = _OperatorAccumulator(mesh.num_nodes)

    elem_ids = np.arange(mesh.num_elements)
    in_box = mesh.element_in_box
    n_off = full.size
    chunk_elems = max(1, _PAIR_CHUNK // max(1, n_q * n_off))

    for part_ids, truncate in ((elem_ids[in_box], False), (elem_ids[~in_box], True)):
        for lo in range(0, len(part_ids), chunk_elems):
            ids = part_ids[lo:lo + chunk_elems]
            if len(ids) == 0:
                continue
            pts, wq, ref_bary = outer_rules(mesh, ids, n_q)
            n_el, nq = wq.shape
            centers = pts.reshape(n_el * nq, mesh.dim)
            wq_flat = wq.reshape(-1)
            out_nodes = np.repeat(mesh.elements[ids], nq, axis=0)
            out_bary = np.tile(ref_bary, (n_el, 1))
            if truncate:
                _scatter_truncated(acc, mesh, kernel, spec, cache, centers,
                                   wq_flat, out_nodes, out_bary, full)
            else:
                inner_pts = (centers[:, None, :] + full.offsets[None, :, :])
                coef = (full.strengths * full.weights)[None, :] * wq_flat[:, None]
                _scatter_inner(acc, mesh, inner_pts.reshape(-1, mesh.dim),
                               coef.reshape(-1),
                               np.repeat(out_nodes, n_off, axis=0),
                               np.repeat(out_bary, n_off, axis=0))
    return acc


def _scatter_inner(acc, mesh, inner_pts, coef, out_nodes, out_bary) -> None:
    try:
        in_elems, in_bary = locate_points(mesh, inner_pts)
    except OutsideDomainError as exc:
        raise AssemblyError(f"inner quadrature point left the meshed region: {exc}") from exc
    in_nodes = mesh.elements[in_elems]
    _scatter_pairs(acc, out_nodes, out_bary, in_nodes, in_bary, coef)


def truncated_weights(kernel: Kernel, spec: InnerGridSpec, domain: BoxDomain,
                      centers: np.ndarray, full: InnerQuadratureRule,
                      cache: RuleCache) -> tuple[np.ndarray, np.ndarray]:
    """Weights of balls clipped by the meshed region, for a batch of centers.

    Grid points are kept if they fall in the region extended by
    ``domain.extension``; weights are solved on that set against the
    full-ball moments (one cached solve per distinct mask); points outside
    the meshed region are then dropped.  Returns the weights over the full
    grid, shape (n_centers, full.size), and the mask of retained points.
    """
    flat = (centers[:, None, :] + full.offsets[None, :, :]).reshape(-1, domain.dim)
    in_ext = domain.contains_extended(flat).reshape(len(centers), full.size)
    in_mesh = domain.contains_meshed(flat).reshape(len(centers), full.size)
    retained = in_ext & in_mesh

    weights = np.empty((len(centers), full.size))
    if in_ext.all():
        # Extension covers every ball here (the extension == horizon case):
        # all points keep their full-ball weights.
        weights[:] = full.weights[None, :]
    else:
        masks, inverse = np.unique(in_ext, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)  # numpy 2.1 keeps dims here
        per_mask = np.zeros((len(masks), full.size))
        for k, mask in enumerate(masks):
            if not mask.any():
                raise AssemblyError("a constraint-layer ball lost all quadrature points")
            sub_w, _ = solve_weights_on_subset(kernel, spec, full.offsets, mask, cache)
            per_mask[k, mask] = sub_w
        weights = per_mask[inverse]

    if not retained.any(axis=1).all():
        raise AssemblyError("a constraint-layer ball retained no quadrature points")
    return weights, retained


def _scatter_truncated(acc, mesh, kernel, spec, cache, centers, wq_flat,
                       out_nodes, out_bary, full) -> None:
    """Outer points in the constraint layer; per-point clipped rules."""
    weights, retained = truncated_weights(kernel, spec, mesh.domain, centers, full, cache)
    coef = (full.strengths[None, :] * weights * wq_flat[:, None])[retained]
    inner_pts = (centers[:, None, :] + full.offsets[None, :, :])[retained]
    counts = retained.sum(axis=1)
    rep_nodes = np.repeat(out_nodes, counts, axis=0)
    rep_bary = np.repeat(out_bary, counts, axis=0)
    _scatter_inner(acc, mesh, inner_pts, coef, rep_nodes, rep_bary)


def assemble_system(mesh: Mesh, kernel: Kernel, spec: InnerGridSpec,
                    n_q: int, n_b: int | None = None,
                    source=None, boundary=None,
                    cache: RuleCache | None = None) -> DiscreteSystem:
    """Assemble stiffness and load in one operator pass.

    The load is the body force over the box minus the layer-data correction.
    """
    cache = cache or default_cache()
    n_b = n_b if n_b is not None else n_q
    acc = _assemble_operator(mesh, kernel, spec, n_q, cache)
    interior = mesh.interior_nodes
    constraint = mesh.constraint_nodes
    a, coupling = acc.interior_blocks(interior, constraint)

    g_vals = np.zeros(len(constraint))
    if boundary is not None:
        g_vals = np.asarray(boundary(mesh.nodes[constraint]), dtype=float)
    f = np.zeros(len(interior))
    if source is not None:
        f += _body_load(mesh, source, n_b)
    f -= coupling @ g_vals

    return DiscreteSystem(matrix=a, rhs=f, interior_nodes=interior,
                          constraint_values=g_vals, mesh=mesh)


def _body_load(mesh: Mesh, source, n_b: int) -> np.ndarray:
    ids = np.flatnonzero(mesh.element_in_box)
    pts, wb, ref_bary = outer_rules(mesh, ids, n_b)
    n_el, nq = wb.shape
    values = np.asarray(source(pts.reshape(-1, mesh.dim)), dtype=float).reshape(n_el, nq)
    # f_i += sum_b basis_i(x_b) * source(x_b) * w_b, per element node
    contrib = np.einsum("eq,qk,eq->ek", values, ref_bary, wb)
    dof = mesh.dof_of_node()[mesh.elements[ids]]
    mask = dof >= 0
    f = np.bincount(dof[mask], weights=contrib[mask], minlength=mesh.num_interior)
    return f


def solve_system(system: DiscreteSystem) -> np.ndarray:
    """Direct sparse solve; contract is a relative residual below 1e-12.

    The matrix is symmetric, so SuperLU is given a minimum-degree ordering
    of the pattern of A^T + A; its default (COLAMD) targets unsymmetric LU
    and, on the 2D delta-neighbourhood patterns, fills in nearly twice as
    much.
    """
    a, f = system.matrix, system.rhs
    if a.shape[0] == 0:
        return np.zeros(0)
    u = sparse_linalg.spsolve(a.tocsc(), f, permc_spec="MMD_AT_PLUS_A")
    norm_f = np.linalg.norm(f)
    residual = np.linalg.norm(a @ u - f) / (norm_f if norm_f > 0 else 1.0)
    if not np.all(np.isfinite(u)) or residual > 1e-12:
        raise SolverError(f"linear solve failed: relative residual={residual:.3e}")
    return u


@dataclass
class Field:
    """Piecewise-linear field over the mesh with per-element gradients."""

    mesh: Mesh
    node_values: np.ndarray

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        elems, bary = locate_points(self.mesh, np.atleast_2d(points))
        vals = np.einsum("pk,pk->p", bary, self.node_values[self.mesh.elements[elems]])
        return vals if np.asarray(points).ndim > 1 else float(vals[0])

    def element_gradients(self) -> np.ndarray:
        """Constant gradient per element, shape (n_el, dim)."""
        mesh = self.mesh
        verts = mesh.nodes[mesh.elements]
        uv = self.node_values[mesh.elements]
        if mesh.dim == 1:
            return ((uv[:, 1] - uv[:, 0]) / (verts[:, 1, 0] - verts[:, 0, 0]))[:, None]
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        du1 = uv[:, 1] - uv[:, 0]
        du2 = uv[:, 2] - uv[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        gx = (du1 * e2[:, 1] - du2 * e1[:, 1]) / det
        gy = (-du1 * e2[:, 0] + du2 * e1[:, 0]) / det
        return np.stack([gx, gy], axis=1)


def reconstruct(mesh: Mesh, interior_values: np.ndarray, boundary=None) -> Field:
    """Assemble the full nodal field: unknowns plus layer data."""
    vals = np.zeros(mesh.num_nodes)
    vals[mesh.interior_nodes] = interior_values
    if boundary is not None:
        cn = mesh.constraint_nodes
        vals[cn] = np.asarray(boundary(mesh.nodes[cn]), dtype=float)
    return Field(mesh=mesh, node_values=vals)


def dump_matrix_market(system: DiscreteSystem, path) -> None:
    from scipy import io as scipy_io

    scipy_io.mmwrite(str(path), system.matrix.tocoo())


def dump_solution_csv(field: Field, path) -> None:
    mesh = field.mesh
    with open(path, "w", newline="") as fh:
        fh.write("id," + ",".join("xy"[:mesh.dim]) + ",u\n")
        for i, (x, v) in enumerate(zip(mesh.nodes, field.node_values)):
            coords = ",".join(repr(float(c)) for c in x)
            fh.write(f"{i},{coords},{float(v)!r}\n")
