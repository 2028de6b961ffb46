"""Assembly and solution of the fully discrete nonlocal system.

The stiffness entries are triple sums: outer Gauss points per element,
inner ball-grid points per outer point, hat-function differences at both.
Assembly accumulates the full node-by-node operator A and keeps its
unknown rows A_{I,:}: their unknown columns are the stiffness matrix, and,
times the node-space layer data g (the Dirichlet data on the layer nodes,
zero on the unknowns), they give the load correction, f = b_I - A_{I,:} g.

Everything is vectorized over (outer point, inner point) pairs in fixed
element chunks, so results are reproducible run to run.  Box and layer
balls take one path: one ``locate_points`` call per chunk gives their points
and masks, each ball is weighted on its extension mask and keeps its in-mesh
points, and box balls are where both masks hold everywhere.  Each pair adds
one rank-one block, so a chunk's sum is (c o G)^T G for the pairs-by-nodes
hat difference matrix G, and the operator is the running CSR sum of the
chunks.
A chunk's live scratch is at most G and (c o G)^T.  ``_chunk_pairs``
returns only the pairs' node indices, hat values and coefficients (G); its
weights die with its frame, and the located points before
``_pair_products`` runs.  There (c o G)^T is G's transpose with each
stored term multiplied in place by its pair's coefficient, ``_PAIR_CHUNK``
terms at a time, so beside G and its transpose only one block of
coefficients is live.  No bit moves: each term is the same product
fl(v c) that scaling G's rows before the transpose gave, and the stable
transpose puts it at the same place.  The last chunk's G is dropped once
the next chunk's points are located, which costs no peak (locating needs
no more than the transpose), so the next G takes over its memory.
Dropped at the end of its chunk, glibc's malloc handed that memory back
to the system and every chunk faulted it in again: 41,000 instead of
5,000-16,000 page faults per 2D h=1/32 assembly, whose best of nine runs
took 0.66 s instead of 0.59 s (x86-64, glibc 2.36).
A chunk lists its pairs in (element, outer point, offset) order, and that
order is what fixes the order in which each entry sums its terms.  scipy's
CSR transpose is stable and its product adds (v_a c) v_b into each entry in
(pair, a, b) order, the order in which a dense bincount over the pair blocks
sums (``tests/_oracles.py`` keeps one), so both give bitwise the same
matrix.  The pair node indices are built in scipy's index dtype for the node
count, from a connectivity cast once per level in ``_assemble_operator``,
so no sparse constructor copies them.  Above ``_COO_NODE_LIMIT`` nodes
no product is formed: each (pair, a) term c v_a of the node-major matrix
(c o G)^T is expanded across its pair's 2k columns, and scipy's
``sum_duplicates`` sorts each row's columns and adds the duplicates.  Those
are bitwise the sums of the (pair, a, b)-ordered COO triplets that
``tests/_oracles.py`` keeps: COO-to-CSR conversion buckets the triplets by
row stably, the transpose lists each node's terms in the same order, so
every row reaches the same sort with the same sequence, and each term is
the same product c v_a v_b.  The expansion runs in blocks of consecutive
rows, each expanding at most ``_PAIR_CHUNK`` values (a longer row alone),
summed on its own and stacked, so its scratch is bounded instead of
(2k)^2 values per pair.  scipy's ``csr_sort_indices`` and
``csr_sum_duplicates`` work row by row, so each row meets the same term
sequence, the same unstable sort and the same sums whatever the block
boundaries.  This branch does not sum in pair order: the column sort is
unstable, so each entry's order is a fixed function of the pair order,
which keeps reruns bitwise equal.  Its order cancels some roundoff
residues to exact zeros that the product keeps as entries, and the
benchmark's exact-nnz reference for its h=1/128 level counts them.
``_PAIR_CHUNK`` and ``_COO_NODE_LIMIT`` are constants because they decide
which contributions are summed together, so any other value moves the
entries by roundoff; the expansion blocks that ``_PAIR_CHUNK`` also sizes
move none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .exceptions import AssemblyError, ConfigError, SolverError, _integer
from .geometry import Mesh, cell_counts, locate_points
from .kernels import Kernel
from .quadrature import InnerQuadratureRule, full_ball_rule, solve_weights_on_subset

_COO_NODE_LIMIT = 3000  # above this many nodes a chunk's terms are expanded, not multiplied
_PAIR_CHUNK = 200_000
_CG_MAX_ITERATIONS = 500  # 11x the most any measured level took (44)


def __getattr__(name: str):
    """Import ``scipy.sparse.linalg`` only when ``sparse_linalg`` is read.

    Nothing here calls it; perfbench's tracer reads and rebinds the name to
    wrap its ``cg``, and a run that never reads it skips the import and the
    LAPACK modules behind it.
    """
    if name == "sparse_linalg":
        from scipy.sparse import linalg

        return linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class DiscreteSystem:
    """Assembled system on the unknown (interior) nodes."""

    matrix: sparse.csr_matrix  # num_interior x num_interior, symmetric
    rhs: np.ndarray
    interior_nodes: np.ndarray  # dof index -> node id
    mesh: Mesh


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _reference_rule(dim: int, n_points: int):
    """Reference-element rule: (positions, barycentric values, weights).

    In 2D the tensor rule on the unit square is collapsed onto the reference
    triangle, so ``n_points`` must be a perfect square there.  Weights sum to
    the reference measure (1, respectively 1/2).  Built once per process, shared read-only.
    """
    _integer("n_points", n_points, AssemblyError, 1)
    return _cached_reference_rule(dim, int(n_points))


@functools.lru_cache(maxsize=None)
def _cached_reference_rule(dim: int, n_points: int):
    if dim == 1:
        t, w = gauss_legendre_01(n_points)
        rule = t.reshape(-1, 1), np.stack([1.0 - t, t], axis=1), w
    else:
        side = int(round(n_points ** 0.5))
        if side * side != n_points:
            raise AssemblyError(f"2D outer rule needs a square point count, got {n_points}")
        a, wa = gauss_legendre_01(side)
        A, Bv = np.meshgrid(a, a, indexing="ij")
        WA, WB = np.meshgrid(wa, wa, indexing="ij")
        u = (A * (1.0 - Bv)).ravel()  # collapsed coordinates keep weights positive
        v = Bv.ravel()
        w = (WA * WB * (1.0 - Bv)).ravel()
        rule = np.stack([u, v], axis=1), np.stack([1.0 - u - v, u, v], axis=1), w
    for array in rule:
        array.flags.writeable = False
    return rule


def outer_rules(mesh: Mesh, element_ids: np.ndarray, n_points: int):
    """Gauss rules on the given elements, exact for the rule's polynomial degree.

    Returns points (n_el, n_q, d), weights (n_el, n_q), and the reference
    barycentric values (n_q, d + 1) shared by every element.  Points are
    stored axis-major, each coordinate one contiguous block summed as
    p0 + t_0 e_0 (+ t_1 e_1), so ``pts.reshape(-1, d)`` is a view, not a
    copy, and each of its columns is contiguous.
    """
    ref, bary, w = _reference_rule(mesh.dim, n_points)
    p0, edges, det = mesh.affine_maps(element_ids)
    pts = np.empty((mesh.dim, len(det), len(w)))
    for c, coord in enumerate(pts):
        coord[:] = p0[:, c, None]
        for k in range(mesh.dim):
            coord += ref[:, k] * edges[:, k, c, None]
    return np.moveaxis(pts, 0, -1), w[None, :] * det[:, None], bary


def _pair_products(nodes: np.ndarray, vals: np.ndarray, coef: np.ndarray,
                   n: int) -> sparse.csr_matrix:
    """One chunk's n x n sum of coef[p] vals[p, i] vals[p, j] at (nodes[p, i], nodes[p, j]).

    Row p of the pairs-by-nodes G holds ``vals[p]`` at ``nodes[p]``, with
    repeated nodes left as separate entries, and its transpose is scaled in
    place into (c o G)^T, so no pair-major copy of the scaled values is
    made.  At or below
    ``_COO_NODE_LIMIT`` nodes the sum is (c o G)^T G, and each entry sums
    its terms in pair order.  Above it the terms of (c o G)^T are expanded
    across their pairs' columns in row blocks of at most ``_PAIR_CHUNK``
    values, each added by ``sum_duplicates``, and the blocks are stacked
    (see the module docstring).  Either way the order of the rows of
    ``nodes`` fixes the result bit for bit.  ``nodes`` comes in scipy's
    index dtype for n (``_assemble_operator`` casts the connectivity once
    per level) and is used as given, so no constructor copies or converts
    it.
    """
    width = nodes.shape[1]
    indptr = np.arange(0, nodes.size + 1, width,
                       dtype=sparse.get_index_dtype(maxval=nodes.size))
    g = sparse.csr_matrix((vals.ravel(), nodes.ravel(), indptr), shape=(len(nodes), n))
    # node-major: row i lists the (pair, slot) terms at node i in pair order
    ct = g.T.tocsr()
    # (c o G)^T in place: each term times its pair's coef, _PAIR_CHUNK terms at a time
    scale = np.empty(min(ct.nnz, _PAIR_CHUNK))
    for lo in range(0, ct.nnz, _PAIR_CHUNK):
        terms = ct.data[lo:lo + _PAIR_CHUNK]
        # the pair indices are in range: "clip" fills out directly, "raise" buffers it
        np.take(coef, ct.indices[lo:lo + len(terms)], out=scale[:len(terms)], mode="clip")
        terms *= scale[:len(terms)]
    del scale  # before the product or the expansion allocates
    if n <= _COO_NODE_LIMIT:
        return ct @ g
    # rows in blocks of at most _PAIR_CHUNK expanded values; a longer row is a block alone
    ptr, blocks, lo = ct.indptr, [], 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + _PAIR_CHUNK // width, "right")) - 1)
        span = slice(ptr[lo], ptr[hi])
        terms = np.take(vals, ct.indices[span], axis=0)
        terms *= ct.data[span, None]
        cols = np.take(nodes, ct.indices[span], axis=0)
        row_ptr = (ptr[lo:hi + 1] - ptr[lo]).astype(np.int64) * width  # int32 times width can overflow
        block = sparse.csr_matrix((terms.ravel(), cols.ravel(), row_ptr), shape=(hi - lo, n))
        block.sum_duplicates()
        blocks.append(block)
        lo = hi
    return sparse.vstack(blocks, format="csr")


def _assemble_operator(mesh: Mesh, kernel: Kernel, points_per_radius: int,
                       n_q: int) -> sparse.csr_matrix:
    """Full node-by-node operator: a running sum of one product per element chunk.

    The hat-difference factor at an (outer, inner) point pair is +basis at
    the inner point minus basis at the outer point, so each pair adds one
    rank-one block.  Each chunk locates its balls in one ``locate_points``
    call on the centers and the shared offsets.  Every ball, box or layer, is
    weighted on its ``in_ext`` mask and keeps its ``in_mesh`` points.
    """
    if kernel.dim != mesh.dim:
        raise AssemblyError("kernel / mesh dimensions do not match")
    full = full_ball_rule(kernel, points_per_radius)
    n = mesh.num_nodes
    total = sparse.csr_matrix((n, n))

    elements = mesh.elements.astype(sparse.get_index_dtype(maxval=n), copy=False)
    elem_ids = np.arange(mesh.num_elements)
    in_box = mesh.element_in_box
    chunk_elems = max(1, _PAIR_CHUNK // max(1, n_q * full.size))

    for part_ids, box in ((elem_ids[in_box], True), (elem_ids[~in_box], False)):
        for lo in range(0, len(part_ids), chunk_elems):
            ids = part_ids[lo:lo + chunk_elems]
            pts, wq, ref_bary = outer_rules(mesh, ids, n_q)
            # pairs run in (element, outer point, offset) order
            located = locate_points(mesh, pts.reshape(-1, mesh.dim), full.offsets)
            pairs = ()  # the last chunk's G dies here, and this chunk's reuses its memory
            pairs = _chunk_pairs(full, elements, ids, wq, ref_bary, located, box)
            del pts, located  # the chunk's points die before the product
            total = total + _pair_products(*pairs, n)
    return total


def _chunk_pairs(full: InnerQuadratureRule, elements: np.ndarray, ids: np.ndarray,
                 wq: np.ndarray, ref_bary: np.ndarray, located: tuple, box: bool):
    """One element chunk's ``(nodes, vals, coef)`` from its outer rule and located balls.

    ``located`` is ``locate_points``' result on the chunk's outer points.
    Everything else built here dies with this frame, before
    ``_pair_products`` runs.
    """
    in_elems, in_bary, in_mesh, in_ext = located
    if box and len(in_elems) < in_mesh.size:
        raise AssemblyError("a box ball left the meshed region")
    per_point = in_mesh.sum(axis=1)
    if not per_point.all():
        raise AssemblyError("a constraint-layer ball retained no quadrature points")
    weights = truncated_weights(full, in_ext)
    coef = full.strengths[None, :] * weights * wq.reshape(-1, 1)
    # all in the mesh: the row-major ravel is the boolean gather without its copy
    coef = coef.ravel() if len(in_elems) == in_mesh.size else coef[in_mesh]
    k = ref_bary.shape[1]
    nodes = np.empty((len(coef), 2 * k), dtype=elements.dtype)
    vals = np.empty(nodes.shape)
    per_elem = per_point.reshape(wq.shape).sum(axis=1)
    nodes[:, :k] = np.repeat(elements[ids], per_elem, axis=0)
    vals[:, :k] = np.repeat(np.tile(-ref_bary, (len(ids), 1)), per_point, axis=0)
    nodes[:, k:] = elements[in_elems]
    vals[:, k:] = in_bary
    return nodes, vals, coef


def truncated_weights(full: InnerQuadratureRule, in_ext: np.ndarray) -> np.ndarray:
    """Weights of every ball on its extension mask, shape (n_balls, full.size).

    ``locate_points``' ``in_ext`` marks each ball's grid points in the region
    grown by the extension.  Weights are solved on that set against the
    full-ball moments (one cached solve per distinct mask), zero elsewhere;
    the caller then drops the points outside the meshed region.  When every
    mask holds everywhere, it is one full-ball row (1, full.size) instead.
    """
    if in_ext.all():
        return full.weights[None, :].copy()
    masks, inverse = _distinct_masks(in_ext)
    per_mask = np.zeros((len(masks), full.size))
    for k, mask in enumerate(masks):
        per_mask[k, mask], _ = solve_weights_on_subset(full, mask)
    return per_mask[inverse]


def _distinct_masks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` for a boolean matrix.

    Each row is packed to bytes and compared as one opaque key.  Bytes
    compare in the same lexicographic order as the rows (False before
    True, padding bits all zero), so the distinct rows come in the same
    order, and so do the solves and cache lookups made from them.
    """
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


def assemble_system(mesh: Mesh, kernel: Kernel, points_per_radius: int,
                    n_q: int, source=None, boundary=None) -> DiscreteSystem:
    """Assemble stiffness and load in one operator pass.

    The operator's unknown rows A_{I,:}, sorted once, give the matrix (their
    unknown columns) and the load f = b_I - A_{I,:} g: b the body force over
    the box on the same ``n_q``-point outer rule, g ``boundary`` on the layer
    and 0 on the unknowns, whose terms add only exact zeros to each row.
    """
    operator = _assemble_operator(mesh, kernel, points_per_radius, n_q)
    interior = mesh.interior_nodes
    rows = operator[interior]
    rows.sort_indices()  # sorted rows fix the order rows @ g sums in
    g = reconstruct(mesh, np.zeros(len(interior)), boundary)
    load = np.zeros(mesh.num_nodes) if source is None else _body_load(mesh, source, n_q)
    return DiscreteSystem(matrix=rows[:, interior], rhs=load[interior] - rows @ g,
                          interior_nodes=interior, mesh=mesh)


def _body_load(mesh: Mesh, source, n_q: int) -> np.ndarray:
    ids = np.flatnonzero(mesh.element_in_box)
    pts, wb, ref_bary = outer_rules(mesh, ids, n_q)
    n_el, nq = wb.shape
    values = _point_values("source", source, pts.reshape(-1, mesh.dim)).reshape(n_el, nq)
    # f_i += sum_b basis_i(x_b) * source(x_b) * w_b, per element node
    contrib = np.einsum("eq,qk,eq->ek", values, ref_bary, wb)
    return np.bincount(mesh.elements[ids].ravel(), weights=contrib.ravel(), minlength=mesh.num_nodes)


def solve_system(system: DiscreteSystem) -> np.ndarray:
    """Iterative solve (``_pcg``); contract is a relative residual below 1e-12."""
    a, f = system.matrix, system.rhs
    if a.shape[0] == 0:
        return np.zeros(0)
    mesh = system.mesh
    u, _ = _pcg(a, f, tuple(n - 1 for n in cell_counts(mesh.spacing, mesh.domain)[1]))
    norm_f = np.linalg.norm(f)
    residual = np.linalg.norm(a @ u - f) / (norm_f if norm_f > 0 else 1.0)
    if not np.all(np.isfinite(u)) or residual > 1e-12:
        raise SolverError(f"linear solve failed: relative residual={residual:.3e}")
    return u


def _dstn(x: np.ndarray) -> np.ndarray:
    """Separable unnormalised DST-I: y_k = sum_n x_n sin(pi k n / (N + 1)), k, n = 1..N, per axis.

    The odd extension [0, x, 0, -x reversed] has the real FFT -2i y in bins 1..N.
    """
    for axis in range(x.ndim):
        x = np.moveaxis(x, axis, -1)
        zero = np.zeros(x.shape[:-1] + (1,))
        odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
        x = np.moveaxis(-0.5 * np.fft.rfft(odd)[..., 1:x.shape[-1] + 1].imag, -1, axis)
    return x


def _stencil_symbol(a, shape: tuple[int, ...]) -> np.ndarray:
    """DST-I symbol sum_k a_k prod_j cos(k_j theta_j) of the centre unknown's row.

    The unknowns are the x-fastest lattice of ``shape`` (axis 0 = x).  The
    centre is index N_j // 2 on each axis, k its columns' integer offsets
    from it and theta_j = pi i / (N_j + 1), i = 1..N_j: the eigenvalues of
    the stencil averaged over axis reflections, which the DST-I diagonalises.
    """
    centre = [n // 2 for n in shape]
    dof = np.ravel_multi_index(centre[::-1], shape[::-1])
    row = slice(a.indptr[dof], a.indptr[dof + 1])
    symbol = a.data[row]
    columns = np.unravel_index(a.indices[row], shape[::-1])[::-1]
    for j, (n, c, k) in enumerate(zip(shape, centre, columns)):
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        symbol = symbol[..., None] * np.expand_dims(np.cos(np.multiply.outer(k - c, theta)),
                                                   tuple(range(1, j + 1)))
    return symbol.sum(axis=0)


def _pcg(a, f: np.ndarray, shape: tuple[int, ...]):
    """Conjugate gradients on ``a u = f`` from u = 0; returns u and the iteration count.

    The unknowns in dof order are the x-fastest lattice of ``shape`` (axis 0
    = x), perturbed meshes included, so a vector read as an array of the
    reversed shape and transposed is the lattice with x first.  The
    preconditioner inverts the centre unknown's row taken as a constant
    stencil on the lattice: the DST-I S diagonalises it, so
    z = S (S r / lambda) prod_j 2 / (N_j + 1) with lambda its symbol.
    Interior rows equal the centre stencil to roundoff, so only the rows near
    the box boundary separate the preconditioned operator from the identity,
    and the count does not grow as h shrinks.  Iterations stop once the
    recursive residual is at most 1e-13 |f|.  Every inner product is a numpy
    sum of products, not a BLAS dot, so the bits do not depend on the BLAS
    thread count.
    """
    symbol = _stencil_symbol(a, shape)
    if not symbol.min() > 0:
        raise SolverError(f"stencil symbol of the centre row is not positive: min {symbol.min():.3e}")
    scale = np.prod([2.0 / (n + 1) for n in shape]) / symbol

    def precondition(r):
        return _dstn(_dstn(r.reshape(shape[::-1]).T) * scale).T.ravel()

    u, r = np.zeros(len(f)), f.copy()
    p = z = precondition(r)
    rz = (r * z).sum()
    stop = 1e-13 * np.sqrt((f * f).sum())
    for iteration in range(_CG_MAX_ITERATIONS):
        if np.sqrt((r * r).sum()) <= stop:
            return u, iteration
        q = a @ p
        alpha = rz / (p * q).sum()
        u += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz, rz_old = (r * z).sum(), rz
        p = z + (rz / rz_old) * p
    raise SolverError(f"preconditioned CG did not converge in {_CG_MAX_ITERATIONS} iterations:"
                      f" recursive residual={np.sqrt((r * r).sum() / (f * f).sum()):.3e}")


def reconstruct(mesh: Mesh, interior_values: np.ndarray, boundary=None) -> np.ndarray:
    """The value at every mesh node: the unknowns, and ``boundary`` (else 0) on the layer."""
    if np.shape(interior_values) != (mesh.num_interior,):
        raise ConfigError(f"interior values of shape {np.shape(interior_values)}"
                          f" for {mesh.num_interior} unknowns")
    vals = np.zeros(mesh.num_nodes)
    vals[mesh.interior_nodes] = interior_values
    if boundary is not None:
        cn = mesh.constraint_nodes
        vals[cn] = _point_values("boundary", boundary, mesh.nodes[cn])
    return vals


def _point_values(name: str, func, points: np.ndarray) -> np.ndarray:
    """``func(points)`` as floats if it gives one value per point, else ConfigError."""
    values = np.asarray(func(points), dtype=float)
    if values.shape != points.shape[:-1]:
        raise ConfigError(f"{name} gave values of shape {values.shape}"
                          f" for {len(points)} points")
    return values


def dump_matrix_market(system: DiscreteSystem, path) -> None:
    from scipy import io as scipy_io

    # mmwrite given a path name reports no error when it cannot open it
    with open(path, "wb") as fh:
        scipy_io.mmwrite(fh, system.matrix.tocoo())


def dump_solution_csv(mesh: Mesh, node_values: np.ndarray, path) -> None:
    """One ``id,x[,y],u`` row per node, each float written as its ``repr``."""
    columns = [map(str, range(mesh.num_nodes)), *(map(repr, a) for a in mesh.nodes.T.tolist()),
               map(repr, np.asarray(node_values, dtype=float).tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("id," + ",".join("xy"[:mesh.dim]) + ",u\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*columns)]))
