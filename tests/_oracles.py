"""Reference implementations used only by the tests.

``naive_system`` shares no code with the production package: hat functions
are evaluated from their closed form, inner-rule weights come from numpy's
lstsq (minimal-norm solution), and the assembly is a plain dense triple
loop.  The parity oracles below keep earlier forms of production code
whose replacements must give bitwise-equal results.
"""

import math

import numpy as np
from scipy import sparse

import nlfem.assembly
from nlfem import KernelKind, outer_rules
from nlfem.assembly import _reference_rule
from nlfem.geometry import _axis_cells


def naive_system(h, m, kind, extension_ratio, nbar, nq, source, boundary):
    """Dense triple-loop assembly of the 1D system (matrix and load)."""
    delta = m * h
    ext = extension_ratio * delta
    lo, hi = -delta, 1 + delta
    n_seg = int(round((1 + 2 * delta) / h))
    nodes = np.linspace(lo, hi, n_seg + 1)

    def hat(j, x):
        return max(0.0, 1.0 - abs(x - nodes[j]) / h)

    def gamma(r):
        if r > delta * (1 + 1e-12):
            return 0.0
        if kind is KernelKind.CONSTANT:
            return 1.5 / delta**3
        return 1.0 / (delta**2 * r)

    g_moment = 1.0  # both default 1D kernels are normalized

    def rule(center):
        hb = delta / nbar
        ks = [k for k in range(-nbar, nbar + 1) if k != 0]
        offs = np.array([(2 * k - np.sign(k)) * hb / 2 for k in ks])
        pts = center + offs
        keep = (pts >= lo - ext) & (pts <= hi + ext)
        o = offs[keep]
        B = np.array([[gamma(abs(t)) * t * t for t in o]])
        w = np.linalg.lstsq(B, [g_moment], rcond=None)[0]
        kept_pts = pts[keep]
        final = (kept_pts >= lo) & (kept_pts <= hi)
        return kept_pts[final], w[final]

    gp, gw = np.polynomial.legendre.leggauss(nq)
    gp, gw = (gp + 1) / 2, gw / 2
    interior = [j for j in range(n_seg + 1)
                if 1e-12 < nodes[j] < 1 - 1e-12]
    col = {j: c for c, j in enumerate(interior)}
    n_int = len(interior)
    A = np.zeros((n_int, n_int))
    f = np.zeros(n_int)
    for e in range(n_seg):
        a, b = nodes[e], nodes[e + 1]
        mid = (a + b) / 2
        in_box = 0.0 < mid < 1.0
        for t, w_out in zip(gp, gw):
            xq = a + t * (b - a)
            wq = w_out * (b - a)
            if in_box:
                for j in interior:
                    f[col[j]] += hat(j, xq) * source(np.array([[xq]]))[0] * wq
            ys, ws = rule(xq)
            for y, wp in zip(ys, ws):
                gam = gamma(abs(y - xq))
                gh = 0.0
                for j in range(n_seg + 1):
                    if j not in col:
                        gh += (hat(j, y) - hat(j, xq)) * boundary(
                            np.array([[nodes[j]]]))[0]
                for i in interior:
                    di = hat(i, y) - hat(i, xq)
                    if di == 0.0:
                        continue
                    f[col[i]] -= di * gam * gh * wp * wq
                    for j in interior:
                        dj = hat(j, y) - hat(j, xq)
                        if dj != 0.0:
                            A[col[i], col[j]] += di * gam * dj * wp * wq
    return A, f


def two_pass_error_norms(field, case, mesh):
    """L2 and H1 errors, each from its own pass over all box elements at once."""
    ids = np.flatnonzero(mesh.element_in_box)
    pts, w, ref_bary = outer_rules(mesh, ids, 8 ** mesh.dim)
    nodal = field.node_values[mesh.elements[ids]]
    uh = np.einsum("qk,ek->eq", ref_bary, nodal)
    u0 = case.solution(pts.reshape(-1, mesh.dim)).reshape(uh.shape)
    l2 = math.sqrt(float(np.sum((uh - u0) ** 2 * w)))
    grad_h = field.element_gradients()[ids]
    grad_0 = case.gradient(pts.reshape(-1, mesh.dim)).reshape(*uh.shape, mesh.dim)
    gdiff = np.sum((grad_h[:, None, :] - grad_0) ** 2, axis=-1)
    h1 = math.sqrt(float(np.sum(((uh - u0) ** 2 + gdiff) * w)))
    return l2, h1


def broadcast_pair_products(nodes, vals, coef, n):
    """One chunk's operator sum through broadcast (row, column) index blocks.

    Drop-in for ``nlfem.assembly._pair_products``, with the row and column
    indices materialised at full (pairs, 2k, 2k) size.  At or below
    ``_COO_NODE_LIMIT`` nodes the blocks are summed by a dense J x J
    bincount, above it as COO duplicates.
    """
    rows = np.broadcast_to(nodes[:, :, None], (*nodes.shape, nodes.shape[1]))
    cols = np.broadcast_to(nodes[:, None, :], rows.shape)
    data = (vals * coef[:, None])[:, :, None] * vals[:, None, :]
    if n <= nlfem.assembly._COO_NODE_LIMIT:
        flat = rows.astype(np.int64) * n + cols
        dense = np.bincount(flat.ravel(), weights=data.ravel(), minlength=n * n)
        return sparse.csr_matrix(dense.reshape(n, n))
    return sparse.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n, n)).tocsr()


def forked_outer_rules(mesh, element_ids, n_points):
    """``outer_rules`` with its own affine map and determinant per dimension."""
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


def forked_element_measures(mesh):
    """``Mesh.element_measures`` with its own length and area formulas."""
    verts = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        return verts[:, 1, 0] - verts[:, 0, 0]
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def forked_element_gradients(field):
    """``Field.element_gradients`` with its own edges and determinant."""
    mesh = field.mesh
    verts = mesh.nodes[mesh.elements]
    uv = field.node_values[mesh.elements]
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


def masked_locate_points(mesh, points):
    """``locate_points`` for (n, d) points inside the mesh, 2D barycentrics
    filled by boolean-mask assignments per triangle."""
    pts = np.asarray(points, dtype=float)
    if mesh.dim == 1:
        bx = mesh.axis_breaks[0]
        ix = _axis_cells(bx, pts[:, 0])
        t = (pts[:, 0] - bx[ix]) / (bx[ix + 1] - bx[ix])
        return ix, np.stack([1.0 - t, t], axis=1)
    bx, by = mesh.axis_breaks
    ix = _axis_cells(bx, pts[:, 0])
    iy = _axis_cells(by, pts[:, 1])
    xi = (pts[:, 0] - bx[ix]) / (bx[ix + 1] - bx[ix])
    eta = (pts[:, 1] - by[iy]) / (by[iy + 1] - by[iy])
    rect = iy * (len(bx) - 1) + ix
    lower = xi >= eta
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
