"""Reference implementations used only by the tests.

``naive_system`` shares no code with the production package: hat functions
are evaluated from their closed form, inner-rule weights come from numpy's
lstsq (minimal-norm solution), and the assembly is a plain dense triple
loop.  The two parity oracles below keep earlier, simpler forms of
production code whose replacements must give bitwise-equal results.
"""

import math

import numpy as np
from scipy import sparse

import nlfem.assembly
from nlfem import KernelKind, outer_rules


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
