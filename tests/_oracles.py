"""Reference implementations used only by the tests.

``naive_system`` shares no code with the production package: hat functions
are evaluated from their closed form, inner-rule weights come from numpy's
lstsq (minimal-norm solution), and the assembly is a plain dense triple
loop.  ``correctly_summed_entries`` sums every operator entry's terms in
long double (or by ``math.fsum``), so that assembly is checked against
roundoff bounds rather than the bits of one summing order.

The acceptance criteria compare the production path with these oracles:

- ``constraint_matrix`` (criterion 1, and ``test_quadrature.py``): the
  moment constraint rows, built from ``Kernel.strength`` and the monomials
  written out rather than by ``quadrature._constraint_matrix``, and
  ``unit_moments``, their targets: the kernel scaling makes the full-ball
  second moments delta_ij, which ``test_kernels.py`` checks by adaptive
  quadrature;
- ``closed_form_weights_1d_constant`` (criterion 2): the analytic full-ball
  weights of the 1D constant kernel;
- ``near_boundary_error_ratio`` (criterion 4, the boundary-concentration
  check): nodal error near the box boundary against deep inside;
- ``exact_bilinear_form`` and ``strang_gap`` (criterion 12): the 1D bilinear
  form with each inner integral taken exactly over ball-element
  intersections, which the production assembly never computes, and its gap
  to the assembled matrix.

The remaining functions are parity oracles: they keep earlier forms of
production code whose replacements must give bitwise-equal results.
"""

import math

import numpy as np
from scipy import sparse

import nlfem.assembly
from nlfem import KernelKind, NlfemError, QuadratureError, assemble_system
from nlfem.assembly import _reference_rule, gauss_legendre_01
from nlfem.geometry import Mesh, _axis_cells


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


def two_pass_error_norms(node_values, case, mesh, n_points):
    """L2 and H1 errors on an n_points rule, each from its own pass over all box elements."""
    ids = np.flatnonzero(mesh.element_in_box)
    pts, w, ref_bary = forked_outer_rules(mesh, ids, n_points)
    nodal = node_values[mesh.elements[ids]]
    uh = np.einsum("qk,ek->eq", ref_bary, nodal)
    u0 = case.solution(pts.reshape(-1, mesh.dim)).reshape(uh.shape)
    l2 = math.sqrt(float(np.sum((uh - u0) ** 2 * w)))
    grad_h = forked_element_gradients(mesh, node_values)[ids]
    grad_0 = np.stack(case.solution_and_gradient(pts.reshape(-1, mesh.dim))[1],
                      axis=-1).reshape(*uh.shape, mesh.dim)
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


def correctly_summed_entries(chunks, n, use_fsum=None):
    """Every operator entry's terms, summed with at most long-double roundoff.

    ``chunks`` lists the ``(nodes, vals, coef)`` of each ``_pair_products``
    call.  A term is the float64 product (coef[p] vals[p, a]) vals[p, b] that
    both chunk sums form, at (nodes[p, a], nodes[p, b]).  Each entry adds its
    terms in ``np.longdouble``, or by ``math.fsum`` (exactly rounded) where
    ``longdouble`` is no wider than float64 or ``use_fsum`` asks for it.
    Returns the flat keys row * n + col in ascending order, and per key the
    sum, the term count and the sum of |term|.
    """
    keys = np.concatenate([(nodes.astype(np.int64)[:, :, None] * n + nodes[:, None, :]).ravel()
                           for nodes, _, _ in chunks])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    terms = np.concatenate([((vals * coef[:, None])[:, :, None] * vals[:, None, :]).ravel()
                            for _, vals, coef in chunks])[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    if use_fsum is None:
        use_fsum = np.finfo(np.longdouble).eps >= np.finfo(float).eps
    if use_fsum:
        sums = np.array([math.fsum(t) for t in np.split(terms, starts[1:])])
    else:
        sums = np.add.reduceat(terms, starts, dtype=np.longdouble)
    counts = np.diff(np.r_[starts, len(keys)])
    return keys[starts], sums, counts, np.add.reduceat(np.abs(terms), starts)


def constraint_matrix(kernel, center, points):
    """Entry (a, j) is the kernel strength at x_j times (x_j - center)^beta_a,
    over the |beta| = 2 monomials x^2 (1D) or x^2, xy, y^2 (2D)."""
    offs = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, dtype=float)
    x, y = offs[:, 0], offs[:, -1]
    monomials = [x * x] if kernel.dim == 1 else [x * x, x * y, y * y]
    return kernel.strength(kernel.ball_norm.length(offs))[None, :] * np.array(monomials)


def unit_moments(dim):
    """Full-ball integrals of ``constraint_matrix``'s rows: delta_ij, i <= j."""
    return np.eye(dim)[np.triu_indices(dim)]


def closed_form_weights_1d_constant(points_per_radius, horizon):
    """Analytic full-ball weights for the 1D constant kernel.

    Returned in the same ascending-offset order as the full rule's offsets.  This is
    the corrected closed form 20*h*n*(2k - sgn k)^2 / (7 - 40 n^2 + 48 n^4);
    see the README for the derivation check at n = 1 (both weights 4h/3).
    """
    n = points_per_radius
    if n < 1:
        raise QuadratureError("points_per_radius must be at least 1")
    ks = np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])
    num = 20.0 * horizon * n * (2 * ks - np.sign(ks)) ** 2
    den = 7.0 - 40.0 * n**2 + 48.0 * n**4
    return num / den


def near_boundary_error_ratio(node_values, case, mesh, width, interior_margin=None):
    """Max nodal error within ``width`` of the box boundary versus deep inside.

    The interior reference is taken over nodes at distance at least
    ``interior_margin`` from the boundary (default: half the largest
    distance, i.e. the central part of the box), so that the slowly decaying
    shoulder of a boundary-generated error does not mask the concentration.
    A side without nodes reads 0.0, so a mesh without unknowns gives (0.0, 0.0).
    """
    nodes = mesh.interior_nodes
    coords = mesh.nodes[nodes]
    dist = np.minimum(coords - mesh.domain.lo, np.array(mesh.domain.hi) - coords).min(axis=-1)
    err = np.abs(node_values[nodes] - case.solution(coords))
    if interior_margin is None:
        interior_margin = 0.5 * float(dist.max(initial=0.0))
    near = err[dist <= width]
    deep = err[dist >= interior_margin]
    return (float(near.max()) if near.size else 0.0,
            float(deep.max()) if deep.size else 0.0)


def exact_bilinear_form(v_values, w_values, kernel, mesh, n_q=40):
    """1D bilinear form with piecewise-exact inner integration.

    The outer integral uses Gauss quadrature (assumed accurate); the inner
    integral over ball intersected with the meshed region is evaluated in
    closed form on each overlapped segment, where both fields are linear.
    The production assembly never intersects elements with balls.
    """
    if mesh.dim != 1:
        raise NlfemError("exact_bilinear_form supports 1D meshes only")
    breaks = mesh.axis_breaks[0]
    delta = kernel.horizon
    lo, hi = breaks[0], breaks[-1]
    v, w = np.asarray(v_values, float), np.asarray(w_values, float)
    slopes_v = np.diff(v) / np.diff(breaks)
    slopes_w = np.diff(w) / np.diff(breaks)
    x01, w01 = gauss_legendre_01(n_q)
    rational = kernel.kind is KernelKind.RATIONAL
    c_k = (kernel.scaling / delta**3 if not rational else kernel.scaling / delta**2)

    total = 0.0
    for e in range(len(breaks) - 1):
        a_e, b_e = breaks[e], breaks[e + 1]
        scale = b_e - a_e
        for t, gw in zip(x01, w01):
            x = a_e + t * scale
            vx = v[e] + slopes_v[e] * (x - a_e)
            wx = w[e] + slopes_w[e] * (x - a_e)
            y_lo, y_hi = max(x - delta, lo), min(x + delta, hi)
            k0 = int(np.searchsorted(breaks, y_lo, side="right") - 1)
            k0 = max(k0, 0)
            inner = 0.0
            k = k0
            while k < len(breaks) - 1 and breaks[k] < y_hi:
                sa, sb = max(breaks[k], y_lo), min(breaks[k + 1], y_hi)
                if sb > sa:
                    inner += _segment_integral(
                        x, sa, sb, breaks[k], v[k], slopes_v[k], w[k], slopes_w[k],
                        vx, wx, rational, own=(k == e))
                k += 1
            total += gw * scale * c_k * inner
    return total


def _segment_integral(x, sa, sb, seg_start, v0, sv, w0, sw, vx, wx, rational, own):
    """Integral of (v(y)-v(x)) (w(y)-w(x)) / |y-x|^p over [sa, sb], p in {0,1}.

    Writing v(y)-v(x) = sv*(y-x) + cv on the segment, the integrand is a
    quadratic in t = y-x (divided by |t| for the rational kernel).  On the
    outer point's own segment cv and cw vanish identically.
    """
    if own:
        cv = cw = 0.0
    else:
        cv = v0 + sv * (sa - seg_start) - vx - sv * (sa - x)
        cw = w0 + sw * (sa - seg_start) - wx - sw * (sa - x)
    a2 = sv * sw
    b1 = sv * cw + sw * cv
    c0 = cv * cw
    t0, t1 = sa - x, sb - x
    if not rational:
        def antider(t):
            return a2 * t**3 / 3.0 + b1 * t**2 / 2.0 + c0 * t
        return antider(t1) - antider(t0)
    if own:
        # c0 = b1 = 0; integrand a2*|t|, antiderivative valid across t = 0
        return a2 * 0.5 * (t1 * abs(t1) - t0 * abs(t0))
    sigma = 1.0 if (t0 + t1) > 0 else -1.0

    def antider(t):
        return a2 * t**2 / 2.0 + b1 * t + c0 * math.log(abs(t))

    return sigma * (antider(t1) - antider(t0))


def strang_gap(v_values, w_values, kernel, mesh, points_per_radius, n_q=40):
    """|D(v, w) - D_h(v, w)| for fields vanishing on the constraint layer.

    D is integrated piecewise-exactly (1D only); D_h runs through the same
    inner-rule path as the production assembly.
    """
    if mesh.dim != 1:
        raise NlfemError("strang_gap supports 1D meshes only")
    v = np.asarray(v_values, float)
    w = np.asarray(w_values, float)
    cn = mesh.constraint_nodes
    if np.any(v[cn] != 0.0) or np.any(w[cn] != 0.0):
        raise NlfemError("strang_gap requires fields that vanish on the constraint layer")
    exact = exact_bilinear_form(v, w, kernel, mesh, n_q)
    a = assemble_system(mesh, kernel, points_per_radius, n_q).matrix
    ids = mesh.interior_nodes
    discrete = float(v[ids] @ (a @ w[ids]))
    return abs(exact - discrete)


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
    """Element lengths (1D) or areas (2D) from their own formulas, apart from
    ``Mesh.affine_maps``."""
    verts = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        return verts[:, 1, 0] - verts[:, 0, 0]
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def forked_element_gradients(mesh, node_values):
    """Every element's gradient, as ``convergence._element_gradients`` gives it,
    with its own edges and determinant."""
    verts = mesh.nodes[mesh.elements]
    uv = node_values[mesh.elements]
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


def forked_mesh_from_breaks(domain, breaks, m, inner, h, uniform):
    """``geometry._mesh_from_breaks`` with its own 1D and 2D branches: 1D
    pairs consecutive breakpoints, 2D numbers rectangle corners and splits
    each rectangle into a lower and an upper triangle."""
    if domain.dim == 1:
        bx = breaks[0]
        nodes = bx.reshape(-1, 1)
        idx = np.arange(len(bx) - 1)
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
        ix, iy = ix.ravel(), iy.ravel()
        ll, lr = nid(ix, iy), nid(ix + 1, iy)
        ur, ul = nid(ix + 1, iy + 1), nid(ix, iy + 1)
        elements = np.empty((2 * ncx * ncy, 3), dtype=np.int64)
        elements[0::2] = np.stack([ll, lr, ur], axis=1)
        elements[1::2] = np.stack([ll, ur, ul], axis=1)
        cell_in_box = ((ix >= m) & (ix < m + inner[0])
                       & (iy >= m) & (iy < m + inner[1]))
        in_box = np.repeat(cell_in_box, 2)
        gx, gy = np.meshgrid(np.arange(len(bx)), np.arange(len(by)), indexing="xy")
        interior = (((gx > m) & (gx < m + inner[0]))
                    & ((gy > m) & (gy < m + inner[1]))).ravel()
    return Mesh(domain=domain, nodes=np.ascontiguousarray(nodes),
                elements=np.ascontiguousarray(elements, dtype=np.int64),
                element_in_box=in_box, node_is_interior=interior,
                axis_breaks=tuple(np.ascontiguousarray(b) for b in breaks),
                spacing=h, is_uniform=uniform)
