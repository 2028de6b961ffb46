import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import nlfem.assembly
from nlfem import (AssemblyError, BoxDomain, ConfigError, Kernel, KernelKind,
                   PerturbationSpec, assemble_system, build_uniform_mesh,
                   get_case, locate_points, outer_rules, perturb_mesh,
                   reconstruct, solve_system)
from nlfem.convergence import _element_gradients
from nlfem.exceptions import SolverError
from nlfem.quadrature import default_cache, full_ball_rule


def _mesh_1d(h, m, extension_ratio=1.0):
    delta = m * h
    return build_uniform_mesh(h, BoxDomain.unit(1, delta, extension_ratio * delta))


# ---------------------------------------------------------------- outer rules

def test_outer_rule_1d_two_points():
    mesh = _mesh_1d(0.25, 1)
    pts, w, _ = outer_rules(mesh, [0], 2)
    a = mesh.nodes[mesh.elements[0, 0], 0]
    h = 0.25
    expected = a + h * np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
    assert np.allclose(sorted(pts[0, :, 0]), expected)
    assert np.allclose(w, h / 2)


@pytest.mark.parametrize("dim,n", [(1, 3), (1, 40), (2, 4), (2, 16)])
def test_outer_rule_integrates_one(dim, n):
    from _oracles import forked_element_measures

    dom = BoxDomain.unit(dim, 0.25)
    mesh = build_uniform_mesh(0.25, dom)
    ids = np.array([0, mesh.num_elements - 1])
    _, w, _ = outer_rules(mesh, ids, n)
    assert np.all(w > 0)
    assert np.allclose(w.sum(axis=1), forked_element_measures(mesh)[ids], rtol=1e-14, atol=0)


def test_outer_rule_exact_for_polynomials():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(1, 0.5))
    # element covering [0, 0.5] then [0.5, 1]: integrate x^2 over [0,1]
    pts, w, _ = outer_rules(mesh, np.flatnonzero(mesh.element_in_box), 40)
    assert np.sum(pts[..., 0] ** 2 * w) == pytest.approx(1 / 3, abs=1e-14)


def test_outer_rule_2d_quadratic():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    pts, w, _ = outer_rules(mesh, np.flatnonzero(mesh.element_in_box), 16)
    assert np.sum(pts[..., 0] * pts[..., 1] * w) == pytest.approx(0.25, abs=1e-13)


def test_outer_rule_2d_requires_square_count():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    with pytest.raises(AssemblyError, match="square"):
        outer_rules(mesh, [0], 10)


def test_outer_rule_needs_a_point():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(1, 0.5))
    with pytest.raises(AssemblyError, match="at least 1"):
        outer_rules(mesh, [0], 0)


@pytest.mark.parametrize("n_points", [True, 2.0, 2.5, "3", None])
def test_outer_rule_rejects_non_integer_counts(n_points):
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(1, 0.5))
    with pytest.raises(AssemblyError, match=re.escape(f"got {n_points!r}")):
        outer_rules(mesh, [0], n_points)
    assert np.array_equal(outer_rules(mesh, [0], np.int64(2))[0], outer_rules(mesh, [0], 2)[0])


def test_reference_rule_is_built_once_and_read_only():
    """Every call for one rule shares its arrays, a numpy count included, so
    none of them may be written."""
    from nlfem.assembly import _reference_rule

    for dim, n_points in ((1, 2), (2, 4)):
        rule = _reference_rule(dim, n_points)
        assert all(a is b for a, b in zip(_reference_rule(dim, n_points), rule))
        assert all(a is b for a, b in zip(_reference_rule(dim, np.int64(n_points)), rule))
        for array in rule:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(1, 0.5))
    assert outer_rules(mesh, [0], np.int64(2))[2] is outer_rules(mesh, [0], 2)[2]


# ---------------------------------------------------------- naive dense oracle

@pytest.mark.parametrize("h", [1 / 4, 1 / 8])
@pytest.mark.parametrize("kind", [KernelKind.CONSTANT, KernelKind.RATIONAL])
@pytest.mark.parametrize("extension_ratio", [0.0, 1.0])
def test_assembly_matches_naive_oracle(h, kind, extension_ratio):
    from _oracles import naive_system

    m, nbar, nq = 1, 2, 8
    mesh = _mesh_1d(h, m, extension_ratio)
    kernel = Kernel(kind, 1, m * h)
    case = get_case("sin1d")
    system = assemble_system(mesh, kernel, nbar, nq,
                             case.source, case.solution)
    A = system.matrix.toarray()
    A_ref, f_ref = naive_system(h, m, kind, extension_ratio, nbar, nq,
                                case.source, case.solution)
    scale = np.abs(A_ref).max()
    assert np.abs(A - A_ref).max() <= 1e-13 * scale
    assert np.abs(system.rhs - f_ref).max() <= 1e-13 * max(1.0, np.abs(f_ref).max())


def test_assembly_matches_naive_oracle_2d():
    """Dense loop reference for the 2D path: own hats, lstsq weights."""
    h, m, nbar, nq_side = 0.5, 1, 2, 2
    delta = m * h
    lo, hi = -delta, 1 + delta
    n_ax = int(round((1 + 2 * delta) / h))
    breaks = np.linspace(lo, hi, n_ax + 1)
    nnx = n_ax + 1

    def node_xy(j):
        return breaks[j % nnx], breaks[j // nnx]

    def tri_nodes(e):
        rect, upper = divmod(e, 2)
        iy, ix = divmod(rect, n_ax)
        ll = iy * nnx + ix
        lr, ur, ul = ll + 1, ll + 1 + nnx, ll + nnx
        return (ll, ur, ul) if upper else (ll, lr, ur)

    def bary_at(p):
        ix = min(max(np.searchsorted(breaks, p[0], side="left") - 1, 0), n_ax - 1)
        iy = min(max(np.searchsorted(breaks, p[1], side="left") - 1, 0), n_ax - 1)
        xi = (p[0] - breaks[ix]) / h
        eta = (p[1] - breaks[iy]) / h
        rect = iy * n_ax + ix
        if xi >= eta:
            return 2 * rect, np.array([1 - xi, xi - eta, eta])
        return 2 * rect + 1, np.array([1 - eta, xi, eta - xi])

    def hats(p):
        e, bary = bary_at(p)
        out = np.zeros(nnx * nnx)
        for node, b in zip(tri_nodes(e), bary):
            out[node] = b
        return out

    zeta = 4 / np.pi
    gam0 = zeta / delta**4
    ks = np.array([-2, -1, 1, 2])
    axis = (2 * ks - np.sign(ks)) * (delta / nbar) / 2
    offs = np.array([(a, b) for a in axis for b in axis])
    offs = offs[np.hypot(offs[:, 0], offs[:, 1]) <= delta]
    g = np.array([zeta * np.pi / 4, 0.0, zeta * np.pi / 4])

    def rule(c):
        pts = c + offs
        keep = np.all((pts >= lo - delta) & (pts <= hi + delta), axis=1)
        o = offs[keep]
        B = gam0 * np.stack([o[:, 0] ** 2, o[:, 0] * o[:, 1], o[:, 1] ** 2])
        w = np.linalg.lstsq(B, g, rcond=None)[0]
        final = np.all((pts[keep] >= lo) & (pts[keep] <= hi), axis=1)
        return pts[keep][final], w[final]

    gp, gw = np.polynomial.legendre.leggauss(nq_side)
    gp, gw = (gp + 1) / 2, gw / 2
    interior = [j for j in range(nnx * nnx)
                if 1e-12 < node_xy(j)[0] < 1 - 1e-12
                and 1e-12 < node_xy(j)[1] < 1 - 1e-12]
    col = {j: c for c, j in enumerate(interior)}
    A_ref = np.zeros((len(interior), len(interior)))
    for e in range(2 * n_ax * n_ax):
        conn = tri_nodes(e)
        v0 = np.array(node_xy(conn[0]))
        v1 = np.array(node_xy(conn[1]))
        v2 = np.array(node_xy(conn[2]))
        area2 = abs((v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0])
        for ta, wa in zip(gp, gw):
            for tb, wb in zip(gp, gw):
                u_ref, v_ref = ta * (1 - tb), tb
                xq = v0 + u_ref * (v1 - v0) + v_ref * (v2 - v0)
                wq = wa * wb * (1 - tb) * area2
                hq = hats(xq)
                ys, ws = rule(xq)
                for y, wp in zip(ys, ws):
                    r = np.hypot(*(y - xq))
                    hy = hats(y)
                    dpsi = hy - hq
                    for i in interior:
                        if dpsi[i] == 0.0:
                            continue
                        for j in interior:
                            if dpsi[j] != 0.0:
                                A_ref[col[i], col[j]] += (dpsi[i] * gam0
                                                          * dpsi[j] * wp * wq)

    mesh = build_uniform_mesh(h, BoxDomain.unit(2, delta, delta))
    kernel = Kernel(KernelKind.CONSTANT, 2, delta)
    A = assemble_system(mesh, kernel, nbar,
                        nq_side**2).matrix.toarray()
    # reference uses the same interior ordering (lexicographic node ids)
    assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()


# ------------------------------------------------------------------ properties

def test_stiffness_symmetric():
    for dim, h in ((1, 1 / 16), (2, 1 / 4)):
        mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h, 2 * h))
        k = Kernel(KernelKind.CONSTANT, dim, 2 * h)
        A = assemble_system(mesh, k, 2, 4).matrix
        diff = (A - A.T).toarray()
        assert np.abs(diff).max() <= 1e-12 * np.abs(A.toarray()).max()


def test_stiffness_positive_definite_probe():
    mesh = _mesh_1d(1 / 16, 2)
    k = Kernel(KernelKind.RATIONAL, 1, 2 / 16)
    A = assemble_system(mesh, k, 4, 10).matrix
    rng = np.random.default_rng(7)
    n = A.shape[0]
    quad_forms = [u @ (A @ u) for u in rng.standard_normal((1000, n))]
    assert min(quad_forms) > 0


def test_stiffness_bandwidth():
    h, m = 1 / 16, 2
    mesh = _mesh_1d(h, m)
    delta = m * h
    k = Kernel(KernelKind.CONSTANT, 1, delta)
    A = assemble_system(mesh, k, 4, 10).matrix.toarray()
    xs = mesh.nodes[mesh.interior_nodes, 0]
    for i in range(len(xs)):
        for j in range(len(xs)):
            if abs(xs[i] - xs[j]) > 2 * delta + 2 * h + 1e-12:
                assert A[i, j] == 0.0


def test_quadrature_symmetry_across_mirrored_junctions():
    # mirrored-pair identity for the inner sums around an interior junction
    h = 1 / 8
    mesh = _mesh_1d(h, 1)
    delta = h
    k = Kernel(KernelKind.CONSTANT, 1, delta)
    from nlfem import full_ball_rule
    rule = full_ball_rule(k, 5)
    gp, gw = np.polynomial.legendre.leggauss(20)
    gp, gw = (gp + 1) / 2, gw / 2
    s = 0.5  # junction between two interior elements
    lhs = rhs = 0.0
    for t, w in zip(gp, gw):
        x = (s - h) + t * h  # left element
        pts = x + rule.offsets[:, 0]
        sel = (pts > s) & (pts < x + delta + 1e-15)
        lhs += w * h * np.sum((pts[sel] - s) ** 2 / delta**3 * rule.weights[sel])
        x2 = s + t * h  # right element
        pts2 = x2 + rule.offsets[:, 0]
        sel2 = (pts2 > x2 - delta - 1e-15) & (pts2 < s)
        rhs += w * h * np.sum((pts2[sel2] - s) ** 2 / delta**3 * rule.weights[sel2])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_assembly_deterministic():
    mesh = _mesh_1d(1 / 32, 2)
    k = Kernel(KernelKind.RATIONAL, 1, 2 / 32)
    case = get_case("sin1d")
    runs = []
    for _ in range(2):
        system = assemble_system(mesh, k, 5, 10,
                                 case.source, case.solution)
        runs.append((system.matrix.toarray().copy(), system.rhs.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_sparse_accumulator_symmetric_above_dense_limit():
    h, m = 1 / 4096, 2
    mesh = _mesh_1d(h, m)
    assert mesh.num_nodes > nlfem.assembly._COO_NODE_LIMIT
    k = Kernel(KernelKind.RATIONAL, 1, m * h)
    A = assemble_system(mesh, k, 1, 1).matrix
    assert abs(A - A.T).max() <= 1e-13 * abs(A).max()


def test_sparse_accumulator_matches_dense(monkeypatch):
    mesh = _mesh_1d(1 / 1024, 2, 0.0)
    k = Kernel(KernelKind.RATIONAL, 1, 2 / 1024)
    case = get_case("sin1d")

    def assemble():
        return assemble_system(mesh, k, 2, 2, case.source,
                               case.solution)

    dense = assemble()
    monkeypatch.setattr(nlfem.assembly, "_COO_NODE_LIMIT", 0)
    sparse = assemble()
    assert abs(sparse.matrix - dense.matrix).max() <= 1e-13 * abs(dense.matrix).max()
    assert np.abs(sparse.rhs - dense.rhs).max() <= 1e-13 * np.abs(dense.rhs).max()


@pytest.mark.parametrize("dim, h, n_bar, n_q, coo_limit, pair_chunk, perturbed", [
    (2, 1 / 8, 4, 16, None, None, False),
    (2, 1 / 8, 4, 16, 0, None, False),
    (1, 1 / 4096, 1, 1, None, None, False),
    (2, 1 / 8, 4, 16, None, 37, True),
    (2, 1 / 8, 4, 16, 0, 37, True),
    (1, 1 / 64, 3, 4, None, 37, False),
], ids=["dense-2d", "sparse-2d", "sparse-1d", "dense-2d-perturbed-chunk37",
        "sparse-2d-perturbed-chunk37", "dense-1d-chunk37"])
def test_scatter_matches_broadcast_oracle(monkeypatch, dim, h, n_bar, n_q, coo_limit,
                                          pair_chunk, perturbed):
    """Both chunk sums give bitwise the matrix of the broadcast-index oracle.

    "dense" ids take the product path (at most ``_COO_NODE_LIMIT`` nodes),
    "sparse" ids the expanded path, which the oracle sums as COO duplicates.
    The call count pins one sum per chunk of elements, so a loop that
    regroups the pairs fails here.
    """
    from _oracles import broadcast_pair_products

    if coo_limit is not None:
        monkeypatch.setattr(nlfem.assembly, "_COO_NODE_LIMIT", coo_limit)
    if pair_chunk is not None:
        monkeypatch.setattr(nlfem.assembly, "_PAIR_CHUNK", pair_chunk)
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h))  # extension zero: truncated balls
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, 3))
    kernel = Kernel(KernelKind.RATIONAL, dim, 2 * h)
    case = get_case("sin1d") if dim == 1 else get_case("sin2d")

    def assemble():
        return assemble_system(mesh, kernel, n_bar, n_q, case.source, case.solution)

    system = assemble()
    calls = []

    def oracle(nodes, vals, coef, n):
        calls.append(len(nodes))
        return broadcast_pair_products(nodes, vals, coef, n)

    monkeypatch.setattr(nlfem.assembly, "_pair_products", oracle)
    oracle_system = assemble()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(system.matrix, part), getattr(oracle_system.matrix, part))
    assert np.array_equal(system.rhs, oracle_system.rhs)

    n_off = full_ball_rule(kernel, n_bar).size
    chunk_elems = max(1, nlfem.assembly._PAIR_CHUNK // (n_q * n_off))
    n_box = int(mesh.element_in_box.sum())
    parts = (n_box, mesh.num_elements - n_box)
    assert len(calls) == sum(-(-k // chunk_elems) for k in parts)


# ------------------------------------------------ correctly summed reference

_SUMMED_LEVELS = {  # dim, h, inner grid, outer points, perturbed; extension zero
    "1d": (1, 1 / 16, 10, 40, False),
    "2d": (2, 1 / 8, 4, 16, False),
    "2d-perturbed": (2, 1 / 8, 4, 16, True),
    "1d-above-limit": (1, 1 / 4096, 2, 2, False),
}


def _operator_and_chunks(monkeypatch, level, mutant=None):
    """A level's full node-by-node operator and each chunk's (nodes, vals, coef).

    A ``mutant`` alters the first chunk's sum only: "scaled-chunk" scales it
    by 1 + 1e-9, "dropped-pair" leaves out its first pair.
    """
    dim, h, n_bar, n_q, perturbed = _SUMMED_LEVELS[level]
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h))  # extension zero: truncated balls
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, 3))
    pair_products = nlfem.assembly._pair_products
    chunks = []

    def capture(nodes, vals, coef, n):
        chunks.append((nodes, vals, coef))
        if mutant is None or len(chunks) > 1:
            return pair_products(nodes, vals, coef, n)
        if mutant == "dropped-pair":
            return pair_products(nodes[1:], vals[1:], coef[1:], n)
        return pair_products(nodes, vals, coef, n) * (1 + 1e-9)

    monkeypatch.setattr(nlfem.assembly, "_pair_products", capture)
    kernel = Kernel(KernelKind.RATIONAL, dim, 2 * h)
    operator = nlfem.assembly._assemble_operator(mesh, kernel, n_bar, n_q)
    return operator, chunks


def _assert_correctly_summed(operator, chunks, use_fsum=None):
    """Each entry lies within the recursive-summation bound of its correct sum.

    Adding k terms t in any order is off by at most (k - 1) (eps / 2) sum |t|
    to first order; the check allows (k - 1) eps sum |t|, which also covers
    the rounding of the reference.
    """
    from _oracles import correctly_summed_entries

    n = operator.shape[0]
    keys, ref, counts, abs_sums = correctly_summed_entries(chunks, n, use_fsum)
    coo = operator.tocoo()
    entry_keys = coo.row.astype(np.int64) * n + coo.col
    pos = np.searchsorted(keys, entry_keys)
    # every stored entry has terms
    assert np.array_equal(keys[np.minimum(pos, len(keys) - 1)], entry_keys)
    got = np.zeros(len(keys))
    got[pos] = coo.data
    err = np.abs(got - ref)
    assert np.all(err <= (counts - 1) * np.finfo(float).eps * abs_sums)
    scale = np.abs(got).max()
    assert err.max() <= 1e-13 * scale
    assert (np.abs(got) > 1e-12 * scale).sum() == (np.abs(ref) > 1e-12 * scale).sum()


@pytest.mark.parametrize("level", list(_SUMMED_LEVELS))
def test_operator_matches_correctly_summed_reference(monkeypatch, level):
    """Both chunk sums stay within roundoff bounds of the correctly summed operator."""
    operator, chunks = _operator_and_chunks(monkeypatch, level)
    if level == "1d-above-limit":
        assert operator.shape[0] > nlfem.assembly._COO_NODE_LIMIT
    _assert_correctly_summed(operator, chunks)


def test_correctly_summed_reference_by_fsum(monkeypatch):
    """The reference where ``longdouble`` is float64: exactly rounded ``math.fsum``."""
    _assert_correctly_summed(*_operator_and_chunks(monkeypatch, "1d"), use_fsum=True)


@pytest.mark.parametrize("level", ["1d", "1d-above-limit"])
@pytest.mark.parametrize("mutant", ["scaled-chunk", "dropped-pair"])
def test_correctly_summed_reference_rejects_mutants(monkeypatch, level, mutant):
    operator, chunks = _operator_and_chunks(monkeypatch, level, mutant)
    with pytest.raises(AssertionError):
        _assert_correctly_summed(operator, chunks)


class _ChunkCaptured(Exception):
    pass


_ABOVE_LIMIT_LEVELS = pytest.mark.parametrize("dim, h, n_bar, n_q", [
    (1, 1 / 4096, 4, 4),
    (2, 1 / 64, 2, 4),
], ids=["1d", "2d"])


def _above_limit_chunk(monkeypatch, dim, h, n_bar, n_q):
    """The first chunk's ``_pair_products`` arguments, with ``_PAIR_CHUNK`` at 20,000."""
    monkeypatch.setattr(nlfem.assembly, "_PAIR_CHUNK", 20_000)
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h, 2 * h))
    assert mesh.num_nodes > nlfem.assembly._COO_NODE_LIMIT
    chunk = []

    def capture(*args):
        chunk.extend(args)
        raise _ChunkCaptured

    with monkeypatch.context() as patch:
        patch.setattr(nlfem.assembly, "_pair_products", capture)
        with pytest.raises(_ChunkCaptured):
            assemble_system(mesh, Kernel(KernelKind.RATIONAL, dim, 2 * h), n_bar, n_q)
    return tuple(chunk)


@_ABOVE_LIMIT_LEVELS
def test_pair_products_memory_above_node_limit(monkeypatch, dim, h, n_bar, n_q):
    """One above-limit chunk sum peaks at 32 traced bytes per (pair, slot) entry or less.

    A chunk has pairs * 2k such entries.  Its node-major matrix holds a value
    and an int32 node per entry; the chunk sum peaks at 19.5 (1D) and 17.7
    (2D) bytes per entry, 21 with a scaled pair-major copy built beside the
    transpose.  The expansion across the 2k columns runs in row blocks of at most
    ``_PAIR_CHUNK`` values, so the bound does not grow with (2k)^2; expanding
    the whole chunk at once peaked at 69 (1D) and 93 (2D) bytes per entry.
    """
    import tracemalloc

    nodes, vals, coef, n = _above_limit_chunk(monkeypatch, dim, h, n_bar, n_q)
    tracemalloc.start()
    try:
        total = nlfem.assembly._pair_products(nodes, vals, coef, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.shape == (n, n) and total.has_canonical_format
    assert peak <= 32 * nodes.size


@_ABOVE_LIMIT_LEVELS
def test_pair_products_row_blocks_cannot_move_a_bit(monkeypatch, dim, h, n_bar, n_q):
    """Where the expanded sum's row blocks end changes no bit of the chunk sum.

    scipy sorts and sums each CSR row on its own, so every row meets the same
    terms in the same order whatever block holds it.  The budgets give one
    block per row (one term), blocks that single long rows overrun (half the
    longest row) and one block for the whole chunk, which is the unblocked sum.
    """
    nodes, vals, coef, n = _above_limit_chunk(monkeypatch, dim, h, n_bar, n_q)
    width = nodes.shape[1]
    row_terms = np.bincount(nodes.ravel(), minlength=n)
    budgets = {"one term": 1, "half a row": row_terms.max() // 2,
               "default": nlfem.assembly._PAIR_CHUNK // width, "whole chunk": nodes.size}
    assert row_terms[row_terms > 0].min() < budgets["half a row"] < budgets["default"]
    assert budgets["default"] < nodes.size
    sums = {}
    for name, budget in budgets.items():
        monkeypatch.setattr(nlfem.assembly, "_PAIR_CHUNK", budget * width)
        sums[name] = nlfem.assembly._pair_products(nodes, vals, coef, n)
    whole = sums.pop("whole chunk")
    assert whole.shape == (n, n) and whole.has_canonical_format
    for name, total in sums.items():
        assert total.has_canonical_format, name
        for part in ("data", "indices", "indptr"):
            got, want = getattr(total, part), getattr(whole, part)
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, part)


@pytest.mark.parametrize("dim, h, n_bar, n_q", [(2, 1 / 16, 4, 16), (1, 1 / 512, 10, 40)],
                         ids=["2d-baseline", "1d-ladder"])
def test_assembly_peaks_at_the_pair_matrix_and_its_transpose(dim, h, n_bar, n_q):
    """Assembly's traced peak is its floor, G and (c o G)^T, plus a 2 MB margin.

    A chunk has at most ``_PAIR_CHUNK`` pairs of 2k terms, each an int32
    node and a float64 value (12 bytes) in G and again in its node-major
    transpose.  Per pair, the coefficient and G's row pointer add 8 + 4
    bytes, and one scaling block holds ``_PAIR_CHUNK`` float64 coefficients
    and their intp indices.  The margin covers the mesh-sized arrays: the
    running operator, its rows and the load.  The levels are the baseline
    2D h=1/16 and ``ladder1d``'s h=1/512; they read 34.5 and 24.9 MB.
    Keeping a chunk's arrays alive into the next chunk and a pair-major
    copy of the scaled values beside the transpose read 47.4 and 33.1 MB.
    """
    import tracemalloc

    chunk, k = nlfem.assembly._PAIR_CHUNK, dim + 1
    floor = 2 * chunk * 2 * k * 12 + chunk * (8 + 4) + chunk * (8 + 8)
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h, 2 * h))
    case = get_case("sin1d") if dim == 1 else get_case("sin2d")
    kernel = Kernel(KernelKind.RATIONAL, dim, 2 * h)
    tracemalloc.start()
    try:
        assemble_system(mesh, kernel, n_bar, n_q, case.source, case.solution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= floor + 2e6


# ------------------------------------------------------------------ rhs pieces

def test_rhs_zero_boundary_is_body_term_only():
    mesh = _mesh_1d(1 / 8, 1)
    k = Kernel(KernelKind.CONSTANT, 1, 1 / 8)
    case = get_case("sin1d")
    zero = lambda p: np.zeros(p.shape[0])
    f = assemble_system(mesh, k, 2, 8,
                        case.source, zero).rhs
    # pure body load: integral of basis * source, independently via fine Gauss
    gp, gw = np.polynomial.legendre.leggauss(40)
    gp, gw = (gp + 1) / 2, gw / 2
    xs = mesh.nodes[:, 0]
    h = 1 / 8
    for row, node in enumerate(mesh.interior_nodes):
        ref = 0.0
        for e in np.flatnonzero(mesh.element_in_box):
            a, b = xs[mesh.elements[e]]
            for t, w in zip(gp, gw):
                x = a + t * (b - a)
                hat = max(0.0, 1.0 - abs(x - xs[node]) / h)
                ref += hat * case.source(np.array([[x]]))[0] * w * (b - a)
        assert f[row] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_rhs_linear_boundary_matches_coupling_identity():
    mesh = _mesh_1d(1 / 16, 2)
    k = Kernel(KernelKind.CONSTANT, 1, 2 / 16)
    case = get_case("linear1d")
    system = assemble_system(mesh, k, 4, 10,
                             case.source, case.solution)
    u_lin = mesh.nodes[mesh.interior_nodes, 0]
    residual = system.matrix @ u_lin - system.rhs
    assert np.abs(residual).max() <= 1e-10


_LOAD_LEVELS = {"1d": (1, 1 / 32, False), "2d": (2, 1 / 8, False), "2d-perturbed": (2, 1 / 8, True)}


def _load_level(level):
    """Mesh (extension zero, m = 2, perturbation seed 1), kernel and sin case of a level."""
    dim, h, perturbed = _LOAD_LEVELS[level]
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h))
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, seed=1))
    return mesh, Kernel(KernelKind.RATIONAL, dim, 2 * h), get_case(f"sin{dim}d")


@pytest.mark.parametrize("with_boundary", [False, True], ids=["no-boundary", "boundary"])
@pytest.mark.parametrize("with_source", [False, True], ids=["no-source", "source"])
@pytest.mark.parametrize("level", list(_LOAD_LEVELS))
def test_rhs_has_the_bits_of_the_coupling_form(level, with_source, with_boundary):
    """The node-space load b_I - A_{I,:} g equals the dof-space body load minus
    the sorted coupling block times the layer values, byte for byte: signed
    zeros count, so the calls without source or boundary are checked too."""
    from _oracles import coupling_form_load

    mesh, kernel, case = _load_level(level)
    source = case.source if with_source else None
    boundary = case.solution if with_boundary else None
    rhs = assemble_system(mesh, kernel, 2, 4, source, boundary).rhs
    want = coupling_form_load(mesh, kernel, 2, 4, source, boundary)
    assert rhs.dtype == want.dtype and rhs.tobytes() == want.tobytes()


@pytest.mark.parametrize("level", list(_LOAD_LEVELS))
def test_matrix_rows_store_ascending_columns(level):
    """The solve's bits depend on storage order: ``_stencil_symbol`` sums the
    centre row's data in it, and each CSR matvec sums a row in it.  Every row
    of the matrix stores its columns strictly ascending."""
    mesh, kernel, case = _load_level(level)
    a = assemble_system(mesh, kernel, 2, 4, case.source, case.solution).matrix
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert np.all(np.diff(row_of * a.shape[1] + a.indices) > 0)
    assert a.has_canonical_format


@pytest.mark.parametrize("extension_ratio", [0.0, 1.0])
@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_constant_field_in_operator_kernel(dim, perturbed, extension_ratio):
    # hat differences of a constant vanish, so the full node-by-node operator
    # maps ones to zero: interior block times ones equals minus the coupling
    h = 1 / 16 if dim == 1 else 1 / 8
    delta = 2 * h
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, delta, extension_ratio * delta))
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, seed=1))
    k = Kernel(KernelKind.RATIONAL, dim, delta)
    system = assemble_system(mesh, k, 2, 2 if dim == 1 else 4,
                             boundary=lambda p: np.ones(len(p)))
    defect = system.matrix @ np.ones(mesh.num_interior) - system.rhs
    assert np.abs(defect).max() <= 1e-12 * abs(system.matrix).max()


# ----------------------------------------------------------------- solve/field

def test_solver_residual_contract():
    mesh = _mesh_1d(1 / 32, 2)
    k = Kernel(KernelKind.RATIONAL, 1, 2 / 32)
    case = get_case("sin1d")
    system = assemble_system(mesh, k, 5, 10,
                             case.source, case.solution)
    u = solve_system(system)
    res = np.linalg.norm(system.matrix @ u - system.rhs) / np.linalg.norm(system.rhs)
    assert res <= 1e-12


@pytest.mark.parametrize("perturbation, extension_ratio", [
    (None, 1.0), (PerturbationSpec(0.1, seed=3), 0.0),
], ids=["uniform", "perturbed"])
def test_solver_contract_2d(perturbation, extension_ratio):
    h, m = 1 / 16, 2
    mesh = build_uniform_mesh(h, BoxDomain.unit(2, m * h, extension_ratio * m * h))
    if perturbation is not None:
        mesh = perturb_mesh(mesh, perturbation)
    k = Kernel(KernelKind.RATIONAL, 2, m * h)
    case = get_case("sin2d")
    system = assemble_system(mesh, k, 4, 16,
                             case.source, case.solution)
    u = solve_system(system)
    res = np.linalg.norm(system.matrix @ u - system.rhs) / np.linalg.norm(system.rhs)
    assert res <= 1e-12
    # same solution as SuperLU under its default column ordering
    reference = scipy.sparse.linalg.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.linalg.norm(u - reference) <= 1e-10 * np.linalg.norm(reference)


def _system_with_spoiled_solve(monkeypatch, spoil):
    """The 1D h=1/64 system, with ``spoil`` applied to every PCG solve's answer."""
    mesh = _mesh_1d(1 / 64, 2)
    k = Kernel(KernelKind.RATIONAL, 1, 2 / 64)
    case = get_case("sin1d")
    system = assemble_system(mesh, k, 5, 10,
                             case.source, case.solution)
    pcg = nlfem.assembly._pcg

    def spoiled(*args):
        u, iterations = pcg(*args)
        return spoil(u), iterations

    monkeypatch.setattr(nlfem.assembly, "_pcg", spoiled)
    return system


@pytest.mark.parametrize("spoil, message", [
    (lambda u: u * (1 + 1e-6), r"relative residual=1\.000e-06"),
    # just above the 1e-12 contract, so a looser threshold lets it through; the
    # solve's own residual (7.7e-15 here) moves the fourth digit by about 1
    (lambda u: u * (1 + 2e-12), r"relative residual=(1\.99|2\.00)\de-12"),
    (lambda u: np.full_like(u, np.nan), "linear solve failed"),
])
def test_solver_contract_miss_raises(monkeypatch, spoil, message):
    system = _system_with_spoiled_solve(monkeypatch, spoil)
    with pytest.raises(SolverError, match=message):
        solve_system(system)


def test_solver_contract_met_returns(monkeypatch):
    # a relative spoil of 5e-13 stays inside the 1e-12 contract
    system = _system_with_spoiled_solve(monkeypatch, lambda u: u * (1 + 5e-13))
    u = solve_system(system)
    res = np.linalg.norm(system.matrix @ u - system.rhs) / np.linalg.norm(system.rhs)
    assert 4e-13 < res <= 1e-12


def _system_2d(h):
    """The 2D sin2d system at baseline settings: uniform mesh, m=2, extension delta."""
    mesh = build_uniform_mesh(h, BoxDomain.unit(2, 2 * h, 2 * h))
    case = get_case("sin2d")
    return assemble_system(mesh, Kernel(KernelKind.RATIONAL, 2, 2 * h), 4, 16,
                           case.source, case.solution)


def test_solve_refuses_a_stencil_symbol_that_is_not_positive():
    system = _system_2d(1 / 8)
    system.matrix = -system.matrix
    n = round(system.matrix.shape[0] ** 0.5)
    lowest = nlfem.assembly._stencil_symbol(system.matrix, (n, n)).min()
    assert lowest < 0
    with pytest.raises(SolverError, match=re.escape(f"not positive: min {lowest:.3e}")):
        solve_system(system)


def _box_system(hi, perturbation=None):
    """sin2d at h=1/16, m=2 on the box [0, hi[0]] x [0, hi[1]] (sin1d on [0, hi[0]]
    in 1D): the baseline settings on a uniform mesh, extension zero on a perturbed one."""
    h, dim = 1 / 16, len(hi)
    mesh = build_uniform_mesh(h, BoxDomain(dim, (0.0,) * dim, hi, 2 * h,
                                           0.0 if perturbation else 2 * h))
    if perturbation is not None:
        mesh = perturb_mesh(mesh, perturbation)
    case = get_case("sin1d" if dim == 1 else "sin2d")
    return assemble_system(mesh, Kernel(KernelKind.RATIONAL, dim, 2 * h), 4,
                           10 if dim == 1 else 16, case.source, case.solution)


@pytest.mark.parametrize("hi, perturbation", [
    ((1.0,), None), ((1.0, 1.0), None), ((1.0, 0.5), None),
    ((0.5, 1.0), PerturbationSpec(0.3, seed=4)),
], ids=["1d", "square", "wide", "tall-perturbed"])
def test_stencil_symbol_matches_the_index_array_form(hi, perturbation):
    from _oracles import indexed_stencil_symbol

    system = _box_system(hi, perturbation)
    shape, expected = indexed_stencil_symbol(system.matrix, system.mesh)
    assert shape == tuple(round(16 * x) - 1 for x in hi)
    assert nlfem.assembly._stencil_symbol(system.matrix, shape).tobytes() == expected.tobytes()


@pytest.mark.parametrize("hi, perturbation", [
    ((1.0, 0.5), None), ((0.5, 1.0), PerturbationSpec(0.3, seed=4)),
], ids=["wide", "tall-perturbed"])
def test_solver_contract_on_a_rectangle(hi, perturbation):
    system = _box_system(hi, perturbation)
    u = solve_system(system)
    res = np.linalg.norm(system.matrix @ u - system.rhs) / np.linalg.norm(system.rhs)
    assert res <= 1e-12
    reference = scipy.sparse.linalg.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.linalg.norm(u - reference) <= 1e-10 * np.linalg.norm(reference)


def test_pcg_inverts_a_constant_stencil_on_a_non_square_lattice():
    """The DST-I diagonalises a 5-point stencil with Dirichlet ends exactly, so
    on the x-fastest 5 x 3 lattice one preconditioned step solves it; with
    its axes read the wrong way round the preconditioner is not the inverse."""
    nx, ny = 5, 3
    second = [scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) for n in (nx, ny)]
    a = (scipy.sparse.kron(scipy.sparse.eye(ny), 4.0 * second[0])
         + scipy.sparse.kron(second[1], scipy.sparse.eye(nx))).tocsr()
    a.sort_indices()
    f = np.sin(np.arange(1.0, nx * ny + 1))
    u, iterations = nlfem.assembly._pcg(a, f, (nx, ny))
    assert iterations == 1
    assert np.linalg.norm(a @ u - f) <= 1e-13 * np.linalg.norm(f)


def test_solve_refuses_at_the_iteration_cap(monkeypatch):
    system = _system_2d(1 / 16)
    monkeypatch.setattr(nlfem.assembly, "_CG_MAX_ITERATIONS", 1)
    with pytest.raises(SolverError, match="did not converge in 1 iterations"):
        solve_system(system)


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_solve_iterations_stay_flat_under_refinement(monkeypatch, h):
    """The stencil preconditioner leaves the count independent of h: 3-19
    iterations on every config level, 26 on the benchmark's h=1/128 level."""
    counts = []
    pcg = nlfem.assembly._pcg

    def counted(*args):
        u, iterations = pcg(*args)
        counts.append(iterations)
        return u, iterations

    monkeypatch.setattr(nlfem.assembly, "_pcg", counted)
    solve_system(_system_2d(h))
    assert len(counts) == 1 and 0 < counts[0] <= 40


def test_solution_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """16,129 unknowns: BLAS dots in the solve split across threads at this
    size and give other bits with 2 threads; at h=1/16 they do not."""
    config = tmp_path / "perturbed.json"
    config.write_text(json.dumps({
        "dimension": 2, "kernel": "rational", "case": "sin2d", "m": 2, "h": [0.0078125],
        "extension": "zero", "outer_points": 1, "points_per_radius": 2,
        "mesh": "perturbed", "epsilon": 0.1, "seed": 3}))
    src = str(Path(nlfem.assembly.__file__).resolve().parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "nlfem.cli", "run", "--config", str(config),
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=300)
        written.append((out / "solution_h0.0078125.csv").read_bytes())
    assert written[0] == written[1]


def test_solve_smallest_grid():
    mesh = _mesh_1d(0.5, 1)
    k = Kernel(KernelKind.CONSTANT, 1, 0.5)
    case = get_case("sin1d")
    system = assemble_system(mesh, k, 2, 8,
                             case.source, case.solution)
    assert system.matrix.shape == (1, 1)
    u = solve_system(system)
    assert u[0] == pytest.approx(system.rhs[0] / system.matrix[0, 0])


def test_solve_without_unknowns():
    mesh = _mesh_1d(1.0, 1)  # one box cell: both of its nodes lie on the box boundary
    k = Kernel(KernelKind.CONSTANT, 1, 1.0)
    system = assemble_system(mesh, k, 2, 2)
    assert system.matrix.shape == (0, 0)
    assert solve_system(system).shape == (0,)


def test_reconstruct_nodal_and_midpoint_values():
    mesh = _mesh_1d(0.25, 1)
    vals = np.arange(mesh.num_interior, dtype=float) + 1.0
    g = lambda p: 10.0 + p[:, 0]
    u_nodes = reconstruct(mesh, vals, g)
    assert isinstance(u_nodes, np.ndarray) and u_nodes.shape == (mesh.num_nodes,)
    assert np.array_equal(u_nodes[mesh.interior_nodes], vals)
    constraint = mesh.constraint_nodes
    assert np.array_equal(u_nodes[constraint], 10.0 + mesh.nodes[constraint, 0])
    # midpoint of an element: its barycentrics average the endpoint values
    e = mesh.num_elements // 2
    a, b = mesh.nodes[mesh.elements[e], 0]
    elem, bary, _, _ = locate_points(mesh, [[(a + b) / 2]], np.zeros((1, 1)))
    assert elem.tolist() == [e]
    va, vb = u_nodes[mesh.elements[e]]
    assert bary[0] @ u_nodes[mesh.elements[e]] == pytest.approx((va + vb) / 2)


@pytest.mark.parametrize("values, shape", [([5.0], "(1,)"), (np.ones(4), "(4,)")],
                         ids=["one-value", "wrong-length"])
def test_reconstruct_rejects_values_not_one_per_unknown(values, shape):
    """One value is not broadcast over every unknown, and a wrong length is an
    nlfem error, not numpy's."""
    mesh = _mesh_1d(0.25, 1)
    assert mesh.num_interior == 3
    with pytest.raises(ConfigError, match=re.escape(f"interior values of shape {shape} for 3 unknowns")):
        reconstruct(mesh, values)


@pytest.mark.parametrize("call, message", [
    (lambda mesh: reconstruct(mesh, np.zeros(3), lambda p: 2.0),
     "boundary gave values of shape () for 4 points"),
    (lambda mesh: assemble_system(mesh, Kernel(KernelKind.CONSTANT, 1, 0.25), 2, 2,
                                  boundary=lambda p: 2.0),
     "boundary gave values of shape () for 4 points"),
    (lambda mesh: assemble_system(mesh, Kernel(KernelKind.CONSTANT, 1, 0.25), 2, 2,
                                  source=lambda p: 1.0),
     "source gave values of shape () for 8 points"),
    (lambda mesh: assemble_system(mesh, Kernel(KernelKind.CONSTANT, 1, 0.25), 2, 2,
                                  boundary=lambda p: np.zeros(len(p) + 1)),
     "boundary gave values of shape (5,) for 4 points"),
], ids=["reconstruct-scalar", "boundary-scalar", "source-scalar", "boundary-wrong-length"])
def test_library_callables_give_one_value_per_point(call, message):
    """A scalar is not broadcast over the layer, and neither it nor a wrong
    count reaches numpy's own errors."""
    mesh = _mesh_1d(0.25, 1)
    assert (mesh.num_interior, len(mesh.constraint_nodes)) == (3, 4)
    with pytest.raises(ConfigError, match=re.escape(message)):
        call(mesh)


def test_element_gradients_2d():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    lin = lambda p: 2.0 * p[:, 0] - 3.0 * p[:, 1] + 1.0
    u_nodes = reconstruct(mesh, lin(mesh.nodes[mesh.interior_nodes]), lin)
    grads = _element_gradients(mesh, u_nodes, np.arange(mesh.num_elements))
    assert np.allclose(grads[:, 0], 2.0) and np.allclose(grads[:, 1], -3.0)


def test_dimension_mismatch_rejected():
    mesh = _mesh_1d(0.25, 1)
    k = Kernel(KernelKind.CONSTANT, 2, 0.25)
    with pytest.raises(AssemblyError, match="kernel / mesh dimensions do not match"):
        assemble_system(mesh, k, 2, 4)


@pytest.mark.parametrize("offsets, message", [
    ([[-0.375], [0.375]], "box ball left the meshed region"),
    # box balls stay inside; layer balls left of x = -0.05 lose their one point
    ([[-0.2]], "retained no quadrature points"),
])
def test_assembly_rejects_balls_that_leave_the_mesh(monkeypatch, offsets, message):
    offsets = np.array(offsets)
    rule = nlfem.assembly.InnerQuadratureRule(offsets, np.ones(len(offsets)), np.ones(len(offsets)),
                                              np.ones((1, len(offsets))), 0.0)
    monkeypatch.setattr(nlfem.assembly, "full_ball_rule", lambda *args: rule)
    mesh = _mesh_1d(0.125, 2, 0.0)
    k = Kernel(KernelKind.CONSTANT, 1, 0.25)
    with pytest.raises(AssemblyError, match=message):
        assemble_system(mesh, k, 2, 2)


@pytest.mark.parametrize("perturbed", [False, True])
def test_only_clipped_extension_masks_solve(monkeypatch, perturbed):
    """Extension delta on a uniform mesh clips no ball's extension mask, so every
    chunk takes the full-ball row and the one cache miss is the full-ball solve;
    extension zero on a perturbed mesh solves its clipped masks."""
    delta = 1 / 4
    mesh = build_uniform_mesh(1 / 8, BoxDomain.unit(2, delta, 0.0 if perturbed else delta))
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, 3))
    weights, all_kept = nlfem.assembly.truncated_weights, []

    def record(full, in_ext):
        out = weights(full, in_ext)
        if in_ext.all():
            all_kept.append((out, full))
        return out

    monkeypatch.setattr(nlfem.assembly, "truncated_weights", record)
    nlfem.assembly._assemble_operator(mesh, Kernel(KernelKind.RATIONAL, 2, delta),
                                      4, 16)
    misses = default_cache().misses
    assert misses > 1 if perturbed else misses == 1
    assert all_kept  # the box chunk, and with extension delta every chunk
    for out, full in all_kept:
        assert out.shape == (1, full.size) and out.tobytes() == full.weights.tobytes()


def test_assembly_solves_each_rule_and_mask_once_per_process(monkeypatch):
    """Assembly looks every rule up in ``default_cache()``: the first assembly of
    a perturbed level misses once for the full rule and once per distinct
    clipped mask, and a second assembly of the same level only hits.  A masked
    solve looks up nothing else, so the lookups are one for the full rule and
    one per distinct mask of each chunk."""
    mesh = perturb_mesh(build_uniform_mesh(1 / 8, BoxDomain.unit(2, 1 / 4)),
                        PerturbationSpec(0.1, 3))  # extension zero: clipped masks
    kernel = Kernel(KernelKind.RATIONAL, 2, 1 / 4)
    weights, chunk_masks = nlfem.assembly.truncated_weights, []

    def record(full, in_ext):
        if not in_ext.all():  # a chunk that keeps every point looks up no mask
            chunk_masks.append({row.tobytes() for row in in_ext})
        return weights(full, in_ext)

    monkeypatch.setattr(nlfem.assembly, "truncated_weights", record)
    cache = default_cache()
    first = assemble_system(mesh, kernel, 4, 16)
    n_masks = len(set().union(*chunk_masks))
    assert n_masks > 1 and cache.misses == 1 + n_masks
    assert cache.hits + cache.misses == 1 + sum(map(len, chunk_masks))
    hits = cache.hits
    chunk_masks.clear()
    second = assemble_system(mesh, kernel, 4, 16)
    assert cache.misses == 1 + n_masks
    assert cache.hits == hits + 1 + sum(map(len, chunk_masks))
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(first.matrix, part), getattr(second.matrix, part))


# ---------------------------------------------------------------------- output

@pytest.mark.parametrize("dim, perturbed", [(1, False), (2, True)])
def test_solution_csv_has_the_bytes_of_a_row_loop(tmp_path, dim, perturbed):
    """The bulk writer gives the bytes of one ``repr``-formatted row per node,
    for a negative zero, a subnormal, a huge and an integral value too."""
    from _oracles import looped_solution_csv

    mesh = build_uniform_mesh(1 / 8, BoxDomain.unit(dim, 1 / 4))
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.3, 7))
    values = np.random.default_rng(1).normal(size=mesh.num_nodes)
    values[:4] = [-0.0, 5e-324, 1e300, 3.0]
    nlfem.assembly.dump_solution_csv(mesh, values, tmp_path / "bulk.csv")
    looped_solution_csv(mesh, values, tmp_path / "loop.csv")
    written = (tmp_path / "bulk.csv").read_bytes()
    assert written == (tmp_path / "loop.csv").read_bytes()
    assert b",-0.0\n1," in written and b",5e-324\n" in written
    assert b",1e+300\n" in written and b",3.0\n" in written


def test_sparse_linalg_is_imported_on_first_read(monkeypatch):
    # the tracer's restore binds the name, and a bound name never reaches __getattr__
    monkeypatch.delitem(vars(nlfem.assembly), "sparse_linalg", raising=False)
    assert nlfem.assembly.sparse_linalg is scipy.sparse.linalg
    with pytest.raises(AttributeError, match="module 'nlfem.assembly' has no attribute 'cg'"):
        nlfem.assembly.cg
