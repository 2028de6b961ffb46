"""The shared element geometry gives bitwise what each dimension's own formulas gave.

``geometry._mesh_from_breaks`` builds 1D and 2D meshes from one table of
cell simplices, and ``locate_points`` numbers elements from the same table.
``Mesh.affine_maps`` writes the affine map of the reference simplex and its
Jacobian determinant once for 1D and 2D; ``locate_points`` builds the 2D
barycentrics column by column, and ``convergence._element_gradients`` the
element gradients from the same affine maps.  The oracles in ``_oracles.py`` keep the
earlier per-dimension and masked forms.  ``locate_points`` (its one form
takes points and offsets) is checked against the masked oracle on the same
sums, and its two masks against a brute-force range test.  ``outer_rules``
stores its points axis-major, so their flat (n, d) form is a view with
contiguous columns.
"""

import math

import numpy as np
import pytest

from _oracles import (forked_element_gradients, forked_element_measures,
                      forked_mesh_from_breaks, forked_outer_rules, masked_locate_points)
from nlfem import (BallNorm, BoxDomain, Kernel, KernelKind, MeshError, PerturbationSpec,
                   build_uniform_mesh, locate_points, outer_rules, perturb_mesh)
from nlfem.convergence import _element_gradients
from nlfem.geometry import cell_counts
from nlfem.quadrature import _ball_grid

MESHES = pytest.mark.parametrize("dim, perturbed", [(1, False), (1, True), (2, False), (2, True)])


def _square_grid(points_per_radius, dim):
    """Every (2n)^d offset of the grid over a ball of radius 0.25: the max-norm
    ball is the grid's square."""
    return _ball_grid(Kernel(KernelKind.CONSTANT, dim, 0.25, BallNorm.MAX), points_per_radius)


def _mesh(dim, perturbed):
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(dim, 0.25))
    return perturb_mesh(mesh, PerturbationSpec(0.3, seed=5)) if perturbed else mesh


def _probe_points(mesh):
    """Random points, every grid vertex (interior breakpoints and both layer
    ends), points on every grid line, and in 2D points on each diagonal."""
    rng = np.random.default_rng(3)
    breaks = mesh.axis_breaks
    random = rng.uniform([b[0] for b in breaks], [b[-1] for b in breaks], size=(400, mesh.dim))
    vertices = np.stack([g.ravel() for g in np.meshgrid(*breaks, indexing="ij")], axis=1)
    probes = [random, vertices]
    for k, b in enumerate(breaks):
        on_lines = random.copy()
        on_lines[:, k] = rng.choice(b, len(random))
        probes.append(on_lines)
    if mesh.dim == 2:
        bx, by = breaks
        i, j, t = np.meshgrid(np.arange(len(bx) - 1), np.arange(len(by) - 1),
                              [0.25, 0.5, 0.75], indexing="ij")
        probes.append(np.stack([bx[i] + t * (bx[i + 1] - bx[i]),
                                by[j] + t * (by[j + 1] - by[j])], axis=-1).reshape(-1, 2))
    return np.concatenate(probes)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("h, m", [(0.5, 1), (0.25, 1), (0.25, 3), (0.125, 2),
                                  (0.0625, 1), (1 / 32, 4)])
@pytest.mark.parametrize("extension", [0.0, 1.0])
@pytest.mark.parametrize("seed", [None, 0, 7])
def test_mesh_builder_equals_forked_oracle(dim, h, m, extension, seed):
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, m * h, extension * m * h))
    if seed is not None:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.3, seed))
    _, inner = cell_counts(h, mesh.domain)
    ref = forked_mesh_from_breaks(mesh.domain, mesh.axis_breaks, m, inner, h, mesh.is_uniform)
    for name in ("nodes", "elements", "element_in_box", "node_is_interior"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert _same_bits(got, want) and got.flags.c_contiguous, name


@MESHES
def test_centroids_locate_to_their_own_element(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    elem, bary, _, _ = locate_points(mesh, centroids, np.zeros((1, dim)))
    assert np.array_equal(elem, np.arange(mesh.num_elements))
    assert np.all(bary > 0.0)


@MESHES
def test_locate_points_equals_masked_oracle(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    pts = _probe_points(mesh)
    elem, bary, _, _ = locate_points(mesh, pts, np.zeros((1, dim)))
    ref_elem, ref_bary = masked_locate_points(mesh, pts)
    assert np.array_equal(elem, ref_elem)
    assert np.array_equal(bary, ref_bary)
    if dim == 2:
        # the probes hold exact ties xi == eta inside diagonals (lower triangles)
        lower = ref_elem % 2 == 0
        ties = lower & (ref_bary[:, 1] == 0.0) & (ref_bary[:, 0] > 0.0) & (ref_bary[:, 2] > 0.0)
        assert ties.sum() >= 20


def _same_bits(a, b):
    """Equal arrays down to the sign of each zero."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@MESHES
def test_locate_points_offsets_form_equals_plain_form(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    pts = _probe_points(mesh)
    # probes in the box, so every offset below keeps them in the mesh
    centers = pts[np.all((pts >= 0.0) & (pts <= 1.0), axis=1)]
    # a ball grid (each coordinate repeated across its rows), zero, and whole
    # multiples of the spacing, which carry vertices onto vertices, points on
    # grid lines onto grid lines and diagonal points along diagonals
    steps = np.meshgrid(*[0.125 * np.arange(-2, 3)] * dim, indexing="ij")
    offsets = np.concatenate([_square_grid(3, dim),
                              np.stack([g.ravel() for g in steps], axis=1)])
    elem, bary, in_mesh, in_ext = locate_points(mesh, centers, offsets)
    assert in_mesh.all() and in_ext.all()
    # reference: the sums located one by one by the masked oracle
    ref_elem, ref_bary = masked_locate_points(mesh, (centers[:, None] + offsets).reshape(-1, dim))
    assert _same_bits(elem, ref_elem) and _same_bits(bary, ref_bary)
    on_breaks = sum(np.isin(bary[:, k], [0.0, 1.0]).sum() for k in range(dim + 1))
    assert on_breaks >= 100
    if dim == 2 and not perturbed:
        ties = (elem % 2 == 0) & (bary[:, 1] == 0.0) & (bary[:, 0] > 0.0) & (bary[:, 2] > 0.0)
        assert ties.sum() >= 100


def test_locate_points_offsets_form_keeps_signed_zeros():
    # the mesh starts at 0.0, so -0.0 + -0.0 and -0.0 + 0.0 give barycentrics
    # that differ only in the sign of a zero
    mesh = build_uniform_mesh(0.25, BoxDomain(1, (0.25,), (1.25,), 0.25))
    assert mesh.axis_breaks[0][0] == 0.0
    centers = np.array([[-0.0], [0.5]])
    offsets = np.array([[0.0], [-0.0], [0.25]])
    elem, bary, _, _ = locate_points(mesh, centers, offsets)
    ref_elem, ref_bary = masked_locate_points(mesh, (centers[:, None] + offsets).reshape(-1, 1))
    assert np.signbit(bary[:2, 1]).tolist() == [False, True]
    assert _same_bits(elem, ref_elem) and _same_bits(bary, ref_bary)


def test_locate_points_keeps_signed_zeros_on_the_2d_diagonal():
    # the mesh starts at (0, 0), so -0.0 + -0.0 on both axes gives xi = eta = -0.0,
    # a tie on the diagonal whose third barycentric is -0.0
    mesh = build_uniform_mesh(0.25, BoxDomain(2, (0.25, 0.25), (1.25, 1.25), 0.25))
    centers = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.5, 0.5]])
    offsets = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [0.25, 0.25]])
    sums = (centers[:, None] + offsets).reshape(-1, 2)
    ref_elem, ref_bary = masked_locate_points(mesh, sums)
    assert np.signbit(ref_bary[:, 2]).sum() >= 4
    for out in (None, np.empty((len(sums), 6))[:, 3:]):
        elem, bary, _, _ = locate_points(mesh, centers, offsets, out=out)
        assert _same_bits(elem, ref_elem) and _same_bits(bary, ref_bary)


@MESHES
@pytest.mark.parametrize("masked", [False, True], ids=["box", "masked"])
def test_locate_points_into_a_strided_buffer_equals_the_fresh_call(dim, perturbed, masked):
    """``out``'s leading rows get bitwise the barycentrics of the call without
    it, and ``bary`` is a view of them; elements, masks, the rows past them
    and the other columns of the buffer's array are left as they were.

    Box calls keep every sum in the mesh; masked calls (extension zero)
    take probes over the whole mesh, so balls leave it.  The probes hold
    grid vertices, grid-line points and diagonal ties, and the whole-spacing
    offsets carry them onto each other.
    """
    mesh = _mesh(dim, perturbed)
    centers = _probe_points(mesh)
    if not masked:
        centers = centers[np.all((centers >= 0.0) & (centers <= 1.0), axis=1)]
    steps = np.meshgrid(*[0.125 * np.arange(-2, 3)] * dim, indexing="ij")
    offsets = np.concatenate([_square_grid(3, dim),
                              np.stack([g.ravel() for g in steps], axis=1)])
    want = locate_points(mesh, centers, offsets)
    assert want[2].all() != masked
    k = dim + 1
    whole = np.full((len(centers) * len(offsets) + 3, 2 * k), np.nan)
    buf = whole[:, k:]
    got = locate_points(mesh, centers, offsets, out=buf)
    for a, b in zip(got, want):
        assert _same_bits(a, b)
    elem, bary = got[:2]
    assert bary.strides == buf.strides
    assert bary.__array_interface__["data"][0] == buf.__array_interface__["data"][0]
    assert np.isnan(whole[:, :k]).all() and np.isnan(buf[len(elem):]).all()


@pytest.mark.parametrize("centers, offsets, first", [
    ([[0.5], [1.2], [1.2]], [[-0.1], [0.1], [0.2]], [1.2 + 0.1]),
    # the first outside pair leaves along y; a later one along x only
    ([[0.5, 0.5], [0.5, 1.2], [1.2, 0.5]], [[-0.1, -0.1], [0.1, 0.1]], [0.6, 1.3]),
    ([[0.5, 0.5]], [[0.0, 0.0], [-0.8, 0.0], [0.0, 0.8]], [-0.3, 0.5]),
])
def test_locate_points_offsets_form_names_first_outside_point(centers, offsets, first):
    dim = len(first)
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(dim, 0.25))
    centers, offsets = np.array(centers), np.array(offsets)
    sums = (centers[:, None] + offsets).reshape(-1, dim)
    elem, bary, in_mesh, _ = locate_points(mesh, centers, offsets)
    assert sums[np.flatnonzero(~in_mesh.ravel())[0]].tolist() == pytest.approx(first)
    # no point raises: each pair's entry is the one of its sum located alone
    for point, kept in zip(sums, in_mesh.ravel()):
        assert locate_points(mesh, [point], np.zeros((1, dim)))[2].tolist() == [[kept]]
    ref_elem, ref_bary = masked_locate_points(mesh, sums[in_mesh.ravel()])
    assert _same_bits(elem, ref_elem) and _same_bits(bary, ref_bary)


@pytest.mark.parametrize("dim, with_offsets", [(1, False), (2, False), (2, True)])
def test_locate_points_rejects_nan(dim, with_offsets):
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(dim, 0.25))
    centers = np.full((3, dim), 0.5)
    centers[1, -1] = np.nan
    offsets = _square_grid(2, dim) if with_offsets else np.zeros((1, dim))
    elem, bary, in_mesh, in_ext = locate_points(mesh, centers, offsets)
    expected = np.repeat([[True], [False], [True]], len(offsets), axis=1)
    assert np.array_equal(in_mesh, expected) and np.array_equal(in_ext, expected)
    assert len(elem) == 2 * len(offsets) and np.isfinite(bary).all()


@MESHES
@pytest.mark.parametrize("extension", [0.0, 0.125])
def test_locate_points_masks_equal_brute_force(dim, perturbed, extension):
    domain = BoxDomain.unit(dim, 0.25, extension)
    mesh = build_uniform_mesh(0.125, domain)
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.3, seed=5))
    centers = _probe_points(mesh)
    # whole spacings carry the layer-end vertices onto the mesh ends and the
    # extended ends exactly
    steps = np.meshgrid(*[0.125 * np.arange(-3, 4)] * dim, indexing="ij")
    offsets = np.concatenate([_square_grid(3, dim),
                              np.stack([g.ravel() for g in steps], axis=1)])
    elem, bary, in_mesh, in_ext = locate_points(mesh, centers, offsets)
    sums = centers[:, None] + offsets
    for mask, pad in ((in_mesh, 0.25), (in_ext, 0.25 + extension)):
        lo, hi = domain.layer_lo(pad), domain.layer_hi(pad)
        assert np.array_equal(mask, np.all((sums >= lo) & (sums <= hi), -1))
        assert (sums == lo).any() and (sums == hi).any()
        assert not mask.all()
    assert not (in_mesh & ~in_ext).any()
    ref_elem, ref_bary = masked_locate_points(mesh, sums[in_mesh])
    assert _same_bits(elem, ref_elem) and _same_bits(bary, ref_bary)


def test_locate_points_rejects_offsets_of_another_dimension():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(2, 0.25))
    with pytest.raises(MeshError, match=r"shape \(3,\).*2D"):
        locate_points(mesh, [[0.5, 0.5]], np.zeros(3))


@MESHES
def test_element_measures_equal_forked_oracle(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    measures = mesh.affine_maps()[2] / math.factorial(dim)
    assert np.array_equal(measures, forked_element_measures(mesh))


@MESHES
@pytest.mark.parametrize("n_q", [1, 4, 16])
def test_outer_rules_equal_forked_oracle(dim, perturbed, n_q):
    mesh = _mesh(dim, perturbed)
    for ids in (np.arange(mesh.num_elements), np.flatnonzero(mesh.element_in_box)[::3]):
        for got, ref in zip(outer_rules(mesh, ids, n_q), forked_outer_rules(mesh, ids, n_q)):
            assert np.array_equal(got, ref)


@MESHES
def test_element_gradients_equal_forked_oracle(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    node_values = np.random.default_rng(4).standard_normal(mesh.num_nodes)
    ref = forked_element_gradients(mesh, node_values)
    for ids in (np.arange(mesh.num_elements), np.flatnonzero(mesh.element_in_box)[::3]):
        assert np.array_equal(_element_gradients(mesh, node_values, ids), ref[ids])


@pytest.mark.parametrize("dim", [1, 2])
def test_outer_rules_points_are_axis_major(dim):
    mesh = _mesh(dim, perturbed=True)
    pts, _, _ = outer_rules(mesh, np.flatnonzero(mesh.element_in_box), 4)
    flat = pts.reshape(-1, dim)
    assert np.shares_memory(flat, pts)
    for k in range(dim):
        assert flat[:, k].flags.c_contiguous
