import hashlib
import math

import numpy as np
import pytest

from _oracles import forked_element_measures
from nlfem import (BoxDomain, MeshError, PerturbationSpec,
                   build_uniform_mesh, locate_points, perturb_mesh)
from nlfem.geometry import _symmetric_draws, cell_counts


def test_counts_1d_baseline():
    mesh = build_uniform_mesh(0.01, BoxDomain.unit(1, 0.02))
    assert mesh.num_elements == 104
    assert mesh.num_nodes == 105
    assert mesh.num_interior == 99


def test_counts_1d_smallest():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(1, 0.5))
    assert mesh.num_elements == 4
    assert np.allclose(mesh.nodes[:, 0], [-0.5, 0.0, 0.5, 1.0, 1.5])
    assert mesh.num_interior == 1


def test_noninteger_ratio_rejected():
    with pytest.raises(MeshError, match="integer"):
        build_uniform_mesh(0.01, BoxDomain.unit(1, 0.015))


def test_ratio_off_by_more_than_roundoff_rejected():
    # ratios within 1e-9 relative of an integer pass as roundoff; 1e-7 is a wrong h
    domain = BoxDomain.unit(2, 0.25)
    assert cell_counts(0.125 * (1 + 1e-12), domain) == (2, (8, 8))
    with pytest.raises(MeshError, match="horizon / h must be an integer multiple"):
        cell_counts(0.125 * (1 + 1e-7), domain)


def test_counts_2d():
    mesh = build_uniform_mesh(0.1, BoxDomain.unit(2, 0.2))
    assert mesh.num_elements == 392  # 14^2 rectangles, two triangles each
    assert mesh.num_nodes == 225
    assert mesh.num_interior == 81


def test_counts_2d_smallest():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    assert mesh.num_elements == 32
    assert mesh.num_interior == 1


def test_2d_origin_is_constraint_node():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(2, 0.5))
    at_origin = np.flatnonzero(np.all(np.abs(mesh.nodes) < 1e-12, axis=1))
    assert len(at_origin) == 1
    assert not mesh.node_is_interior[at_origin[0]]


@pytest.mark.parametrize("dim,h,delta", [(1, 0.01, 0.02), (2, 0.1, 0.2), (1, 0.125, 0.25)])
def test_measures_sum(dim, h, delta):
    dom = BoxDomain.unit(dim, delta)
    mesh = build_uniform_mesh(h, dom)
    meas = forked_element_measures(mesh)
    assert np.all(meas > 0)
    total = (1 + 2 * delta) ** dim
    assert abs(meas.sum() - total) <= 1e-12 * total


@pytest.mark.parametrize("dim", [1, 2])
def test_node_classification_coordinates(dim):
    dom = BoxDomain.unit(dim, 0.25)
    mesh = build_uniform_mesh(0.125, dom)
    inner = mesh.nodes[mesh.interior_nodes]
    assert np.all((inner > 0.0) & (inner < 1.0))
    outer = mesh.nodes[mesh.constraint_nodes]
    # constraint nodes inside the layer closure: outside the open box
    inside_open = np.all((outer > 1e-12) & (outer < 1 - 1e-12), axis=1)
    assert not inside_open.any()


def test_perturb_zero_factor_is_identity():
    mesh = build_uniform_mesh(0.1, BoxDomain.unit(1, 0.2))
    pert = perturb_mesh(mesh, PerturbationSpec(0.0, seed=5))
    assert np.array_equal(pert.nodes, mesh.nodes)


def test_perturb_deterministic():
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(2, 0.25))
    a = perturb_mesh(mesh, PerturbationSpec(0.1, seed=99))
    b = perturb_mesh(mesh, PerturbationSpec(0.1, seed=99))
    assert np.array_equal(a.nodes, b.nodes)
    c = perturb_mesh(mesh, PerturbationSpec(0.1, seed=100))
    assert not np.array_equal(a.nodes, c.nodes)


@pytest.mark.parametrize("seed, first_three", [
    (0, ["-0x1.674514f5b7a70p-2", "-0x1.e2590c23c7f30p-3", "-0x1.1f8103709b2c4p-2"]),
    (3, ["-0x1.cb5051b91b9a6p-1", "0x1.2eef64fb71834p-2", "0x1.77d28909a38f8p-1"]),
    (2**64 - 1, ["-0x1.4998398b5b8f0p-2", "0x1.9a16210cb9696p-1", "0x1.8fa6d69204672p-1"]),
])
def test_perturbation_stream_is_pinned(seed, first_three):
    """The README's xoshiro256++ stream; perturbed references and configs depend on it."""
    draws = _symmetric_draws(seed)
    assert [next(draws).hex() for _ in range(3)] == first_three


def test_perturbed_breakpoints_are_pinned():
    mesh = build_uniform_mesh(1 / 8, BoxDomain.unit(2, 1 / 4))
    pert = perturb_mesh(mesh, PerturbationSpec(0.3, seed=7))
    digest = hashlib.sha256(b"".join(b.tobytes() for b in pert.axis_breaks)).hexdigest()
    assert digest == "a4c4c098d317acec4b23618201dfd717ac1ae04dbffc72a99d67fc50dbbc8338"


def test_perturbation_draws_cover_symmetric_range():
    draws = _symmetric_draws(7)
    ss = [next(draws) for _ in range(2000)]
    assert all(-1.0 <= s < 1.0 for s in ss)
    assert min(ss) < -0.9 and max(ss) > 0.9


def test_perturb_bound_and_ordering():
    h = 0.01
    mesh = build_uniform_mesh(h, BoxDomain.unit(1, 0.02))
    pert = perturb_mesh(mesh, PerturbationSpec(0.1, seed=3))
    assert np.abs(pert.nodes - mesh.nodes).max() <= 0.1 * h + 1e-15
    assert np.all(np.diff(pert.nodes[:, 0]) > 0)
    assert np.all(forked_element_measures(pert) > 0)


def test_perturb_anchors_fixed():
    delta = 0.25
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(1, delta))
    pert = perturb_mesh(mesh, PerturbationSpec(0.3, seed=11))
    x = pert.nodes[:, 0]
    for anchor in (-delta, 0.0, 1.0, 1 + delta):
        assert anchor in x


def test_perturb_requires_uniform():
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(1, 0.25))
    pert = perturb_mesh(mesh, PerturbationSpec(0.1, seed=0))
    with pytest.raises(MeshError):
        perturb_mesh(pert, PerturbationSpec(0.1, seed=0))


def test_invalid_perturbation_factor():
    with pytest.raises(MeshError):
        PerturbationSpec(0.5, seed=0)


@pytest.mark.parametrize("factor", ["0.1", 0.1 + 0j, None, False, np.bool_(False)])
def test_perturbation_factor_must_be_real(factor):
    with pytest.raises(MeshError, match="perturbation factor must be a real number"):
        PerturbationSpec(factor)


def test_perturbation_factor_accepts_numpy_real():
    assert PerturbationSpec(np.float32(0.1)).factor == np.float32(0.1)


def test_locate_1d_arithmetic():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(1, 0.25))
    elem, bary, _, _ = locate_points(mesh, [[0.3]], np.zeros((1, 1)))
    verts = mesh.nodes[mesh.elements[elem[0]], 0]
    assert verts[0] == pytest.approx(0.25) and verts[1] == pytest.approx(0.5)
    assert bary[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_locate_outside():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(1, 0.25))
    elem, bary, in_mesh, in_ext = locate_points(mesh, [[1.25], [1.25 + 1e-3]], np.zeros((1, 1)))
    assert in_mesh.tolist() == [[True], [False]] and in_ext.tolist() == [[True], [False]]
    assert len(elem) == len(bary) == 1  # only the point in the mesh is located


def test_locate_rejects_points_of_another_dimension():
    mesh_1d = build_uniform_mesh(0.25, BoxDomain.unit(1, 0.25))
    # two 1D points given as one flat vector, not as a (2, 1) array
    with pytest.raises(MeshError, match=r"shape \(2,\).*1D.*\(n, 1\)"):
        locate_points(mesh_1d, np.array([0.1, 0.6]), np.zeros((1, 1)))
    mesh_2d = build_uniform_mesh(0.25, BoxDomain.unit(2, 0.25))
    with pytest.raises(MeshError, match=r"shape \(3, 1\).*2D.*\(n, 2\)"):
        locate_points(mesh_2d, np.full((3, 1), 0.5), np.zeros((1, 2)))


def test_locate_node_reproduces_nodal_basis():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(2, 0.25))
    nodes = [0, 7, mesh.num_nodes // 2, mesh.num_nodes - 1]
    elems, barys, _, _ = locate_points(mesh, mesh.nodes[nodes], np.zeros((1, 2)))
    for node, elem, bary in zip(nodes, elems, barys):
        conn = mesh.elements[elem]
        assert node in conn
        k = list(conn).index(node)
        assert bary[k] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(np.delete(bary, k)).max() <= 1e-14


def test_locate_facet_tie_break_lowest_id():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    # diagonal point: both triangles of the rectangle contain it
    elems, _, _, _ = locate_points(mesh, [[0.25, 0.25], [0.5, 0.3], [0.5 - 1e-13, 0.3]],
                                   np.zeros((1, 2)))
    assert elems[0] % 2 == 0  # lower triangle has the smaller id
    # point on an interior vertical grid line
    assert elems[1] == elems[2]


def test_locate_points_vectorized_matches_scalar():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(2, 0.25))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.25, 1.25, size=(200, 2))
    elems, bary, _, _ = locate_points(mesh, pts, np.zeros((1, 2)))
    for i in (0, 17, 93, 199):
        e, b, _, _ = locate_points(mesh, pts[i], np.zeros((1, 2)))
        assert e[0] == elems[i]
        assert np.allclose(b[0], bary[i])
    assert np.all(bary >= -1e-14) and np.allclose(bary.sum(axis=1), 1.0)


@pytest.mark.parametrize("dim, lo, hi, message", [
    (3, (0.0,) * 3, (1.0,) * 3, "dimension"), (2, (0.0,), (1.0, 1.0), "corner"),
    (2, (0.0, 0.0), (1.0, 0.0), "degenerate"),
    (1, (math.nan,), (1.0,), "finite"), (2, (0.0, 0.0), (math.nan, 1.0), "finite"),
    (1, (-math.inf,), (1.0,), "finite"), (2, (0.0, 0.0), (1.0, math.inf), "finite"),
    # non-integer dimensions, including the ones equal to 1 or 2
    # ids kept from when the message read "unsupported dimension True"
    pytest.param(True, (0.0,), (1.0,), "dimension must be an integer, got True",
                 id="True-lo7-hi7-dimension True"),
    pytest.param(1.0, (0.0,), (1.0,), "dimension must be an integer, got 1.0",
                 id="1.0-lo8-hi8-dimension 1.0"),
    pytest.param("1", (0.0,), (1.0,), "dimension must be an integer, got '1'",
                 id="1-lo9-hi9-dimension '1'"), (np.float64(2.0), (0.0,) * 2, (1.0,) * 2, "dimension"),
])
def test_box_domain_validation(dim, lo, hi, message):
    with pytest.raises(MeshError, match=message):
        BoxDomain(dim, lo, hi, 0.25)


@pytest.mark.parametrize("lo, hi, horizon, extension", [
    ((0.0,), (1.0,), "0.25", 0.0), ((0.0,), (1.0,), True, 0.0),
    ((0.0,), (1.0,), 0.25, "0.1"), ((0.0,), (1.0,), 0.25, False),
    (("0",), (1.0,), 0.25, 0.0), ((0.0,), (True,), 0.25, 0.0),
    ((0.0,), (np.bool_(True),), 0.25, 0.0), ((0.0,), (1.0,), None, 0.0),
])
def test_box_domain_rejects_non_real_or_boolean_values(lo, hi, horizon, extension):
    with pytest.raises(MeshError, match="corners, horizon and extension must be a real number, got"):
        BoxDomain(1, lo, hi, horizon, extension)


def test_box_domain_accepts_numpy_floats():
    domain = BoxDomain(2, (np.float64(0.0), np.float32(0.0)), (np.float64(1.0), 1),
                       np.float64(0.25), np.float32(0.125))
    reference = build_uniform_mesh(0.125, BoxDomain.unit(2, 0.25, 0.125))
    assert np.array_equal(build_uniform_mesh(0.125, domain).nodes, reference.nodes)


@pytest.mark.parametrize("dim", [np.int64(1), np.int32(2)])
def test_box_domain_accepts_numpy_integer_dimension(dim):
    mesh = build_uniform_mesh(0.25, BoxDomain(dim, (0.0,) * dim, (1.0,) * dim, 0.25))
    reference = build_uniform_mesh(0.25, BoxDomain.unit(int(dim), 0.25))
    assert np.array_equal(mesh.nodes, reference.nodes)
    assert np.array_equal(mesh.elements, reference.elements)


@pytest.mark.parametrize("h", [0.0, -0.25])
def test_element_size_must_be_positive(h):
    with pytest.raises(MeshError, match="positive"):
        build_uniform_mesh(h, BoxDomain.unit(1, 0.25))


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
def test_perturbation_seed_outside_64_bits_rejected(seed):
    with pytest.raises(MeshError, match="seed"):
        PerturbationSpec(0.1, seed)


def test_perturbation_seed_range_ends_accepted():
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(1, 0.25))
    first = perturb_mesh(mesh, PerturbationSpec(0.1, 0))
    last = perturb_mesh(mesh, PerturbationSpec(0.1, 2**64 - 1))
    assert not np.array_equal(first.nodes, last.nodes)
    # a numpy seed draws the same stream, with no wrapped or overflowing arithmetic
    same = perturb_mesh(mesh, PerturbationSpec(0.1, np.uint64(2**64 - 1)))
    assert np.array_equal(same.nodes, last.nodes)


def test_extension_validation():
    with pytest.raises(MeshError):
        BoxDomain.unit(1, 0.1, extension=0.2)
    with pytest.raises(MeshError):
        BoxDomain.unit(1, -0.1)
    with pytest.raises(MeshError, match="finite"):
        BoxDomain.unit(1, math.inf)
