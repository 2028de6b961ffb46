"""The shared element geometry gives bitwise what each dimension's own formulas gave.

``Mesh.affine_maps`` writes the affine map of the reference simplex and its
Jacobian determinant once for 1D and 2D; ``locate_points`` builds the 2D
barycentrics column by column.  The oracles in ``_oracles.py`` keep the
earlier per-dimension and masked forms.
"""

import numpy as np
import pytest

from _oracles import (forked_element_gradients, forked_element_measures,
                      forked_outer_rules, masked_locate_points)
from nlfem import (BoxDomain, Field, PerturbationSpec, build_uniform_mesh, locate_points,
                   outer_rules, perturb_mesh)

MESHES = pytest.mark.parametrize("dim, perturbed", [(1, False), (1, True), (2, False), (2, True)])


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


@MESHES
def test_locate_points_equals_masked_oracle(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    pts = _probe_points(mesh)
    elem, bary = locate_points(mesh, pts)
    ref_elem, ref_bary = masked_locate_points(mesh, pts)
    assert np.array_equal(elem, ref_elem)
    assert np.array_equal(bary, ref_bary)
    if dim == 2:
        # the probes hold exact ties xi == eta inside diagonals (lower triangles)
        lower = ref_elem % 2 == 0
        ties = lower & (ref_bary[:, 1] == 0.0) & (ref_bary[:, 0] > 0.0) & (ref_bary[:, 2] > 0.0)
        assert ties.sum() >= 20


@MESHES
def test_element_measures_equal_forked_oracle(dim, perturbed):
    mesh = _mesh(dim, perturbed)
    assert np.array_equal(mesh.element_measures(), forked_element_measures(mesh))


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
    field = Field(mesh, np.random.default_rng(4).standard_normal(mesh.num_nodes))
    assert np.array_equal(field.element_gradients(), forked_element_gradients(field))
