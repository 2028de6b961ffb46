import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

import nlfem.quadrature
from _oracles import closed_form_weights_1d_constant, constraint_matrix, unit_moments
from nlfem import (BallNorm, BoxDomain, Kernel, KernelError, KernelKind,
                   PerturbationSpec, QuadratureError, build_uniform_mesh,
                   default_cache, full_ball_rule, locate_points, outer_rules,
                   perturb_mesh, truncated_weights)
from nlfem.quadrature import (_ball_grid, _constraint_matrix, _moment_weights,
                              solve_weights_on_subset)


def test_offsets_1d_single_ring():
    offs = _ball_grid(Kernel(KernelKind.CONSTANT, 1, 0.02), 1)
    assert np.allclose(sorted(offs[:, 0]), [-0.01, 0.01])


def test_offsets_1d_two_rings():
    d = 0.4
    offs = _ball_grid(Kernel(KernelKind.CONSTANT, 1, d), 2)
    assert np.allclose(sorted(offs[:, 0]),
                       [-3 * d / 4, -d / 4, d / 4, 3 * d / 4])


def test_offsets_2d_count():
    # the max-norm ball is the grid's square, so it keeps all (2n)^2 points
    offs = _ball_grid(Kernel(KernelKind.CONSTANT, 2, 1.0, BallNorm.MAX), 4)
    assert offs.shape == (64, 2)
    assert not np.any(np.all(offs == 0.0, axis=1))


@pytest.mark.parametrize("points_per_radius, dim, bad", [
    (2.5, 1, "points_per_radius"), ("3", 1, "points_per_radius"),
    (True, 1, "points_per_radius"), (0, 1, "points_per_radius"),
    (2, True, "dim"), (2, 1.0, "dim"),
])
def test_inner_grid_spec_rejects_non_integers(points_per_radius, dim, bad):
    if points_per_radius == 0:
        error, message = QuadratureError, "points_per_radius must lie in [1, 2^31), got 0"
    elif bad == "points_per_radius":
        error, message = QuadratureError, f"{bad} must be an integer, got {points_per_radius!r}"
    else:  # the grid takes its dimension from the kernel, so the kernel refuses a bad one
        error, message = KernelError, f"dimension must be an integer, got {dim!r}"
    if dim == 1:  # True == 1, so a refusal cannot come from the rule cached for 1
        full_ball_rule(Kernel(KernelKind.CONSTANT, 1, 0.25), 1)
    with pytest.raises(error, match=re.escape(message)):
        full_ball_rule(Kernel(KernelKind.CONSTANT, dim, 0.25), points_per_radius)
    assert np.array_equal(_ball_grid(Kernel(KernelKind.CONSTANT, np.int32(2), 1.0), np.int64(2)),
                          _ball_grid(Kernel(KernelKind.CONSTANT, 2, 1.0), 2))


def test_offsets_reflection_symmetric():
    offs = _ball_grid(Kernel(KernelKind.CONSTANT, 2, 0.5), 3)
    as_set = {tuple(np.round(o, 15)) for o in offs}
    assert as_set == {tuple(np.round(-o, 15)) for o in offs}


def test_ball_grid_euclidean_2d():
    # the disc keeps 52 of the grid's 64 points
    assert _ball_grid(Kernel(KernelKind.CONSTANT, 2, 1.0), 4).shape == (52, 2)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_ball_grid_1d_keeps_all(n):
    assert _ball_grid(Kernel(KernelKind.CONSTANT, 1, 0.3), n).shape == (2 * n, 1)


def test_ball_grid_keeps_the_sphere():
    """The support is the closed ball: an offset whose length equals the horizon
    stays, one a hair longer goes.  No real grid point lies on the sphere, so a
    stand-in norm stretches the 1D offsets at +-horizon/2 onto it."""
    def kernel(stretch):
        norm = SimpleNamespace(length=lambda offs: stretch * np.abs(offs[:, 0]))
        return SimpleNamespace(dim=1, horizon=0.1, ball_norm=norm)

    assert _ball_grid(kernel(2.0), 1).tolist() == [[-0.05], [0.05]]
    with pytest.raises(QuadratureError, match="no quadrature points"):
        _ball_grid(kernel(2.0 * (1 + 1e-12)), 1)


def test_ball_without_points_raises():
    # every squared length overflows to inf, so no point falls inside the ball
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(QuadratureError, match="no quadrature points fall inside the ball"):
            full_ball_rule(Kernel(KernelKind.RATIONAL, 2, 1e200), 4)


def test_rule_rejects_non_finite_weights():
    offs = np.array([[-0.5], [0.5]])
    with pytest.raises(QuadratureError, match="non-finite"):
        nlfem.quadrature.InnerQuadratureRule(offs, np.array([1.0, np.nan]), np.ones(2),
                                             np.ones((1, 2)), 0.0)


def test_constraint_matrix_1d():
    d = 0.3
    k = Kernel(KernelKind.CONSTANT, 1, d)
    B = constraint_matrix(k, [0.5], [[0.5 - d / 2], [0.5 + d / 2]])
    expected = (1.5 / d**3) * (d**2 / 4)
    assert B.shape == (1, 2)
    assert np.allclose(B, expected)


def test_constraint_matrix_2d_rows():
    k = Kernel(KernelKind.CONSTANT, 2, 0.2)
    B = constraint_matrix(k, [0.0, 0.0], [[0.1, 0.0], [0.05, 0.05]])
    assert B.shape == (3, 2)
    assert B[1, 0] == 0.0  # cross-term row vanishes for an axis-aligned offset


def test_constraint_matrix_rejects_center():
    k = Kernel(KernelKind.CONSTANT, 1, 0.1)
    offsets = np.array([[0.0], [0.05]])
    with pytest.raises(QuadratureError, match="singular"):
        _constraint_matrix(k, offsets)


def test_solve_weights_single_ring():
    d = 0.02
    k = Kernel(KernelKind.CONSTANT, 1, d)
    rule = full_ball_rule(k, 1)
    assert np.allclose(rule.weights, 4 * d / 3, rtol=1e-13)


def test_solve_weights_two_rings():
    d = 0.02
    k = Kernel(KernelKind.CONSTANT, 1, d)
    rule = full_ball_rule(k, 2)
    order = np.argsort(rule.offsets[:, 0])
    assert np.allclose(rule.weights[order],
                       [72 * d / 123, 8 * d / 123, 8 * d / 123, 72 * d / 123],
                       rtol=1e-13)


def test_moment_weights_minimal_norm_vs_saddle_point():
    # dense KKT solve of the equality-constrained problem as oracle
    rng = np.random.default_rng(42)
    for dim, cols in [(1, 4), (2, 13), (2, 52)]:
        g = unit_moments(dim)
        B = rng.standard_normal((len(g), cols))
        kkt = np.block([[np.eye(cols), B.T], [B, np.zeros((len(g), len(g)))]])
        sol = np.linalg.solve(kkt, np.concatenate([np.zeros(cols), g]))
        w, residual = _moment_weights(B, dim)
        assert np.allclose(w, sol[:cols], atol=1e-10)
        assert residual <= 1e-12 * np.linalg.norm(g)


def test_moment_weights_degenerate():
    with pytest.raises(QuadratureError, match="degenerate"):
        _moment_weights(np.zeros((1, 4)), 1)


@pytest.mark.parametrize("B", [
    [[np.nan, 1.0]],
    [[np.inf, 1.0]],
    [[1e200, 1.0]],  # finite, but B B^T overflows
], ids=["nan", "inf", "overflow"])
def test_moment_weights_non_finite(B):
    with pytest.raises(QuadratureError, match="non-finite"):
        _moment_weights(np.array(B), 1)


def test_full_rule_exactness_all_kernels():
    for kind, dim in itertools.product(
            (KernelKind.CONSTANT, KernelKind.RATIONAL), (1, 2)):
        k = Kernel(kind, dim, 0.11)
        g = unit_moments(dim)
        for n in (1, 2, 4):
            rule = full_ball_rule(k, n)
            B = constraint_matrix(k, np.zeros(dim), rule.offsets)
            assert np.linalg.norm(B @ rule.weights - g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("kind,dim", list(itertools.product(
    (KernelKind.CONSTANT, KernelKind.RATIONAL), (1, 2))))
def test_full_rule_positive_weights(kind, dim):
    k = Kernel(kind, dim, 0.2)
    for n in range(1, 11):
        rule = full_ball_rule(k, n)
        assert np.all(rule.weights > 0)


@pytest.mark.parametrize("bad_weight", [-1e-3, 0.0])
def test_full_rule_non_positive_weight_raises(monkeypatch, bad_weight):
    solve = nlfem.quadrature._moment_weights

    def spoiled(B, dim):
        w, residual = solve(B, dim)
        w = w.copy()
        w[0] = bad_weight
        return w, residual

    monkeypatch.setattr(nlfem.quadrature, "_moment_weights", spoiled)
    k = Kernel(KernelKind.RATIONAL, 2, 0.2)
    with pytest.raises(QuadratureError, match="non-positive weight"):
        full_ball_rule(k, 4)


def test_moment_residual_above_tolerance_raises():
    """Rows x^2 and y^2 that ask 1 of the same column, one of them scaled by
    1 + 1e-9, leave a least-squares residual of about 1e-9 / sqrt(2)."""
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 + 1e-9, 0.0]])
    with pytest.raises(QuadratureError, match=r"constraint residual 7\.07\de-10"):
        _moment_weights(B, 2)


@pytest.mark.parametrize("points_per_radius, dim", [(0, 1), (1, 3)])
def test_inner_grid_spec_validation(points_per_radius, dim):
    with pytest.raises((QuadratureError, KernelError)):
        full_ball_rule(Kernel(KernelKind.CONSTANT, dim, 0.2), points_per_radius)


def test_full_rule_dihedral_symmetry_2d():
    k = Kernel(KernelKind.RATIONAL, 2, 0.5)
    rule = full_ball_rule(k, 4)
    table = {tuple(np.round(o, 14)): w for o, w in zip(rule.offsets, rule.weights)}
    for (ox, oy), w in table.items():
        for sym in [(-ox, oy), (ox, -oy), (oy, ox), (-oy, -ox)]:
            assert table[tuple(np.round(sym, 14))] == pytest.approx(w, rel=1e-12)


def test_weights_scale_with_horizon():
    for kind in (KernelKind.CONSTANT, KernelKind.RATIONAL):
        w1 = full_ball_rule(Kernel(kind, 2, 0.1), 3).weights
        w2 = full_ball_rule(Kernel(kind, 2, 0.35), 3).weights
        assert np.allclose(w2, (0.35 / 0.1) ** 2 * w1, rtol=1e-12)


def test_full_rule_cached_and_shared():
    cache = default_cache()
    k = Kernel(KernelKind.CONSTANT, 1, 0.1)
    r1 = full_ball_rule(k, 3)
    r2 = full_ball_rule(k, 3)
    assert r1 is r2
    assert cache.misses == 1
    n_extra = 5
    for _ in range(n_extra):
        full_ball_rule(k, 3)
    assert cache.hits == 1 + n_extra
    cache.clear()
    assert (cache.hits, cache.misses) == (0, 0)
    assert full_ball_rule(k, 3) is not r1
    assert cache.misses == 1


def test_subset_solve_takes_the_full_rules_points():
    """The masked solve uses the given rule's points, so a solve made after an
    unrelated one on the same mask gets its own weights."""
    mask = np.array([True, True, False, True])
    solve_weights_on_subset(full_ball_rule(Kernel(KernelKind.CONSTANT, 1, 0.1), 2), mask)
    k = Kernel(KernelKind.CONSTANT, 1, 0.2)
    full = full_ball_rule(k, 2)
    w, residual = solve_weights_on_subset(full, mask)
    ref_w, ref_residual = _moment_weights(_constraint_matrix(k, full.offsets[mask])[1], 1)
    assert w.tobytes() == ref_w.tobytes() and residual == ref_residual
    assert default_cache().misses == 4  # two full rules, two masked solves


def _half_plane_masks(offsets):
    """Keep-sides of axis and diagonal cuts through the ball, at three depths."""
    dim = offsets.shape[1]
    normals = np.eye(dim) if dim == 1 else np.array([[1, 0], [0, 1], [1, 1], [1, -2]])
    depth = np.abs(offsets).max()
    return [offsets @ (sign * n) <= t * depth
            for n in normals for sign in (1, -1) for t in (-0.3, 0.0, 0.5)]


@pytest.mark.parametrize("kind, dim, ball_norm", list(itertools.product(
    KernelKind, (1, 2), BallNorm)))
@pytest.mark.parametrize("points_per_radius", [1, 2, 4, 10])
def test_subset_solve_is_a_fresh_solve_bit_for_bit(kind, dim, ball_norm, points_per_radius):
    """Columns of the full rule's constraints give the weights, to the bit, that a
    constraint matrix built anew from the masked offsets gives."""
    kernel = Kernel(kind, dim, 0.3, ball_norm)
    full = full_ball_rule(kernel, points_per_radius)
    rng = np.random.default_rng(points_per_radius)
    masks = _half_plane_masks(full.offsets) + list(rng.random((25, full.size)) < 0.6)
    solved = 0
    for mask in masks:
        try:
            ref_w, ref_residual = _moment_weights(
                _constraint_matrix(kernel, full.offsets[mask])[1], dim)
        except QuadratureError:  # no point kept, every kept point on one line, or a residual miss
            continue
        w, residual = solve_weights_on_subset(full, mask)
        assert w.tobytes() == ref_w.tobytes() and residual == ref_residual
        solved += 1
    assert solved >= len(masks) // 2


def test_closed_form_matches_solver():
    d = 0.37
    for n in range(1, 21):
        k = Kernel(KernelKind.CONSTANT, 1, d)
        rule = full_ball_rule(k, n)
        closed = closed_form_weights_1d_constant(n, d)
        assert np.allclose(rule.weights, closed, rtol=1e-12)
        assert np.all(closed > 0)


def test_closed_form_values():
    assert np.allclose(closed_form_weights_1d_constant(1, 0.02), 4 * 0.02 / 3)
    w = closed_form_weights_1d_constant(2, 1.0)
    assert np.allclose(sorted(w), [8 / 123, 8 / 123, 72 / 123, 72 / 123])
    with pytest.raises(QuadratureError, match="at least 1"):
        closed_form_weights_1d_constant(0, 1.0)


def test_min_weight_lower_bound():
    # the smallest weight scales like horizon for every grid density
    d = 0.6
    for n in range(1, 21):
        w = closed_form_weights_1d_constant(n, d)
        expected_min = 20 * d * n / (7 - 40 * n**2 + 48 * n**4)
        assert w.min() == pytest.approx(expected_min, rel=1e-13)
        assert w.min() > 0


def _ball_masks(kernel, extension, centers, full):
    """``locate_points``' (in_mesh, in_ext) masks of 1D balls, mesh size = horizon."""
    mesh = build_uniform_mesh(kernel.horizon, BoxDomain.unit(1, kernel.horizon, extension))
    return locate_points(mesh, centers, full.offsets)[2:]


def _truncated_1d(kernel, points_per_radius, center, extension):
    """Weights and retained offsets of the clipped ball around one 1D center."""
    full = full_ball_rule(kernel, points_per_radius)
    in_mesh, in_ext = _ball_masks(kernel, extension, [[center]], full)
    weights = truncated_weights(full, in_ext)
    return weights[0], in_mesh[0], full


def test_truncated_full_extension_reuses_full_ball_weights():
    d = 0.2
    k = Kernel(KernelKind.RATIONAL, 1, d)
    weights, retained, full = _truncated_1d(k, 4, -0.1, d)
    assert not retained.all()  # outside points dropped
    assert np.array_equal(weights, full.weights)


def test_truncated_zero_extension_resolves_weights():
    d = 0.2
    k = Kernel(KernelKind.CONSTANT, 1, d)
    center = -d / 2  # half the ball sticks out on the left
    weights, retained, full = _truncated_1d(k, 4, center, 0.0)
    assert not retained.all()
    assert np.all(weights[~retained] == 0.0)
    offs, w = full.offsets[retained], weights[retained]
    # exactness against full-ball moments still holds on the reduced set
    B = constraint_matrix(k, [0.0], offs)
    g = unit_moments(1)
    assert np.linalg.norm(B @ w - g) <= 1e-12 * np.linalg.norm(g)
    # and the kept weights differ from the full-ball ones
    assert np.abs(w - full.weights[retained]).max() > 1e-6

    # brute-force KKT oracle on the same reduced point set
    pts = center + offs
    assert np.all((pts[:, 0] >= -d) & (pts[:, 0] <= 1 + d))
    Bk = constraint_matrix(k, [center], pts)
    n = Bk.shape[1]
    kkt = np.block([[np.eye(n), Bk.T], [Bk, np.zeros((1, 1))]])
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(n), g]))
    assert np.allclose(w, sol[:n], atol=1e-12)


def test_truncated_center_inside_box_returns_full_rule():
    d = 0.2
    k = Kernel(KernelKind.CONSTANT, 1, d)
    weights, retained, full = _truncated_1d(k, 3, 0.5, 0.0)
    assert retained.all()
    assert np.array_equal(weights, full.weights)
    assert default_cache().misses == 1  # only the full-ball solve


def test_truncated_cache_reuse():
    d = 0.2
    k = Kernel(KernelKind.CONSTANT, 1, d)
    w1, _, full = _truncated_1d(k, 4, -d / 2, 0.0)
    misses = default_cache().misses
    centers = np.array([[-d / 2], [-d / 2]])
    batch = truncated_weights(full, _ball_masks(k, 0.0, centers, full)[1])
    assert default_cache().misses == misses
    assert np.array_equal(batch[0], w1) and np.array_equal(batch[1], w1)


def test_rule_dump_csv(tmp_path):
    k = Kernel(KernelKind.CONSTANT, 2, 0.1)
    rule = full_ball_rule(k, 2)
    path = tmp_path / "rule.csv"
    rule.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "offset_x,offset_y,weight"
    assert len(lines) == 1 + rule.size


@pytest.mark.parametrize("n_bar", [4, 10])  # 52 and 316 grid points: keys of 7 and 40 bytes
def test_distinct_masks_match_row_unique(n_bar):
    from nlfem.assembly import _distinct_masks

    h, d = 1 / 16, 2 / 16
    domain = BoxDomain.unit(2, d, 0.0)
    mesh = perturb_mesh(build_uniform_mesh(h, domain), PerturbationSpec(0.3, seed=2))
    full = full_ball_rule(Kernel(KernelKind.RATIONAL, 2, d), n_bar)
    pts, _, _ = outer_rules(mesh, np.flatnonzero(~mesh.element_in_box), 4)
    centers = pts.reshape(-1, 2)
    in_ext = locate_points(mesh, centers, full.offsets)[3]
    masks, inverse = _distinct_masks(in_ext)
    ref_masks, ref_inverse = np.unique(in_ext, axis=0, return_inverse=True)
    assert len(ref_masks) > 20
    assert np.array_equal(masks, ref_masks)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))
