"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with ``pytest -s`` to see them
as they complete; they also appear in captured output with ``-rA``).
Convergence criteria assert the fitted slope with the pre-asymptotic
guard (the plain fit is printed alongside).
"""

import itertools
import json
import time

import numpy as np
import pytest

from _oracles import (closed_form_weights_1d_constant, constraint_matrix,
                      exact_bilinear_form, near_boundary_error_ratio, strang_gap)
from nlfem import (BoxDomain, InnerGridSpec, Kernel, KernelKind,
                   ManufacturedCase, assemble_system, build_uniform_mesh,
                   case_linear_1d, case_sin_1d, case_sin_2d,
                   error_norms, exact_moment_integrals, fit_rate, full_ball_rule,
                   guarded_fit_rate, l2_error, perturb_mesh,
                   reconstruct, solve_system)
from nlfem.cli import RunConfig, run_study
from nlfem.geometry import PerturbationSpec

BOTH_KINDS = (KernelKind.CONSTANT, KernelKind.RATIONAL)


def _report(num, name, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {num:2d} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def _solve_case(dim, kind, case, h, m, ext_ratio, nbar, nq, mesh_mode="uniform",
                eps=0.1, seed=0):
    delta = m * h
    domain = BoxDomain.unit(dim, delta, ext_ratio * delta)
    mesh = build_uniform_mesh(h, domain)
    if mesh_mode == "perturbed":
        mesh = perturb_mesh(mesh, PerturbationSpec(eps, seed))
    kernel = Kernel(kind, dim, delta)
    system = assemble_system(mesh, kernel, InnerGridSpec(nbar), nq,
                             case.source, case.solution)
    u = solve_system(system)
    field = reconstruct(mesh, u, case.solution)
    return mesh, field


def _study_errors(dim, kind, case, hs, m, ext_ratio, nbar, nq, **kw):
    norms = []
    for h in hs:
        mesh, field = _solve_case(dim, kind, case, h, m, ext_ratio, nbar, nq, **kw)
        norms.append(error_norms(field, case, mesh))
    l2s, h1s = np.array(norms).T
    return l2s, h1s


def test_criterion_01_quadrature_exactness_and_positivity():
    t0 = time.perf_counter()
    for (kind, dim), nbar in itertools.product(
            itertools.product(BOTH_KINDS, (1, 2)), (1, 2, 4, 8, 10)):
        kernel = Kernel(kind, dim, 0.13)
        rule = full_ball_rule(kernel, InnerGridSpec(nbar))
        g = exact_moment_integrals(kernel)
        defect = constraint_matrix(kernel, np.zeros(dim), rule.offsets) @ rule.weights - g
        assert np.abs(defect).max() <= 1e-12 * np.linalg.norm(g)
        assert np.all(rule.weights > 0)
    _report(1, "quadrature exactness + positivity", time.perf_counter() - t0, 1)


def test_criterion_02_closed_form_oracle():
    t0 = time.perf_counter()
    delta = 0.29
    for nbar in range(1, 21):
        kernel = Kernel(KernelKind.CONSTANT, 1, delta)
        rule = full_ball_rule(kernel, InnerGridSpec(nbar))
        closed = closed_form_weights_1d_constant(nbar, delta)
        assert np.allclose(rule.weights, closed, rtol=1e-12)
    # independent single-constraint identity: w = g * f / |f|^2
    kernel = Kernel(KernelKind.CONSTANT, 1, delta)
    rule = full_ball_rule(kernel, InnerGridSpec(1))
    f_row = constraint_matrix(kernel, [0.0], rule.offsets)[0]
    g = exact_moment_integrals(kernel)[0]
    w_expected = g * f_row / np.dot(f_row, f_row)
    assert np.allclose(rule.weights, w_expected, rtol=1e-13)
    assert np.allclose(rule.weights, 4 * delta / 3, rtol=1e-13)
    _report(2, "analytic weight formula", time.perf_counter() - t0, 1)


def _linear_2d():
    """u = 0.3 + x + 2y with zero source, which the basis represents exactly."""

    def u(p):
        return 0.3 + p[..., 0] + 2.0 * p[..., 1]

    def u_grad(p):
        return u(p), tuple(np.full(p.shape[:-1], c) for c in (1.0, 2.0))

    return ManufacturedCase("linear2d", 2, u, lambda p: np.zeros(p.shape[:-1]), u_grad)


def test_criterion_03_patch_test():
    t0 = time.perf_counter()
    case = case_linear_1d()
    results = {}
    for kind in BOTH_KINDS:
        mesh, field = _solve_case(1, kind, case, 0.01, 2, 1.0, 10, 40)
        results[kind.value] = l2_error(field, case, mesh)
        assert results[kind.value] <= 1e-10
    # 2D: extension delta reproduces the linear solution at the nodes on
    # uniform meshes; extension zero does not, so the check is not vacuous
    case = _linear_2d()
    runs = itertools.chain(itertools.product(BOTH_KINDS, (1 / 8, 1 / 16), (1.0,)),
                           itertools.product(BOTH_KINDS, (1 / 8,), (0.0,)))
    for kind, h, ext_ratio in runs:
        mesh, field = _solve_case(2, kind, case, h, 2, ext_ratio, 4, 16)
        err = np.abs(field.node_values - case.solution(mesh.nodes)).max()
        results[f"2d-{kind.value}-h={h}-ext={ext_ratio:g}"] = err
        if ext_ratio == 1.0:
            assert err <= 1e-11
        else:
            assert err > 1e-3
    _report(3, "patch test", time.perf_counter() - t0, 10,
            detail=" ".join(f"{k}={v:.2e}" for k, v in results.items()))


def test_criterion_04_boundary_extension_effect():
    t0 = time.perf_counter()
    case = case_sin_1d()
    hs = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    detail = []
    for ext_ratio, band in ((0.0, (0.8, 1.3)), (1.0, (1.8, 2.2))):
        l2s, _ = _study_errors(1, KernelKind.RATIONAL, case, hs, 2, ext_ratio, 10, 40)
        plain = fit_rate(hs, l2s)
        fit = guarded_fit_rate(hs, l2s)
        assert band[0] <= fit.slope <= band[1]
        detail.append(f"t_e={'0' if ext_ratio == 0 else 'delta'}: "
                      f"slope {fit.slope:.3f} (plain {plain.slope:.3f})")
    # error concentration at the finest level, near = within 2*delta
    for ext_ratio, concentrated in ((0.0, True), (1.0, False)):
        mesh, field = _solve_case(1, KernelKind.RATIONAL, case, 1 / 128, 2,
                                  ext_ratio, 10, 40)
        near, deep = near_boundary_error_ratio(field, case, mesh, 2 * mesh.domain.horizon)
        if concentrated:
            assert near >= 2 * deep
        else:
            assert near <= 2 * deep
        detail.append(f"ratio(t_e={'0' if ext_ratio == 0 else 'delta'})={near / deep:.2f}")
    _report(4, "boundary extension effect", time.perf_counter() - t0, 60,
            detail="; ".join(detail))


def test_criterion_05_uniform_1d_rates():
    t0 = time.perf_counter()
    case = case_sin_1d()
    hs = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    detail = []
    for kind, m in itertools.product(BOTH_KINDS, (1, 2, 3)):
        l2s, h1s = _study_errors(1, kind, case, hs, m, 1.0, 10, 40)
        fl2 = guarded_fit_rate(hs, l2s)
        fh1 = guarded_fit_rate(hs, h1s)
        assert 1.8 <= fl2.slope <= 2.2, (kind, m, fl2)
        assert 0.8 <= fh1.slope <= 1.2, (kind, m, fh1)
        detail.append(f"{kind.value[0]}/m={m}: {fl2.slope:.2f}/{fh1.slope:.2f}")
    _report(5, "uniform 1D rates", time.perf_counter() - t0, 180,
            detail=" ".join(detail))


def test_criterion_06_nonuniform_linear_rates():
    t0 = time.perf_counter()
    case = case_linear_1d()
    hs = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    seeds = (0, 1, 2, 3, 4)
    detail = []
    for kind in BOTH_KINDS:
        l2_mean = np.zeros(len(hs))
        h1_mean = np.zeros(len(hs))
        for i, h in enumerate(hs):
            per_seed = [_solve_case(1, kind, case, h, 2, 1.0, 10, 40,
                                    mesh_mode="perturbed", seed=s) for s in seeds]
            norms = [error_norms(f, case, m) for m, f in per_seed]
            l2_mean[i] = np.mean([l2 for l2, _ in norms])
            h1_mean[i] = np.mean([h1 for _, h1 in norms])
        fl2 = guarded_fit_rate(hs, l2_mean)
        fh1 = guarded_fit_rate(hs, h1_mean)
        assert 0.7 <= fl2.slope <= 1.4, (kind, fl2)
        assert -0.3 <= fh1.slope <= 0.4, (kind, fh1)
        detail.append(f"{kind.value}: L2 {fl2.slope:.2f} H1 {fh1.slope:.2f}")
    _report(6, "nonuniform 1D linear rates", time.perf_counter() - t0, 60,
            detail="; ".join(detail))


def test_criterion_07_nonuniform_sinusoidal_rates():
    t0 = time.perf_counter()
    case = case_sin_1d()
    hs = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    detail = []
    for kind, m in itertools.product(BOTH_KINDS, (2, 3)):
        l2s, _ = _study_errors(1, kind, case, hs, m, 1.0, 10, 40,
                               mesh_mode="perturbed", seed=0)
        fit = guarded_fit_rate(hs, l2s)
        assert 1.6 <= fit.slope <= 2.3, (kind, m, fit)
        detail.append(f"{kind.value[0]}/m={m}: {fit.slope:.2f}")
    _report(7, "nonuniform 1D sinusoidal rates", time.perf_counter() - t0, 120,
            detail=" ".join(detail))


def test_criterion_08_uniform_2d_rates():
    t0 = time.perf_counter()
    case = case_sin_2d()
    hs = np.array([1 / 8, 1 / 16, 1 / 32])
    detail = []
    for kind in BOTH_KINDS:
        l2s, _ = _study_errors(2, kind, case, hs, 2, 1.0, 4, 16)
        fit = guarded_fit_rate(hs, l2s)
        assert 1.7 <= fit.slope <= 2.3, (kind, fit)
        detail.append(f"{kind.value}: {fit.slope:.2f}")
    _report(8, "uniform 2D rates", time.perf_counter() - t0, 600,
            detail="; ".join(detail))


def test_criterion_09_nonuniform_2d_rates():
    t0 = time.perf_counter()
    case = case_sin_2d()
    hs = np.array([1 / 8, 1 / 16, 1 / 32])
    detail = []
    for kind in BOTH_KINDS:
        l2s, _ = _study_errors(2, kind, case, hs, 2, 1.0, 4, 16,
                               mesh_mode="perturbed", seed=0)
        fit = guarded_fit_rate(hs, l2s)
        assert 1.6 <= fit.slope <= 2.3, (kind, fit)
        detail.append(f"{kind.value}: {fit.slope:.2f}")
    _report(9, "nonuniform 2D rates", time.perf_counter() - t0, 900,
            detail="; ".join(detail))


def test_criterion_10_assembly_oracle_equivalence():
    from _oracles import naive_system

    t0 = time.perf_counter()
    case = case_sin_1d()
    for h in (1 / 4, 1 / 8):
        for kind in BOTH_KINDS:
            delta = h  # h = delta per the criterion
            mesh = build_uniform_mesh(h, BoxDomain.unit(1, delta, delta))
            kernel = Kernel(kind, 1, delta)
            system = assemble_system(mesh, kernel, InnerGridSpec(2),
                                     8, case.source, case.solution)
            A = system.matrix.toarray()
            A_ref, _ = naive_system(h, 1, kind, 1.0, 2, 8, case.source,
                                    case.solution)
            assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
            assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    # symmetry also on a 2D assembly
    mesh = build_uniform_mesh(1 / 8, BoxDomain.unit(2, 1 / 4, 1 / 4))
    kernel = Kernel(KernelKind.RATIONAL, 2, 1 / 4)
    A2 = assemble_system(mesh, kernel, InnerGridSpec(4), 16).matrix.toarray()
    assert np.abs(A2 - A2.T).max() <= 1e-12 * np.abs(A2).max()
    _report(10, "assembly oracle equivalence", time.perf_counter() - t0, 10)


def test_criterion_11_coercivity_surrogate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mins = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh = build_uniform_mesh(h, BoxDomain.unit(1, h, h))
        kernel = Kernel(KernelKind.CONSTANT, 1, h)
        A = assemble_system(mesh, kernel, InnerGridSpec(10), 40).matrix
        lengths = np.diff(mesh.axis_breaks[0])
        ratios = []
        for _ in range(100):
            u = rng.standard_normal(mesh.num_interior)
            vals = np.zeros(mesh.num_nodes)
            vals[mesh.interior_nodes] = u
            slopes = np.diff(vals) / lengths
            seminorm_sq = float(np.sum(slopes**2 * lengths))
            ratios.append(float(u @ (A @ u)) / seminorm_sq)
        mins.append(min(ratios))
    mins = np.array(mins)
    assert np.all(mins > 0)
    mean = mins.mean()
    assert np.all(np.abs(mins - mean) <= 0.2 * mean)
    _report(11, "coercivity surrogate", time.perf_counter() - t0, 30,
            detail=f"min ratios {np.round(mins, 4).tolist()}")


def test_criterion_12_strang_gap_decay():
    t0 = time.perf_counter()
    hs = np.array([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    gaps = []
    for h in hs:
        mesh = build_uniform_mesh(h, BoxDomain.unit(1, h, h))
        kernel = Kernel(KernelKind.CONSTANT, 1, h)
        v = np.where(mesh.node_is_interior,
                     np.sin(2 * np.pi * mesh.nodes[:, 0]), 0.0)
        gap = strang_gap(v, v, kernel, mesh, InnerGridSpec(10), n_q=40)
        norm = np.sqrt(exact_bilinear_form(v, v, kernel, mesh, 40))
        gaps.append(gap / norm)
    gaps = np.array(gaps)
    assert np.all(np.diff(gaps) < 0)
    fit = fit_rate(hs, gaps)
    assert fit.slope >= 0.9
    _report(12, "quadrature consistency gap decay", time.perf_counter() - t0, 30,
            detail=f"slope {fit.slope:.2f}, gaps {[f'{g:.1e}' for g in gaps]}")


def test_criterion_13_determinism(tmp_path):
    t0 = time.perf_counter()
    raw = {
        "dimension": 1, "kernel": "rational", "case": "sin1d", "m": 2,
        "h": [1 / 16, 1 / 32, 1 / 64], "mesh": "perturbed",
        "epsilon": 0.1, "seed": 7, "points_per_radius": 5, "outer_points": 10,
    }
    config = RunConfig.from_dict(raw)
    run_study(config, tmp_path / "a")
    run_study(config, tmp_path / "b")
    report_a = (tmp_path / "a" / "report.csv").read_bytes()
    report_b = (tmp_path / "b" / "report.csv").read_bytes()
    assert report_a == report_b
    for sol in sorted((tmp_path / "a").glob("*.csv")):
        assert sol.read_bytes() == (tmp_path / "b" / sol.name).read_bytes()
    _report(13, "byte-identical study rerun", time.perf_counter() - t0, 60)


def test_acceptance_config_snapshot(tmp_path):
    # the shipped example configs parse and map to the criteria settings
    import pathlib
    examples_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    if not examples_dir.exists():
        pytest.skip("no shipped configs")
    for path in sorted(examples_dir.glob("*.json")):
        RunConfig.from_dict(json.loads(path.read_text()))
