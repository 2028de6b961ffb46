import re

import numpy as np
import pytest
from scipy import integrate

import nlfem.convergence
from _oracles import exact_bilinear_form, near_boundary_error_ratio, strang_gap
from nlfem import (BoxDomain, Kernel, KernelKind,
                   ManufacturedCase, PerturbationSpec, build_uniform_mesh,
                   error_norms, fit_rate, full_ball_rule, get_case,
                   guarded_fit_rate, h1_error, l2_error, perturb_mesh,
                   reconstruct)
from nlfem.convergence import ConvergenceReport, ErrorRecord
from nlfem.exceptions import ConfigError, NlfemError
from nlfem.geometry import Mesh
from nlfem.svgplot import write_convergence_svg


def _interpolant(mesh, func):
    vals = func(mesh.nodes[mesh.interior_nodes])
    return reconstruct(mesh, vals, func)


# ------------------------------------------------------------------ L2/H1

def test_interpolant_of_linear_has_zero_errors():
    case = get_case("linear1d")
    mesh = build_uniform_mesh(0.125, BoxDomain.unit(1, 0.25))
    u_nodes = _interpolant(mesh, case.solution)
    assert l2_error(u_nodes, case, mesh) <= 1e-14
    assert h1_error(u_nodes, case, mesh) <= 1e-13


def test_interpolant_of_linear_2d():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(2, 0.25))
    case = ManufacturedCase("lin2d", 2, 0.0, lambda p: (
        p[..., 0] - 2 * p[..., 1], (np.ones(p.shape[:-1]), np.full(p.shape[:-1], -2.0))))
    u_nodes = _interpolant(mesh, case.solution)
    assert l2_error(u_nodes, case, mesh) <= 1e-14
    assert h1_error(u_nodes, case, mesh) <= 1e-13


@pytest.mark.parametrize("mesh_dim, case_dim", [(2, 1), (1, 2)])
def test_error_norms_rejects_case_of_another_dimension(mesh_dim, case_dim):
    cases = {1: get_case("sin1d"), 2: get_case("sin2d")}
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(mesh_dim, 0.25))
    u_nodes = _interpolant(mesh, cases[mesh_dim].solution)
    with pytest.raises(ConfigError, match=f"is {case_dim}D but the mesh is {mesh_dim}D"):
        error_norms(u_nodes, cases[case_dim], mesh)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_error_norms_rejects_node_values_of_another_length(extra):
    """An array that is not one value per mesh node is refused, not cut or over-read."""
    case = get_case("sin2d")
    mesh = build_uniform_mesh(1 / 16, BoxDomain.unit(2, 1 / 8))
    u_nodes = _interpolant(mesh, case.solution)
    other = np.resize(u_nodes, mesh.num_nodes + extra)
    with pytest.raises(ConfigError, match=re.escape(
            f"node values of shape ({mesh.num_nodes + extra},) for {mesh.num_nodes} nodes")):
        error_norms(other, case, mesh)


_N_ERROR_POINTS_1D = 4 * nlfem.convergence._ERROR_AXIS_POINTS  # 4 box elements at h = 0.25


@pytest.mark.parametrize("exact, shapes", [
    (lambda p: (np.zeros(len(p)), ()),
     f"values of shape ({_N_ERROR_POINTS_1D},) and gradient components of shapes []"),
    (lambda p: (np.float64(0.0), (np.zeros(len(p)),)),
     f"values of shape () and gradient components of shapes [({_N_ERROR_POINTS_1D},)]"),
], ids=["no-gradient", "scalar-value"])
def test_error_norms_rejects_a_case_without_one_value_and_gradient_per_point(exact, shapes):
    """A library case must give a value and ``dim`` gradient components per point.

    Without the check an empty gradient silently dropped the gradient term
    (H1 read the L2 value, 0.0 here), and a 0-d value raised numpy's raw
    reshape error.
    """
    case = ManufacturedCase("c", 1, 0.0, exact)
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(1, 0.25))
    with pytest.raises(ConfigError, match=re.escape(
            f"case 'c' gave {shapes} for {_N_ERROR_POINTS_1D} points; a 1D case needs 1")):
        error_norms(np.zeros(mesh.num_nodes), case, mesh)


def test_halving_h_quarters_l2_error():
    from nlfem import (Kernel, KernelKind, assemble_system, solve_system)

    case = get_case("sin1d")
    errs = []
    for h in (1 / 32, 1 / 64):
        delta = 2 * h
        mesh = build_uniform_mesh(h, BoxDomain.unit(1, delta, delta))
        kernel = Kernel(KernelKind.RATIONAL, 1, delta)
        system = assemble_system(mesh, kernel, 10,
                                 40, case.source, case.solution)
        u_nodes = reconstruct(mesh, solve_system(system), case.solution)
        errs.append(l2_error(u_nodes, case, mesh))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0  # second order: ratio about 4


def test_h1_dominates_l2():
    case = get_case("sin1d")
    mesh = build_uniform_mesh(1 / 32, BoxDomain.unit(1, 1 / 16))
    u_nodes = _interpolant(mesh, case.solution)
    assert h1_error(u_nodes, case, mesh) >= l2_error(u_nodes, case, mesh)


def test_errors_invariant_under_element_relabeling():
    case = get_case("sin1d")
    mesh = build_uniform_mesh(1 / 16, BoxDomain.unit(1, 1 / 8))
    u_nodes = _interpolant(mesh, case.solution)
    perm = np.random.default_rng(3).permutation(mesh.num_elements)
    shuffled = Mesh(
        domain=mesh.domain, nodes=mesh.nodes, elements=mesh.elements[perm],
        element_in_box=mesh.element_in_box[perm],
        node_is_interior=mesh.node_is_interior, axis_breaks=mesh.axis_breaks,
        spacing=mesh.spacing, is_uniform=mesh.is_uniform)
    assert l2_error(u_nodes, case, shuffled) == pytest.approx(
        l2_error(u_nodes, case, mesh), rel=1e-13)
    assert h1_error(u_nodes, case, shuffled) == pytest.approx(
        h1_error(u_nodes, case, mesh), rel=1e-13)


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("dim, perturbed", [(1, False), (1, True), (2, False), (2, True)])
def test_error_norms_equal_two_pass_oracle(monkeypatch, dim, perturbed, chunk):
    """The chunked one-pass norms are bitwise the two separate full-size passes."""
    from _oracles import two_pass_error_norms

    h, case = (1 / 64, get_case("sin1d")) if dim == 1 else (1 / 16, get_case("sin2d"))
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h))
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, seed=3))
    noise = np.random.default_rng(5).normal(scale=1e-2, size=mesh.num_interior)
    u_nodes = reconstruct(mesh, case.solution(mesh.nodes[mesh.interior_nodes]) + noise,
                          case.solution)
    if chunk is not None:
        monkeypatch.setattr(nlfem.convergence, "_ERROR_CHUNK", chunk)
    l2, h1 = error_norms(u_nodes, case, mesh)
    n_points = nlfem.convergence._ERROR_AXIS_POINTS ** dim
    assert (l2, h1) == two_pass_error_norms(u_nodes, case, mesh, n_points)
    assert (l2_error(u_nodes, case, mesh), h1_error(u_nodes, case, mesh)) == (l2, h1)


@pytest.mark.parametrize("case_name, h, perturbed", [
    ("sin1d", 1 / 16, False), ("sin2d", 1 / 8, False), ("sin2d", 1 / 8, True),
    ("linear1d", 1 / 16, False)])
def test_error_rule_reads_fe_errors_as_the_eight_point_rule(case_name, h, perturbed):
    """The error rule reads the norms of FE solutions as an 8^d rule does.

    Against an 8^d rule, smooth cases agree within 1e-9 relative: the 5^d
    rule shifts them by at most 6.2e-10, at 2D h = 1/8 perturbed, where a
    4^d rule shifts them by 2.3e-7.  linear1d's errors are roundoff, so its
    norms agree within 1e-16 absolute.
    """
    from _oracles import two_pass_error_norms
    from nlfem import assemble_system, solve_system

    case = get_case(case_name)
    n_q, n_bar = (40, 10) if case.dim == 1 else (16, 4)
    mesh = build_uniform_mesh(h, BoxDomain.unit(case.dim, 2 * h, 2 * h))
    if perturbed:
        mesh = perturb_mesh(mesh, PerturbationSpec(0.1, seed=0))
    system = assemble_system(mesh, Kernel(KernelKind.RATIONAL, case.dim, 2 * h), n_bar, n_q,
                             case.source, case.solution)
    u_nodes = reconstruct(mesh, solve_system(system), case.solution)
    got = error_norms(u_nodes, case, mesh)
    ref = two_pass_error_norms(u_nodes, case, mesh, 8 ** case.dim)
    if case_name == "linear1d":
        assert got == pytest.approx(ref, rel=0, abs=1e-16)
    else:
        assert got == pytest.approx(ref, rel=1e-9, abs=0)


@pytest.mark.parametrize("dim, h", [(1, 1 / 2048), (2, 1 / 64)])
def test_error_norms_memory_is_terms_plus_one_chunk(dim, h):
    """The error pass peaks at its two (n_box, 8^d) term arrays plus one chunk.

    A chunk's scratch per Gauss point is its coordinates, weight, u_h, the
    exact value and gradient columns, and their differences: at most 10 + 2d
    float64 values, 97-99 bytes measured in 2D.  Keeping the previous
    chunk's arrays alive while the next is built read 137 bytes, and 129-131
    with the stacked gradient that ``solution_and_gradient`` replaced.
    """
    import tracemalloc

    case = get_case("sin1d") if dim == 1 else get_case("sin2d")
    mesh = build_uniform_mesh(h, BoxDomain.unit(dim, 2 * h))
    u_nodes = _interpolant(mesh, case.solution)
    n_box = int(mesh.element_in_box.sum())
    n_gs = nlfem.convergence._ERROR_AXIS_POINTS ** dim
    chunk = nlfem.convergence._ERROR_CHUNK
    assert n_box > chunk
    tracemalloc.start()
    try:
        error_norms(u_nodes, case, mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n_box * n_gs * 8 + (10 + 2 * dim) * 8 * chunk * n_gs


# ------------------------------------------------------------------ rate fits

def test_fit_rate_exact_powers():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    for p in (0.0, 1.0, 2.0):
        fit = fit_rate(hs, 3.7 * hs**p)
        assert fit.slope == pytest.approx(p, abs=1e-12)
        assert fit.residual <= 1e-12


def test_fit_rate_needs_positive_errors():
    with pytest.raises(NlfemError):
        fit_rate(np.array([0.1, 0.05]), np.array([1.0, 0.0]))


def test_fit_rate_needs_two_levels():
    with pytest.raises(NlfemError, match="two"):
        fit_rate(np.array([0.1]), np.array([1.0]))


def test_convergence_svg_needs_points(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        write_convergence_svg(tmp_path / "empty.svg", [{"label": "L2", "h": [], "error": []}])
    assert not (tmp_path / "empty.svg").exists()


def test_convergence_svg_leaves_out_errors_that_are_not_positive(tmp_path):
    path = tmp_path / "plot.svg"
    write_convergence_svg(path, [{"label": "L2", "h": [0.5, 0.25, 0.125],
                                  "error": [0.0, 1e-3, 2.5e-4]},
                                 {"label": "H1", "h": [0.5, 0.25, 0.125],
                                  "error": [0.0, 0.0, -1.0]}])
    svg = path.read_text()
    assert svg.count("<circle") == 2 and "error=0.0<" not in svg
    assert "<text" in svg and svg.rstrip().endswith("</svg>")
    write_convergence_svg(path, [{"label": "L2", "h": [0.5], "error": [0.0]}])
    assert "<circle" not in path.read_text()


def test_report_fits_no_rate_for_a_norm_with_an_error_that_is_not_positive():
    records = [ErrorRecord(h=0.5 / 2**k, delta=0.5 / 2**k, m=1, dofs=2**(k + 1) - 1,
                           l2=0.01 / 4**k if k else 0.0, h1=0.1 / 2**k)
               for k in range(3)]
    report = ConvergenceReport.from_records(records)
    assert report.l2_fit is None and report.l2_fit_guarded is None
    assert report.h1_fit.slope == pytest.approx(1.0, abs=1e-12)
    assert report.h1_fit_guarded.slope == pytest.approx(1.0, abs=1e-12)


def test_guarded_fit_drops_pre_asymptotic_level():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = hs.copy()
    errs[0] = 0.25 * errs[0]  # coarsest point far off the h^1 line
    plain = fit_rate(hs, errs)
    guarded = guarded_fit_rate(hs, errs)
    assert plain.residual > 0.1
    assert guarded.slope == pytest.approx(1.0, abs=1e-12)


def test_report_csv_round_trip(tmp_path):
    records = [ErrorRecord(h=0.1 / 2**k, delta=0.2 / 2**k, m=2, dofs=10 * 2**k,
                           l2=0.01 / 4**k, h1=0.1 / 2**k)
               for k in range(4)]
    report = ConvergenceReport.from_records(records)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "h,delta,m,dofs,l2,h1"
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    assert [ErrorRecord(float(h), float(d), int(m), int(n), float(l2), float(h1))
            for h, d, m, n, l2, h1 in rows] == records
    slopes = {ln.split(",")[0]: float(ln.split(",")[1])
              for ln in lines if ln.startswith("# ")}
    assert slopes["# l2_slope"] == pytest.approx(2.0, abs=1e-12)
    assert slopes["# h1_slope"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- strang gap

def _brute_force_D(v_nodal, w_nodal, kernel, mesh):
    breaks = mesh.axis_breaks[0]
    lo, hi = breaks[0], breaks[-1]
    delta = kernel.horizon

    def field(vals):
        def f(x):
            i = int(np.clip(np.searchsorted(breaks, x, side="right") - 1,
                            0, len(breaks) - 2))
            t = (x - breaks[i]) / (breaks[i + 1] - breaks[i])
            return vals[i] * (1 - t) + vals[i + 1] * t
        return f

    V, W = field(v_nodal), field(w_nodal)

    def gam(r):
        if kernel.kind is KernelKind.CONSTANT:
            return kernel.scaling / delta**3
        return kernel.scaling / (delta**2 * r)

    def inner(x):
        a, b = max(x - delta, lo), min(x + delta, hi)
        pts = sorted({p for p in list(breaks) + [x] if a < p < b})
        val, _ = integrate.quad(
            lambda y: gam(abs(y - x)) * (V(y) - V(x)) * (W(y) - W(x)),
            a, b, points=pts, limit=300, epsabs=1e-13, epsrel=1e-13)
        return val

    total, _ = integrate.quad(inner, lo, hi, points=list(breaks), limit=300,
                              epsabs=1e-11, epsrel=1e-11)
    return total


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kind", [KernelKind.CONSTANT, KernelKind.RATIONAL])
def test_exact_form_matches_adaptive_double_integral(kind):
    h = 0.5
    mesh = build_uniform_mesh(h, BoxDomain.unit(1, h, h))
    kernel = Kernel(kind, 1, h)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(mesh.num_nodes)
    w = rng.standard_normal(mesh.num_nodes)
    ref = _brute_force_D(v, w, kernel, mesh)
    got = exact_bilinear_form(v, w, kernel, mesh, n_q=40)
    assert got == pytest.approx(ref, abs=1e-10, rel=1e-10)


def test_single_ball_rule_exact_for_linear_fields():
    # for a ball inside one linear piece the inner rule reproduces the
    # exact integral of kernel * (linear difference)^2 to round-off
    delta = 0.1
    for kind in (KernelKind.CONSTANT, KernelKind.RATIONAL):
        kernel = Kernel(kind, 1, delta)
        rule = full_ball_rule(kernel, 5)
        a, b = 2.0, -0.7  # slopes of two linear fields
        discrete = float(np.sum(
            rule.strengths * (a * rule.offsets[:, 0]) * (b * rule.offsets[:, 0])
            * rule.weights))
        if kind is KernelKind.CONSTANT:
            exact = a * b * kernel.scaling / delta**3 * (2 * delta**3 / 3)
        else:
            exact = a * b * kernel.scaling / delta**2 * delta**2
        assert discrete == pytest.approx(exact, rel=1e-13)


def test_strang_gap_requires_zero_constraint_values():
    mesh = build_uniform_mesh(0.25, BoxDomain.unit(1, 0.25, 0.25))
    kernel = Kernel(KernelKind.CONSTANT, 1, 0.25)
    bad = np.ones(mesh.num_nodes)
    with pytest.raises(NlfemError, match="vanish"):
        strang_gap(bad, bad, kernel, mesh, 2)


def test_strang_gap_rejects_2d():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    kernel = Kernel(KernelKind.CONSTANT, 2, 0.5)
    z = np.zeros(mesh.num_nodes)
    with pytest.raises(NlfemError, match="1D"):
        strang_gap(z, z, kernel, mesh, 2)


def test_exact_form_rejects_2d():
    mesh = build_uniform_mesh(0.5, BoxDomain.unit(2, 0.5))
    z = np.zeros(mesh.num_nodes)
    with pytest.raises(NlfemError, match="1D"):
        exact_bilinear_form(z, z, Kernel(KernelKind.CONSTANT, 2, 0.5), mesh)


def _sin_gap(h):
    mesh = build_uniform_mesh(h, BoxDomain.unit(1, h, h))
    kernel = Kernel(KernelKind.CONSTANT, 1, h)
    v = np.where(mesh.node_is_interior, np.sin(2 * np.pi * mesh.nodes[:, 0]), 0.0)
    gap = strang_gap(v, v, kernel, mesh, 5, n_q=40)
    norm = np.sqrt(exact_bilinear_form(v, v, kernel, mesh, 40))
    return gap / norm


def test_strang_gap_decreases_linearly():
    hs = np.array([1 / 16, 1 / 32, 1 / 64])
    gaps = np.array([_sin_gap(h) for h in hs])
    assert np.all(np.diff(gaps) < 0)
    assert fit_rate(hs, gaps).slope >= 0.9


def test_strang_gap_mirror_symmetric():
    h = 1 / 16
    mesh = build_uniform_mesh(h, BoxDomain.unit(1, h, h))
    kernel = Kernel(KernelKind.CONSTANT, 1, h)
    x = mesh.nodes[:, 0]
    v = np.where(mesh.node_is_interior, np.sin(2 * np.pi * x) + 0.2 * x * (1 - x), 0.0)
    mirrored = v[::-1]  # uniform grid is symmetric about 1/2
    g1 = strang_gap(v, v, kernel, mesh, 5)
    g2 = strang_gap(mirrored, mirrored, kernel, mesh, 5)
    assert g1 == pytest.approx(g2, rel=1e-10)


# ---------------------------------------------------- near-boundary error ratio

def test_near_boundary_ratio_flags_boundary_spike():
    case = get_case("sin1d")
    mesh = build_uniform_mesh(1 / 32, BoxDomain.unit(1, 1 / 16))
    vals = case.solution(mesh.nodes[mesh.interior_nodes])
    vals[0] += 0.5  # inject a near-boundary defect
    u_nodes = reconstruct(mesh, vals, case.solution)
    near, deep = near_boundary_error_ratio(u_nodes, case, mesh, 2 / 16)
    assert near > 2 * deep


def _field_without_unknowns():
    mesh = build_uniform_mesh(1.0, BoxDomain.unit(1, 1.0))
    assert mesh.num_interior == 0
    case = get_case("sin1d")
    return reconstruct(mesh, np.zeros(0), case.solution), case, mesh


def test_near_boundary_ratio_without_unknowns_reads_zero():
    u_nodes, case, mesh = _field_without_unknowns()
    assert near_boundary_error_ratio(u_nodes, case, mesh, 0.5) == (0.0, 0.0)
