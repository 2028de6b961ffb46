"""Error norms, convergence-rate fits, and scheme diagnostics.

L2/H1 errors are measured against the local exact solution over the box
only (the constraint layer shrinks with the horizon and is excluded), by
Gauss quadrature per element with 8^d points.

Two diagnostics probe the scheme itself: the quadrature consistency gap
between the exactly integrated bilinear form and its inner-rule
discretization (1D, where piecewise-exact inner integration is available
in closed form), and a profile of nodal error versus distance to the box
boundary that exposes the boundary-layer error concentration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import Field, assemble_system, gauss_legendre_01, outer_rules
from .exceptions import NlfemError
from .geometry import Mesh
from .kernels import Kernel, KernelKind
from .problems import ManufacturedCase
from .quadrature import InnerGridSpec, RuleCache


@dataclass
class ErrorRecord:
    h: float
    delta: float
    m: int
    dofs: int
    l2: float
    h1: float
    assembly_ms: float = 0.0
    solve_ms: float = 0.0


@dataclass
class RateFit:
    slope: float
    residual: float  # euclidean norm of the log-error misfit around the fit


@dataclass
class ConvergenceReport:
    records: list[ErrorRecord]
    l2_fit: RateFit | None = None
    h1_fit: RateFit | None = None
    l2_fit_guarded: RateFit | None = None
    h1_fit_guarded: RateFit | None = None

    @classmethod
    def from_records(cls, records: list[ErrorRecord]) -> "ConvergenceReport":
        report = cls(records=list(records))
        if len(records) >= 3:
            hs = np.array([r.h for r in records])
            report.l2_fit = fit_rate(hs, np.array([r.l2 for r in records]))
            report.h1_fit = fit_rate(hs, np.array([r.h1 for r in records]))
            report.l2_fit_guarded = guarded_fit_rate(hs, np.array([r.l2 for r in records]))
            report.h1_fit_guarded = guarded_fit_rate(hs, np.array([r.h1 for r in records]))
        return report

    def write_csv(self, path, include_timings: bool = False) -> None:
        """One row per refinement; fitted slopes appended as # comment lines."""
        with open(path, "w", newline="") as fh:
            fh.write("h,delta,m,dofs,l2,h1,assembly_ms,solve_ms\n")
            for r in self.records:
                t_a = r.assembly_ms if include_timings else 0.0
                t_s = r.solve_ms if include_timings else 0.0
                fh.write(f"{r.h!r},{r.delta!r},{r.m},{r.dofs},"
                         f"{r.l2!r},{r.h1!r},{t_a!r},{t_s!r}\n")
            for tag, fit in (("l2_slope", self.l2_fit), ("h1_slope", self.h1_fit),
                             ("l2_slope_guarded", self.l2_fit_guarded),
                             ("h1_slope_guarded", self.h1_fit_guarded)):
                if fit is not None:
                    fh.write(f"# {tag},{fit.slope!r}\n")
                    fh.write(f"# {tag}_residual,{fit.residual!r}\n")


_ERROR_CHUNK = 4096  # box elements per error-norm chunk; bounds the pass's scratch


def error_norms(field_: Field, case: ManufacturedCase,
                mesh: Mesh) -> tuple[float, float]:
    """L2 and H1 errors over the box, from one pass over its elements.

    The solution and its gradient are evaluated once per Gauss point, chunk
    by chunk; each norm's integrand is kept per point and summed once at the
    end, so the chunk size does not change either value.
    """
    ids = np.flatnonzero(mesh.element_in_box)
    n_gs = 8 ** mesh.dim
    grad_h = field_.element_gradients()  # constant per element
    l2_terms = np.empty((len(ids), n_gs))
    h1_terms = np.empty((len(ids), n_gs))
    for lo in range(0, len(ids), _ERROR_CHUNK):
        part = ids[lo:lo + _ERROR_CHUNK]
        pts, w, ref_bary = outer_rules(mesh, part, n_gs)
        flat = pts.reshape(-1, mesh.dim)
        uh = np.einsum("qk,ek->eq", ref_bary, field_.node_values[mesh.elements[part]])
        sq = (uh - case.solution(flat).reshape(uh.shape)) ** 2
        grad_0 = case.gradient(flat).reshape(*uh.shape, mesh.dim)
        # axis by axis: squares are never -0.0, so 0 + x_0 + x_1 has the bits of np.sum(axis=-1)
        gdiff = sum((grad_h[part, None, k] - grad_0[..., k]) ** 2 for k in range(mesh.dim))
        l2_terms[lo:lo + len(part)] = sq * w
        h1_terms[lo:lo + len(part)] = (sq + gdiff) * w
    return math.sqrt(float(np.sum(l2_terms))), math.sqrt(float(np.sum(h1_terms)))


def l2_error(field_: Field, case: ManufacturedCase, mesh: Mesh) -> float:
    return error_norms(field_, case, mesh)[0]


def h1_error(field_: Field, case: ManufacturedCase, mesh: Mesh) -> float:
    return error_norms(field_, case, mesh)[1]


def fit_rate(hs: np.ndarray, errors: np.ndarray) -> RateFit:
    """Least-squares slope of log(error) against log(h).

    The residual is the euclidean norm of the log-error misfit; it feeds the
    pre-asymptotic guard in guarded_fit_rate.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2:
        raise NlfemError("rate fit needs at least two refinement levels")
    if np.any(errors <= 0):
        raise NlfemError("rate fit needs strictly positive errors")
    lx, ly = np.log(hs), np.log(errors)
    coeffs = np.polyfit(lx, ly, 1)
    resid = ly - np.polyval(coeffs, lx)
    return RateFit(slope=float(coeffs[0]), residual=float(np.linalg.norm(resid)))


def guarded_fit_rate(hs: np.ndarray, errors: np.ndarray) -> RateFit:
    """Rate fit with a pre-asymptotic guard: a poor fit drops the coarsest level."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    fit = fit_rate(hs, errors)
    if fit.residual > 0.1 and len(hs) >= 3:
        order = np.argsort(hs)[::-1]
        return fit_rate(hs[order[1:]], errors[order[1:]])
    return fit


def boundary_error_profile(field_: Field, case: ManufacturedCase, mesh: Mesh,
                           bins: int = 10) -> list[tuple[float, float, int, float]]:
    """Max nodal error bucketed by distance to the box boundary.

    Returns (bin_lo, bin_hi, node_count, max_error) per bin, over the
    unknown nodes; without unknowns every row is (0.0, 0.0, 0, 0.0).
    """
    nodes = mesh.interior_nodes
    coords = mesh.nodes[nodes]
    dist = mesh.domain.boundary_distance(coords)
    err = np.abs(field_.node_values[nodes] - case.solution(coords))
    edges = np.linspace(0.0, float(dist.max(initial=0.0)), bins + 1)
    out = []
    for k in range(bins):
        lo, hi = edges[k], edges[k + 1]
        sel = (dist >= lo) & (dist <= hi if k == bins - 1 else dist < hi)
        out.append((float(lo), float(hi), int(sel.sum()),
                    float(err[sel].max()) if sel.any() else 0.0))
    return out


def near_boundary_error_ratio(field_: Field, case: ManufacturedCase, mesh: Mesh,
                              width: float,
                              interior_margin: float | None = None) -> tuple[float, float]:
    """Max nodal error within ``width`` of the box boundary versus deep inside.

    The interior reference is taken over nodes at distance at least
    ``interior_margin`` from the boundary (default: half the largest
    distance, i.e. the central part of the box), so that the slowly decaying
    shoulder of a boundary-generated error does not mask the concentration.
    A side without nodes reads 0.0, so a mesh without unknowns gives (0.0, 0.0).
    """
    nodes = mesh.interior_nodes
    coords = mesh.nodes[nodes]
    dist = mesh.domain.boundary_distance(coords)
    err = np.abs(field_.node_values[nodes] - case.solution(coords))
    if interior_margin is None:
        interior_margin = 0.5 * float(dist.max(initial=0.0))
    near = err[dist <= width]
    deep = err[dist >= interior_margin]
    return (float(near.max()) if near.size else 0.0,
            float(deep.max()) if deep.size else 0.0)


def exact_bilinear_form(v_values: np.ndarray, w_values: np.ndarray,
                        kernel: Kernel, mesh: Mesh, n_q: int = 40) -> float:
    """1D bilinear form with piecewise-exact inner integration.

    The outer integral uses Gauss quadrature (assumed accurate); the inner
    integral over ball intersected with the meshed region is evaluated in
    closed form on each overlapped segment, where both fields are linear.
    Exists as a diagnostic/oracle path only; the production assembly never
    intersects elements with balls.
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


def _segment_integral(x, sa, sb, seg_start, v0, sv, w0, sw, vx, wx,
                      rational, own) -> float:
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


def strang_gap(v_values: np.ndarray, w_values: np.ndarray, kernel: Kernel,
               mesh: Mesh, spec: InnerGridSpec, n_q: int = 40,
               cache: RuleCache | None = None) -> float:
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
    a = assemble_system(mesh, kernel, spec, n_q, cache=cache).matrix
    ids = mesh.interior_nodes
    discrete = float(v[ids] @ (a @ w[ids]))
    return abs(exact - discrete)
