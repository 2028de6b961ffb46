"""Error norms and convergence-rate fits.

L2/H1 errors of a solution's node values (``assembly.reconstruct``), read
with the one mesh they belong to, are measured against the local exact
solution over the box only (the constraint layer shrinks with the horizon
and is excluded), by Gauss quadrature per element with 5^d points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import outer_rules
from .exceptions import ConfigError, NlfemError
from .geometry import Mesh
from .problems import ManufacturedCase


@dataclass
class ErrorRecord:
    h: float
    delta: float
    m: int
    dofs: int
    l2: float
    h1: float


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
        """The records, with each norm's fits from three levels on; a norm
        with an error that is not positive (an exact solution) has none."""
        report = cls(records=list(records))
        if len(records) >= 3:
            hs = np.array([r.h for r in records])
            for norm in ("l2", "h1"):
                errors = np.array([getattr(r, norm) for r in records])
                if np.all(errors > 0):
                    setattr(report, f"{norm}_fit", fit_rate(hs, errors))
                    setattr(report, f"{norm}_fit_guarded", guarded_fit_rate(hs, errors))
        return report

    def write_csv(self, path) -> None:
        """One row per refinement; fitted slopes appended as # comment lines."""
        with open(path, "w", newline="") as fh:
            fh.write("h,delta,m,dofs,l2,h1\n")
            for r in self.records:
                fh.write(f"{r.h!r},{r.delta!r},{r.m},{r.dofs},{r.l2!r},{r.h1!r}\n")
            for tag, fit in (("l2_slope", self.l2_fit), ("h1_slope", self.h1_fit),
                             ("l2_slope_guarded", self.l2_fit_guarded),
                             ("h1_slope_guarded", self.h1_fit_guarded)):
                if fit is not None:
                    fh.write(f"# {tag},{fit.slope!r}\n")
                    fh.write(f"# {tag}_residual,{fit.residual!r}\n")


_ERROR_CHUNK = 1024  # box elements per error-norm chunk; bounds the pass's scratch
_ERROR_AXIS_POINTS = 5  # Gauss points per axis of the error rule, so 5^d per element


def _element_gradients(mesh: Mesh, node_values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The constant gradient on each element of ``ids``, shape (len(ids), dim)."""
    _, e, det = mesh.affine_maps(ids)
    uv = node_values[mesh.elements[ids]]
    du = uv[:, 1:] - uv[:, :1]
    if mesh.dim == 1:
        return du / det[:, None]
    gx = (du[:, 0] * e[:, 1, 1] - du[:, 1] * e[:, 0, 1]) / det
    gy = (-du[:, 0] * e[:, 1, 0] + du[:, 1] * e[:, 0, 0]) / det
    return np.stack([gx, gy], axis=1)


def _exact_values(case: ManufacturedCase, points: np.ndarray):
    """``case.solution_and_gradient(points)`` if it gives one value and ``case.dim``
    gradient components per point, else ConfigError."""
    u_0, grad_0 = case.solution_and_gradient(points)
    shapes = [np.shape(u_0), *map(np.shape, grad_0)]
    if len(shapes) != 1 + case.dim or any(s != points.shape[:-1] for s in shapes):
        raise ConfigError(f"case {case.name!r} gave values of shape {shapes[0]} and"
                          f" gradient components of shapes {shapes[1:]} for {len(points)}"
                          f" points; a {case.dim}D case needs {case.dim}")
    return u_0, grad_0


def error_norms(node_values: np.ndarray, case: ManufacturedCase,
                mesh: Mesh) -> tuple[float, float]:
    """L2 and H1 errors over the box, from one pass over its elements.

    The solution and its gradient are evaluated together once per Gauss
    point, chunk by chunk; each norm's integrand is kept per point and
    summed once at the end, so the chunk size does not change either value.
    Each chunk's scratch is dropped before the next chunk builds its own, so
    the pass holds the two term arrays plus one chunk.
    """
    if case.dim != mesh.dim:
        raise ConfigError(f"case {case.name!r} is {case.dim}D but the mesh is {mesh.dim}D")
    if np.shape(node_values) != (mesh.num_nodes,):
        raise ConfigError(f"node values of shape {np.shape(node_values)} for {mesh.num_nodes} nodes")
    ids = np.flatnonzero(mesh.element_in_box)
    n_gs = _ERROR_AXIS_POINTS ** mesh.dim
    grad_h = _element_gradients(mesh, node_values, ids)  # constant per element
    l2_terms = np.empty((len(ids), n_gs))
    h1_terms = np.empty((len(ids), n_gs))
    for lo in range(0, len(ids), _ERROR_CHUNK):
        part = ids[lo:lo + _ERROR_CHUNK]
        pts, w, ref_bary = outer_rules(mesh, part, n_gs)
        u_0, grad_0 = _exact_values(case, pts.reshape(-1, mesh.dim))
        # u_h after the exact values, so it is not live while the case builds its temporaries
        uh = np.einsum("qk,ek->eq", ref_bary, node_values[mesh.elements[part]])
        sq = (uh - u_0.reshape(uh.shape)) ** 2
        # axis by axis: squares are never -0.0, so 0 + x_0 + x_1 has the bits of np.sum(axis=-1)
        gdiff = sum((grad_h[lo:lo + len(part), None, k] - g.reshape(uh.shape)) ** 2
                    for k, g in enumerate(grad_0))
        l2_terms[lo:lo + len(part)] = sq * w
        h1_terms[lo:lo + len(part)] = (sq + gdiff) * w
        del pts, w, uh, u_0, grad_0, sq, gdiff
    return math.sqrt(float(np.sum(l2_terms))), math.sqrt(float(np.sum(h1_terms)))


def l2_error(node_values: np.ndarray, case: ManufacturedCase, mesh: Mesh) -> float:
    return error_norms(node_values, case, mesh)[0]


def h1_error(node_values: np.ndarray, case: ManufacturedCase, mesh: Mesh) -> float:
    return error_norms(node_values, case, mesh)[1]


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
