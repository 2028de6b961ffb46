"""Error norms and convergence-rate fits.

L2/H1 errors are measured against the local exact solution over the box
only (the constraint layer shrinks with the horizon and is excluded), by
Gauss quadrature per element with 8^d points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import Field, outer_rules
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
        report = cls(records=list(records))
        if len(records) >= 3:
            hs = np.array([r.h for r in records])
            report.l2_fit = fit_rate(hs, np.array([r.l2 for r in records]))
            report.h1_fit = fit_rate(hs, np.array([r.h1 for r in records]))
            report.l2_fit_guarded = guarded_fit_rate(hs, np.array([r.l2 for r in records]))
            report.h1_fit_guarded = guarded_fit_rate(hs, np.array([r.h1 for r in records]))
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


def error_norms(field_: Field, case: ManufacturedCase,
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
    ids = np.flatnonzero(mesh.element_in_box)
    n_gs = 8 ** mesh.dim
    grad_h = field_.element_gradients()  # constant per element
    l2_terms = np.empty((len(ids), n_gs))
    h1_terms = np.empty((len(ids), n_gs))
    for lo in range(0, len(ids), _ERROR_CHUNK):
        part = ids[lo:lo + _ERROR_CHUNK]
        pts, w, ref_bary = outer_rules(mesh, part, n_gs)
        uh = np.einsum("qk,ek->eq", ref_bary, field_.node_values[mesh.elements[part]])
        u_0, grad_0 = case.solution_and_gradient(pts.reshape(-1, mesh.dim))
        sq = (uh - u_0.reshape(uh.shape)) ** 2
        # axis by axis: squares are never -0.0, so 0 + x_0 + x_1 has the bits of np.sum(axis=-1)
        gdiff = sum((grad_h[part, None, k] - g.reshape(uh.shape)) ** 2
                    for k, g in enumerate(grad_0))
        l2_terms[lo:lo + len(part)] = sq * w
        h1_terms[lo:lo + len(part)] = (sq + gdiff) * w
        del pts, w, uh, u_0, grad_0, sq, gdiff
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
