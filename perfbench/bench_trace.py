"""In-memory span recorder, attached to nlfem at its module boundaries.

The wrappers replace names in nlfem's module namespaces (``nlfem.cli``,
``nlfem.assembly``, ``nlfem.convergence``) for the duration of one traced
level and put the originals back afterwards, so no file of the package
changes.  Spans are plain dicts kept in a list and written out when the run
ends.  The program is single-threaded (``--threads 1``), so a stack is
enough to give each span its parent.
"""

from __future__ import annotations

import functools
import time

from nlfem.quadrature import default_cache


class Recorder:
    """Collects spans: id, parent id, name, level id, start, end, data."""

    def __init__(self):
        self.spans: list[dict] = []
        self.level = None
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "level": self.level,
                "start": time.perf_counter(), "end": None, "data": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()


def _wrap(rec: Recorder, fn, name: str, note=None, before=None):
    """Time ``fn`` as span ``name``; ``note(args, kwargs, result, state)`` adds
    counts, where ``state`` is what ``before()`` returned just before the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before() if before is not None else None
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if note is not None:
            span["data"] = note(args, kwargs, result, state)
        return result

    return wrapper


class _LinalgProxy:
    """Stands in for the ``scipy.sparse.linalg`` reference nlfem.assembly holds."""

    def __init__(self, module, cg):
        self._module = module
        self.cg = cg

    def __getattr__(self, name):
        return getattr(self._module, name)


def _located(args, kwargs, result, state):
    return {"points": int(len(result[0]))}


def _full_rule(args, kwargs, rule, state):
    return {"residual": float(rule.residual), "min_weight": float(rule.weights.min())}


def _subset_solve(args, kwargs, result, misses_before):
    # A call that adds no miss to the rule cache only looked the weights up.
    return {"residual": float(result[1]),
            "solved": default_cache().misses > misses_before}


def _error_points(args, kwargs, result, state):
    mesh = args[2] if len(args) > 2 else kwargs["mesh"]
    n_gs = args[3] if len(args) > 3 else kwargs.get("n_gs")
    n_gs = n_gs if n_gs is not None else 8 ** mesh.dim
    return {"points": int(mesh.element_in_box.sum()) * n_gs}


def instrument(rec: Recorder):
    """Wrap nlfem's cross-module calls with spans; returns the undo function."""
    import nlfem.assembly as assembly
    import nlfem.cli as cli
    from nlfem.convergence import ConvergenceReport

    def misses():
        return default_cache().misses

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "build_uniform_mesh", "geometry.build_uniform_mesh", None),
        (cli, "perturb_mesh", "geometry.perturb_mesh", None),
        (cli, "assemble_system", "assembly.assemble_system", None),
        (cli, "solve_system", "assembly.solve_system", None),
        (cli, "l2_error", "convergence.l2_error", _error_points),
        (cli, "h1_error", "convergence.h1_error", _error_points),
        (cli, "dump_solution_csv", "cli.dump_solution_csv", None),
        (cli, "write_convergence_svg", "cli.write_convergence_svg", None),
        (ConvergenceReport, "write_csv", "cli.write_csv", None),
        (assembly, "locate_points", "geometry.locate_points", _located),
        (assembly, "full_ball_rule", "quadrature.full_ball_rule", _full_rule),
        (assembly, "solve_weights_on_subset", "quadrature.solve_weights_on_subset",
         _subset_solve, misses),
    ]
    saved = []
    for owner, attr, name, note, *before in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, original, name, note, *before))
    linalg = assembly.sparse_linalg
    saved.append((assembly, "sparse_linalg", linalg))
    assembly.sparse_linalg = _LinalgProxy(linalg, _wrap(rec, linalg.cg, "assembly.cg"))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
