"""One benchmark pass in a fresh process.

Usage: python3 child.py PLAN.json

Prints ``ready`` once its imports, ``nlfem.cli`` among them, are done: the
parent times child start to that line as set-up.  Then it runs each level of
the plan as one single-level ``nlfem run`` through ``nlfem.cli.main`` and
writes what it observed as JSON to the plan's result file.  Checking those
observations is the parent's job.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import nlfem.cli
import nlfem.quadrature

import bench_trace


def _install_probe(captured: dict):
    """Keep the assembled system and the solution for the checks after the run.

    Two extra Python calls per level; they compute nothing inside the timed
    region.
    """
    cli = nlfem.cli
    assemble, solve = cli.assemble_system, cli.solve_system

    def assemble_probe(*args, **kwargs):
        captured["system"] = assemble(*args, **kwargs)
        return captured["system"]

    def solve_probe(*args, **kwargs):
        captured["u"] = solve(*args, **kwargs)
        return captured["u"]

    cli.assemble_system, cli.solve_system = assemble_probe, solve_probe

    def restore():
        cli.assemble_system, cli.solve_system = assemble, solve

    return restore


def _observe(level: dict, captured: dict, code) -> dict:
    """Outputs of a finished level: report row, matrix size, residual, CSV."""
    obs = {}
    system = captured.get("system")
    if system is not None:
        obs["nnz"] = int(system.matrix.nnz)
        obs["matrix_rows"] = int(system.matrix.shape[0])
    if code != 0:
        return obs
    u = captured["u"]
    a, f = system.matrix, system.rhs
    norm_f = float(np.linalg.norm(f))
    obs["residual"] = float(np.linalg.norm(a @ u - f)) / (norm_f if norm_f > 0 else 1.0)

    out = Path(level["out"])
    with open(out / "report.csv") as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    row = dict(zip(rows[0], rows[1]))
    obs.update(dofs=int(row["dofs"]), l2=float(row["l2"]), h1=float(row["h1"]))

    solutions = sorted(out.glob("solution_h*.csv"))
    csv_ok = len(solutions) == 1
    if csv_ok:
        table = np.loadtxt(solutions[0], delimiter=",", skiprows=1, ndmin=2)
        csv_ok = (table.shape[0] == system.mesh.num_nodes
                  and np.array_equal(table[system.interior_nodes, -1], u))
    obs["csv_ok"] = bool(csv_ok)
    return obs


def run_level(level: dict, rec) -> dict:
    captured: dict = {}
    cache = nlfem.quadrature.default_cache()
    cache.clear()  # a fresh `nlfem run` starts with an empty rule cache
    undo = [_install_probe(captured)]
    if rec is not None:
        rec.level = level["id"]
        undo.append(bench_trace.instrument(rec))
    argv = ["run", "--config", level["config"], "--out", level["out"], "--threads", "1"]
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = nlfem.cli.main(argv)
            except Exception:  # a crash is a failed level, not a failed pass
                code = None
                traceback.print_exc(file=stderr)
            wall = time.perf_counter() - t0
    finally:
        for restore in reversed(undo):
            restore()
    obs = {"id": level["id"], "h": level["h"], "wall_s": wall, "exit": code,
           "stderr": stderr.getvalue()[-2000:],
           "cache_hits": cache.hits, "cache_misses": cache.misses}
    obs.update(_observe(level, captured, code))
    return obs


def main(plan_path: str) -> int:
    src = Path(nlfem.cli.__file__).resolve().parent
    with open(plan_path) as fh:
        plan = json.load(fh)
    if src != Path(plan["src"]).resolve():
        print(f"benchmarking nlfem from {src}, expected {plan['src']}", file=sys.stderr)
        return 2
    rec = bench_trace.Recorder() if plan["trace"] else None
    levels = [run_level(level, rec) for level in plan["levels"]]
    result = {
        "levels": levels,
        "spans": rec.spans if rec is not None else [],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    print("ready", flush=True)
    sys.exit(main(sys.argv[1]))
