"""nlfem benchmark: end-to-end cost of `nlfem run`, and a traced per-layer view.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload below, or ``all`` to run every workload in turn.  One
operation is one refinement level, run as a single-level `nlfem run` through
``nlfem.cli.main``.  Levels run as separate invocations because a study
aborts as a whole on its first failing level.  The load is a closed loop: one
level at a time, in one child process per pass over the workload's levels,
with BLAS/OpenMP pools pinned to one thread and ``--threads 1``.  A pass is
started only while it is expected to end within S seconds; there is always
at least one (two with tracing: one traced, one not).

Every finished level is checked against the references recorded from the
unmodified solver in ``references.json`` (dofs, nnz, L2 and H1).  A level
without a reference must meet the solve contract (relative residual at most
1e-12) and have a smaller L2 error than its coarser neighbour.  A level that
exits non-zero or fails its check is a failed operation; one that exits 0
with wrong outputs, or exits non-zero where its reference passed, also makes
``correct`` false.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (set-up time, run time, peak memory); with
``--trace 1`` they are the per-layer ones from the traced passes.  Lines
above it, starting with ``#``, give the same numbers with sample counts,
``fail_frac``, every failure, and the run's environment.  Traced runs also
write their spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"

SOLVE_CONTRACT = 1e-12  # relative residual nlfem promises for every solve
ERROR_RTOL = 1e-6  # L2/H1 against the reference; a wrong solve is off by far more
REFERENCE_SEEDS = 100  # seeded workloads have references for seeds 0..99
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
PIN_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # nlfem config without "h" (and "seed", filled per run)
    hs: tuple[float, ...]  # coarse to fine; one operation each
    seeded: bool = False  # the workload seed is the mesh perturbation seed

    @property
    def dim(self) -> int:
        return self.config["dimension"]

    def level_config(self, h: float, seed: int) -> dict:
        cfg = dict(self.config, h=[h])
        if self.seeded:
            cfg["seed"] = seed
        return cfg

    def reference_key(self, h: float, seed: int) -> str:
        return f"{h!r}@{seed}" if self.seeded else repr(h)


_2D = {"dimension": 2, "kernel": "rational", "case": "sin2d", "m": 2}
_2D_FULL = dict(_2D, outer_points=16, points_per_radius=4)

# Why each workload exists, and which layer it stresses, is in BENCHMARK.json
# and README.md.  Sizes are set so that a pass fits several times into one
# run: each 2D halving costs about 10x in assembly at this commit.
WORKLOADS = {w.name: w for w in (
    Workload("uniform2d", dict(_2D_FULL, extension="delta", mesh="uniform"),
             (1 / 16, 1 / 32)),
    Workload("perturbed2d", dict(_2D_FULL, extension="zero", mesh="perturbed",
                                 epsilon=0.1),
             (1 / 16, 1 / 32), seeded=True),
    Workload("fine2d", dict(_2D, extension="delta", mesh="uniform",
                            outer_points=1, points_per_radius=1),
             (1 / 128,)),
    Workload("ladder1d", {"dimension": 1, "kernel": "rational", "case": "sin1d",
                          "m": 2, "extension": "delta", "mesh": "uniform",
                          "outer_points": 40, "points_per_radius": 10},
             (1 / 512, 1 / 1024, 1 / 2048, 1 / 4096)),
)}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "geometry.mesh_s": "s", "geometry.locate_s": "s", "geometry.points_located": "count",
    "quadrature.full_rule_s": "s", "quadrature.trunc_solve_s": "s",
    "quadrature.trunc_solves": "count", "quadrature.cache_misses": "count",
    "quadrature.cache_lookups": "count", "quadrature.cache_hit_ratio": "ratio",
    "quadrature.weight_residual": "abs", "quadrature.min_weight": "value",
    "assembly.assemble_s": "s", "assembly.self_s": "s", "assembly.pairs": "count",
    "assembly.scatter_entries": "count", "assembly.nnz": "count", "assembly.dofs": "count",
    "assembly.solve_s": "s", "assembly.solve_residual": "rel",
    "assembly.cg_fallbacks": "count", "convergence.error_s": "s",
    "convergence.error_points": "count", "cli.output_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


# --- running -----------------------------------------------------------------

def run_pass(levels: list[dict], trace: bool, work: Path) -> dict:
    """Start one child, time it to ``ready``, let it run ``levels``."""
    plan, result = work / "plan.json", work / "result.json"
    result.unlink(missing_ok=True)
    plan.write_text(json.dumps({"src": str(SRC / "nlfem"), "trace": trace,
                                "levels": levels, "result": str(result)}))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **PIN_THREADS)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(CHILD), str(plan)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"benchmark child exited with code {proc.returncode}")
    observed = json.loads(result.read_text())
    observed["setup_s"] = setup_s
    return observed


def write_levels(wl: Workload, seed: int, work: Path) -> list[dict]:
    """One single-level nlfem config per element size, and its plan entry."""
    levels = []
    for i, h in enumerate(wl.hs):
        config = work / f"level{i}.json"
        config.write_text(json.dumps(wl.level_config(h, seed)))
        levels.append({"id": i, "h": h, "config": str(config), "out": str(work / f"out{i}")})
    return levels


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 references: dict | None = None) -> dict:
    """Run passes over ``wl`` for ``seconds``, check them, derive the metrics."""
    if not (SRC / "nlfem" / "cli.py").is_file():
        raise BenchError(f"no nlfem sources at {SRC}; run from a repository checkout")
    references = load_references() if references is None else references
    work = OUT / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        levels = write_levels(wl, seed, work)
        passes = []
        start = time.perf_counter()
        longest = 0.0
        while (not passes or (trace and len(passes) < 2)
               or time.perf_counter() - start + longest <= seconds):
            t0 = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            result = run_pass(levels, traced, work)
            result["traced"] = traced
            passes.append(result)
            longest = max(longest, time.perf_counter() - t0)
        setup_only = []
        while not trace and len(passes) + len(setup_only) < MIN_SETUP_SAMPLES:
            setup_only.append(run_pass([], False, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome = check_passes(wl, seed, passes, references)
    summary = {"workload": wl.name, "seed": seed, "passes": passes,
               "setups": [c["setup_s"] for c in passes + setup_only], **outcome}
    if trace:
        summary["metrics"] = layer_metrics(wl, passes)
    else:
        summary["metrics"] = end_to_end_metrics(passes, summary["setups"])
    return summary


# --- checking ----------------------------------------------------------------

def check_level(wl: Workload, seed: int, obs: dict, coarser: dict | None,
                references: dict) -> tuple[bool, bool, str]:
    """(ok, wrong, reason) for one level.

    wrong means bad outputs: exit 0 with outputs that fail the check, or a
    non-zero exit on a level whose reference passed.  A level the reference
    records as failing may exit non-zero without being wrong.
    """
    ref = references.get(wl.name, {}).get(wl.reference_key(obs["h"], seed), {})
    if obs["exit"] != 0:
        passed = " (the reference passed)" if "l2" in ref else ""
        return False, "l2" in ref, (f"exit {obs['exit']}{passed}: "
                                    f"{obs['stderr'].strip()[-300:]}")
    if not obs["csv_ok"]:
        return False, True, "solution CSV does not match the solve"
    if "l2" in ref:
        for key in ("dofs", "nnz"):
            if obs[key] != ref[key]:
                return False, True, f"{key} {obs[key]} != reference {ref[key]}"
        for key in ("l2", "h1"):
            if not abs(obs[key] - ref[key]) <= ERROR_RTOL * ref[key]:
                return False, True, f"{key} {obs[key]!r} != reference {ref[key]!r}"
        return True, False, ""
    if not obs["residual"] <= SOLVE_CONTRACT:
        return False, True, f"no reference; residual {obs['residual']:.3e} > {SOLVE_CONTRACT}"
    if coarser is not None and not obs["l2"] < coarser["l2"]:
        return False, True, (f"no reference; l2 {obs['l2']!r} not below the coarser "
                             f"level's {coarser['l2']!r}")
    return True, False, ""


def check_passes(wl: Workload, seed: int, passes: list[dict], references: dict) -> dict:
    attempted = failed = 0
    correct = True
    failures = []
    for p in passes:
        coarser = None
        for obs in p["levels"]:
            ok, wrong, reason = check_level(wl, seed, obs, coarser, references)
            attempted += 1
            if not ok:
                failed += 1
                correct = correct and not wrong
                failures.append(f"h={obs['h']!r}: {reason}")
            ref = references.get(wl.name, {}).get(wl.reference_key(obs["h"], seed), {})
            coarser = obs if obs["exit"] == 0 else (ref if "l2" in ref else None)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "failures": failures}


# --- metrics -----------------------------------------------------------------

def level_times(passes: list[dict]) -> list[list[float]]:
    """Wall time of each level (all levels, failed ones too) per pass."""
    return [[obs["wall_s"] for obs in p["levels"]] for p in passes]


def end_to_end_metrics(passes: list[dict], setups: list[float]) -> dict:
    per_level = [statistics.median(level) for level in zip(*level_times(passes))]
    return {
        "setup_s": statistics.median(setups),
        "run_s": sum(per_level),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
    }


def span_self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the time covered by its children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def level_layers(wl: Workload, obs: dict, spans: list[dict]) -> dict:
    """Per-layer numbers of one traced level, from its spans and outputs."""
    own = span_self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def dur(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def own_of(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def under_assembly(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "assembly.assemble_system":
                return True
        return False

    def data(name, key):
        return [s["data"][key] for s in spans if s["name"] == name and s["data"]]

    locates = [s for s in spans if s["name"] == "geometry.locate_points" and s["data"]]
    pairs = sum(s["data"]["points"] for s in locates if under_assembly(s))
    residuals = data("quadrature.full_ball_rule", "residual") + data(
        "quadrature.solve_weights_on_subset", "residual")
    layer_self = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[s["id"]]
    return {
        "geometry.mesh_s": dur("geometry.build_uniform_mesh", "geometry.perturb_mesh"),
        "geometry.locate_s": dur("geometry.locate_points"),
        "geometry.points_located": sum(s["data"]["points"] for s in locates),
        "quadrature.full_rule_s": dur("quadrature.full_ball_rule"),
        "quadrature.trunc_solve_s": dur("quadrature.solve_weights_on_subset"),
        "quadrature.trunc_solves": sum(data("quadrature.solve_weights_on_subset",
                                            "solved")),
        "quadrature.cache_misses": obs["cache_misses"],
        "quadrature.cache_lookups": obs["cache_hits"] + obs["cache_misses"],
        "quadrature.weight_residual": max(residuals, default=0.0),
        "quadrature.min_weight": min(data("quadrature.full_ball_rule", "min_weight"),
                                     default=None),
        "assembly.assemble_s": dur("assembly.assemble_system"),
        "assembly.self_s": own_of("assembly.assemble_system"),
        "assembly.pairs": pairs,
        "assembly.scatter_entries": pairs * (2 * (wl.dim + 1)) ** 2,
        "assembly.nnz": obs.get("nnz", 0),
        "assembly.dofs": obs.get("matrix_rows", 0),
        "assembly.solve_s": dur("assembly.solve_system"),
        "assembly.solve_residual": obs.get("residual"),
        "assembly.cg_fallbacks": sum(s["name"] == "assembly.cg" for s in spans),
        "convergence.error_s": dur("convergence.l2_error", "convergence.h1_error"),
        "convergence.error_points": sum(
            data("convergence.l2_error", "points") + data("convergence.h1_error", "points")),
        "cli.output_s": dur("cli.dump_solution_csv", "cli.write_csv",
                            "cli.write_convergence_svg"),
        "cli.self_s": own_of("cli.main"),
        "layer_self": layer_self,
        "traced_wall_s": obs["wall_s"],
    }


_WORST = {"quadrature.weight_residual": max, "quadrature.min_weight": min,
          "assembly.solve_residual": max}


def traced_levels(wl: Workload, p: dict) -> list[dict]:
    spans_of = {}
    for s in p["spans"]:
        spans_of.setdefault(s["level"], []).append(s)
    return [level_layers(wl, obs, spans_of.get(obs["id"], [])) for obs in p["levels"]]


def layer_metrics(wl: Workload, passes: list[dict]) -> dict:
    """Per-layer metrics summed over the levels of each traced pass, then the
    median over traced passes; health values take the worst level instead."""
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        levels = traced_levels(wl, p)
        totals = {}
        for name in PER_LAYER_UNITS:
            values = [lv[name] for lv in levels if lv.get(name) is not None]
            totals[name] = _WORST.get(name, sum)(values) if values else 0.0
        lookups = totals["quadrature.cache_lookups"]
        totals["quadrature.cache_hit_ratio"] = (
            (lookups - totals["quadrature.cache_misses"]) / lookups if lookups else 0.0)
        per_pass.append(totals)
    run_s = {flag: statistics.median(sum(t) for t, p in zip(level_times(passes), passes)
                                     if p["traced"] == flag) for flag in (True, False)}
    metrics = {name: statistics.median(t[name] for t in per_pass)
               for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = run_s[True] - run_s[False]
    return metrics


# --- output ------------------------------------------------------------------

def environment() -> dict:
    sources = sorted((SRC / "nlfem").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pinning": PIN_THREADS,
        "src_lines": sum(f.read_bytes().count(b"\n") for f in sources),
    }


def _describe(values: list[float]) -> str:
    return (f"median={statistics.median(values):.6g} min={min(values):.6g} "
            f"max={max(values):.6g} n={len(values)}")


def report(summary: dict, trace: bool) -> list[str]:
    """Human-readable '#' lines for one workload."""
    wl = WORKLOADS[summary["workload"]]
    passes = summary["passes"]
    attempted, failed = summary["attempted"], summary["failed"]
    lines = [f"# workload={wl.name} seed={summary['seed']} trace={int(trace)} "
             f"passes={len(passes)} levels={len(passes[0]['levels'])}",
             f"# fail_frac={failed / attempted:.6g} ({failed}/{attempted} levels failed)"]
    lines += [f"#   failed: {f}" for f in dict.fromkeys(summary["failures"])]
    if wl.seeded and summary["seed"] >= REFERENCE_SEEDS:
        lines.append(f"# no reference outputs for seed {summary['seed']} (recorded for "
                     f"0..{REFERENCE_SEEDS - 1}): levels checked by solve contract and "
                     "L2 order only")
    if not trace:
        times = level_times(passes)
        lines.append(f"# setup_s [s] {_describe(summary['setups'])}")
        lines.append(f"# run_s [s] sum of per-level medians={summary['metrics']['run_s']:.6g}; "
                     f"per pass {_describe([sum(t) for t in times])}")
        for i, obs in enumerate(passes[0]["levels"]):
            lines.append(f"#   h={obs['h']!r} wall_s {_describe([t[i] for t in times])}")
        lines.append(f"# peak_rss_mb [MB] {_describe([p['rss_kb'] / 1024 for p in passes])}")
    else:
        for name, value in summary["metrics"].items():
            lines.append(f"# {name} [{PER_LAYER_UNITS[name]}] {value:.6g}")
        lookups = summary["metrics"]["quadrature.cache_lookups"]
        lines.append(f"#   cache_hit_ratio base: {lookups:.0f} lookups of the default rule cache")
        p = next(p for p in passes if p["traced"])
        for lv, obs in zip(traced_levels(wl, p), p["levels"]):
            parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(lv["layer_self"].items()))
            lines.append(f"#   h={obs['h']!r} traced wall_s={lv['traced_wall_s']:.4f} "
                         f"layer self sum={sum(lv['layer_self'].values()):.4f} ({parts})")
    info = dict(environment(), seed=summary["seed"], **passes[0]["versions"])
    lines.append(f"# info {json.dumps(info, sort_keys=True)}")
    return lines


def write_trace(summary: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{summary['workload']}-seed{summary['seed']}.json"
    spans = [dict(s, traced_pass=i) for i, p in enumerate(summary["passes"]) for s in p["spans"]]
    path.write_text(json.dumps({"workload": summary["workload"], "seed": summary["seed"],
                                "spans": spans}))
    return path


def result_line(summaries: list[dict], trace: bool) -> dict:
    """The final JSON object; metric names get the workload as prefix for ``all``."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in s["metrics"].items()})
    return {"correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(WORKLOADS[n], args.seed, args.seconds, trace) for n in names]
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print("\n".join(report(s, trace)))
        if trace:
            print(f"# spans written to {write_trace(s).relative_to(ROOT)}")
    print(json.dumps(result_line(summaries, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
