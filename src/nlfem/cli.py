"""Batch driver: a refinement study of one or more levels from a JSON config.

Exit codes: 0 on success, 2 for configuration errors, output paths that
cannot be written and levels too large for the memory, 3 for numerical
failures.  Re-running a config with the same seed reproduces every output
except ``run.json`` byte for byte; ``run.json`` holds each level's
wall-clock phase times, which are not reproducible.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .assembly import (assemble_system, dump_matrix_market, dump_solution_csv,
                       reconstruct, solve_system)
from .convergence import ConvergenceReport, ErrorRecord, error_norms
# not called here (_execute calls error_norms), so bench_trace's timers on these
# two names never fire; kept only so that perfbench/bench_trace.py's instrument finds them
from .convergence import h1_error, l2_error  # noqa: F401
from .exceptions import ConfigError, NlfemError, _integer, _real
from .geometry import (BallNorm, BoxDomain, PerturbationSpec,
                       build_uniform_mesh, cell_counts, perturb_mesh)
from .kernels import Kernel, KernelKind
from .problems import get_case
from .quadrature import full_ball_rule
from .svgplot import write_convergence_svg

_KEYS = {
    "dimension", "kernel", "case", "m", "h", "h0", "levels", "extension",
    "outer_points", "points_per_radius", "mesh", "epsilon", "seed",
    "ball_norm",
}
_DEFAULT_LEVELS = 4


@dataclass
class RunConfig:
    dimension: int
    kernel_kind: KernelKind
    case: str
    m: int
    h_values: list[float]
    extension_mode: str  # "zero" | "delta"
    outer_points: int
    points_per_radius: int
    mesh_mode: str  # "uniform" | "perturbed"
    epsilon: float
    seed: int
    ball_norm: BallNorm

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config in ``raw`` if every level's inputs pass their checks, else ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def require(key):
            if key not in raw:
                raise ConfigError(f"missing required config key {key!r}")
            return raw[key]

        dimension = _integer("dimension", require("dimension"), ConfigError)
        try:
            kind = KernelKind(require("kernel"))
        except ValueError:
            raise ConfigError(f"kernel must be 'constant' or 'rational', got {raw['kernel']!r}") from None
        case = require("case")
        if not isinstance(case, str):
            raise ConfigError(f"case must be a string, got {case!r}")
        # 2^30 or more layer cells is 2^31 or more nodes per axis
        m = _integer("m", require("m"), ConfigError, 1, 2**30)

        if "h" in raw and ("h0" in raw or "levels" in raw):
            raise ConfigError("give either 'h' or 'h0'/'levels', not both")
        if "h" in raw:
            hs = raw["h"]
            if not isinstance(hs, list) or not hs:
                raise ConfigError("'h' must be a non-empty list of element sizes")
            hs = [_real("'h' entries", v, ConfigError) for v in hs]
            if any(v <= 0 for v in hs):
                raise ConfigError("element sizes must be positive")
            if any(a <= b for a, b in zip(hs, hs[1:])):
                raise ConfigError("'h' must be sorted in strictly descending order")
        elif "h0" in raw:
            h0 = _real("'h0'", raw["h0"], ConfigError)
            if h0 <= 0:
                raise ConfigError("'h0' must be positive")
            levels = _integer("'levels'", raw.get("levels", _DEFAULT_LEVELS), ConfigError, 1)
            if math.ldexp(h0, 1 - levels) == 0.0:
                raise ConfigError(f"'h0' halved {levels - 1} times underflows to zero")
            hs = [math.ldexp(h0, -k) for k in range(levels)]
        else:
            raise ConfigError("config needs 'h' (list) or 'h0' (+ optional 'levels')")

        ext = raw.get("extension", "delta")
        if ext not in ("zero", "delta"):
            raise ConfigError(f"extension must be 'zero' or 'delta', got {ext!r}")
        # 2^31 or more asks for at least that many Gauss points per element
        n_q = _integer("'outer_points'", raw.get("outer_points", 40 if dimension == 1 else 16),
                       ConfigError, 1, 2**31)
        if dimension == 2 and math.isqrt(n_q) ** 2 != n_q:
            raise ConfigError(f"'outer_points' must be a square number in 2D, got {n_q}")
        # 2^31 or more per radius asks for at least that many offsets per axis
        n_bar = _integer("points_per_radius", raw.get("points_per_radius", 10 if dimension == 1 else 4),
                         ConfigError, 1, 2**31)

        mesh_mode = raw.get("mesh", "uniform")
        if mesh_mode not in ("uniform", "perturbed"):
            raise ConfigError(f"mesh must be 'uniform' or 'perturbed', got {mesh_mode!r}")
        epsilon = _real("epsilon", raw.get("epsilon", 0.1), ConfigError)
        seed = raw.get("seed", 0)
        if mesh_mode == "uniform":  # no PerturbationSpec checks it
            _integer("seed", seed, ConfigError, 0, 2**64)

        try:
            ball_norm = BallNorm(raw.get("ball_norm", "euclidean"))
        except ValueError:
            raise ConfigError(f"ball_norm must be 'euclidean' or 'max', got {raw['ball_norm']!r}") from None

        case_obj = get_case(case)  # also validates the name
        if case_obj.dim != dimension:
            raise ConfigError(
                f"case {case!r} is {case_obj.dim}D but dimension is {dimension}")
        config = cls(dimension, kind, case, m, hs, ext, n_q, n_bar, mesh_mode,
                     epsilon, seed, ball_norm)
        for h in hs:
            try:
                _level_inputs(config, h)
            except NlfemError as exc:
                raise ConfigError(str(exc)) from None
        return config


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


@dataclass
class LevelResult:
    record: ErrorRecord
    node_values: "object"  # numpy array, the solution at every mesh node
    system: "object"  # assembly.DiscreteSystem
    kernel: Kernel
    assembly_s: float  # wall-clock seconds, for run.json only
    solve_s: float
    error_norms_s: float  # nodal reconstruction and error norms


def _level_inputs(config: RunConfig, h: float):
    """One level's checked domain, perturbation spec (None on a uniform mesh)
    and kernel, after its cell counts and unknowns; allocates no mesh or rule."""
    delta = config.m * h
    domain = BoxDomain.unit(config.dimension, delta,
                            delta if config.extension_mode == "delta" else 0.0)
    if min(cell_counts(h, domain)[1]) < 2:  # the unknowns are the nodes inside the box
        raise ConfigError(f"element size {h!r} leaves no unknown: the box needs 2 cells per axis")
    perturbation = (PerturbationSpec(config.epsilon, config.seed)
                    if config.mesh_mode == "perturbed" else None)
    kernel = Kernel(config.kernel_kind, config.dimension, delta, config.ball_norm)
    return domain, perturbation, kernel


def _execute(config: RunConfig, h: float) -> LevelResult:
    """Mesh, assemble, solve, and measure errors for one element size."""
    domain, perturbation, kernel = _level_inputs(config, h)
    mesh = build_uniform_mesh(h, domain)
    if perturbation is not None:
        mesh = perturb_mesh(mesh, perturbation)
    case = get_case(config.case)

    t0 = time.perf_counter()
    system = assemble_system(mesh, kernel, config.points_per_radius, config.outer_points,
                             case.source, case.solution)
    t1 = time.perf_counter()
    u = solve_system(system)
    t2 = time.perf_counter()

    node_values = reconstruct(mesh, u, case.solution)
    l2, h1 = error_norms(node_values, case, mesh)
    t3 = time.perf_counter()
    record = ErrorRecord(h=h, delta=kernel.horizon, m=config.m, dofs=mesh.num_interior, l2=l2, h1=h1)
    return LevelResult(record, node_values, system, kernel, t1 - t0, t2 - t1, t3 - t2)


@contextmanager
def _writing(path: Path):
    """Name ``path`` in an OSError raised while it is written, for ``main``'s report."""
    try:
        yield path
    except OSError as exc:
        if exc.filename is None:  # a failed write or close carries no file name
            exc.filename = str(path)
        raise


def run_study(config: RunConfig, out_dir: Path, threads: int = 1,
              dump_matrix: Path | None = None,
              dump_inner_rule: Path | None = None) -> ConvergenceReport:
    """Run every level of the refinement ladder and write report + plot.

    Levels may run in parallel, one worker per level at most; all files are
    written afterwards, in level order, so every output but ``run.json``, the
    wall-clock phase times, is identical regardless of the worker count.
    """
    levels = config.h_values
    suffixes = [f"_h{h!r}" for h in levels] if len(levels) > 1 else [""]
    # fail before the levels run, not after they are solved, and leave nothing behind
    _check_outputs(out_dir, levels, suffixes,
                   {"--dump-matrix": dump_matrix, "--dump-inner-rule": dump_inner_rule})
    workers = min(threads, len(levels))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute, [config] * len(levels), levels))
    else:
        results = [_execute(config, h) for h in levels]

    report = ConvergenceReport.from_records([r.record for r in results])
    out_dir.mkdir(parents=True, exist_ok=True)  # only once every level has run
    with _writing(out_dir / "report.csv") as path:
        report.write_csv(path)
    times = [{"h": r.record.h, "assembly_s": r.assembly_s, "solve_s": r.solve_s,
              "error_norms_s": r.error_norms_s} for r in results]
    with _writing(out_dir / "run.json") as path:
        path.write_text(json.dumps({"levels": times}, indent=1) + "\n")
    label = f"{config.kernel_kind.value}, {config.case}, m={config.m}, t_e={config.extension_mode}"
    series = [{"label": f"{norm.upper()}, {label}", "h": [r.h for r in report.records],
               "error": [getattr(r, norm) for r in report.records],
               "slope": fit.slope if fit else None}
              for norm, fit in (("l2", report.l2_fit), ("h1", report.h1_fit))]
    with _writing(out_dir / "convergence.svg") as path:
        write_convergence_svg(path, series, title=f"{config.case} ({config.mesh_mode})")
    for result, suffix in zip(results, suffixes):
        with _writing(out_dir / f"solution_h{result.record.h!r}.csv") as path:
            dump_solution_csv(result.system.mesh, result.node_values, path)
        if dump_matrix is not None:
            with _writing(_with_suffix(dump_matrix, suffix)) as path:
                dump_matrix_market(result.system, path)
        if dump_inner_rule is not None:
            with _writing(_with_suffix(dump_inner_rule, suffix)) as path:
                full_ball_rule(result.kernel, config.points_per_radius).dump_csv(path)
    return report


def _check_outputs(out_dir: Path, levels: list[float], suffixes: list[str],
                   dumps: dict[str, Path | None]) -> None:
    """Raise an OSError naming an ``out_dir`` that a file blocks, the first
    dump path that cannot be written, or the first file that two outputs
    would both write."""
    existing = next(p for p in (out_dir, *out_dir.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(existing))
    root = out_dir.resolve()
    made = {root, *root.parents}  # what out_dir.mkdir may create
    owner = {path.resolve(): "--out" for path in (
        out_dir, out_dir / "report.csv", out_dir / "run.json", out_dir / "convergence.svg",
        *(out_dir / f"solution_h{h!r}.csv" for h in levels))}
    for flag, path in dumps.items():
        if path is None:
            continue
        for target in (path, *(_with_suffix(path, s) for s in suffixes)):
            if not (target.parent.is_dir() or target.parent.resolve() in made):
                raise FileNotFoundError(errno.ENOENT, "no such directory", str(target))
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(target))
        for target in (_with_suffix(path, s) for s in suffixes):
            other = owner.setdefault(target.resolve(), flag)
            if other != flag:
                raise OSError(errno.EINVAL, f"both {other} and {flag} name this file",
                              str(target))


def _with_suffix(path: Path, suffix: str) -> Path:
    if not suffix:
        return path
    return path.with_name(path.stem + suffix + path.suffix)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlfem",
        description="Nonlocal Poisson finite element solver with ball-grid inner quadrature",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a single solve or a refinement study")
    run_p.add_argument("--config", required=True, type=Path, help="JSON run configuration")
    run_p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    run_p.add_argument("--dump-matrix", type=Path, default=None,
                       help="write the stiffness matrix in Matrix Market format")
    run_p.add_argument("--dump-inner-rule", type=Path, default=None,
                       help="write the full-ball inner quadrature rule as CSV")
    run_p.add_argument("--threads", type=int, default=1,
                       help="parallel workers for study levels (at most one per level)")
    args = parser.parse_args(argv)
    if args.threads < 1:
        run_p.error(f"argument --threads: must be at least 1, got {args.threads}")

    try:
        config = load_config(args.config)
        report = run_study(config, args.out, threads=args.threads,
                           dump_matrix=args.dump_matrix,
                           dump_inner_rule=args.dump_inner_rule)
        for r in report.records:
            print(f"h={r.h!r} dofs={r.dofs} l2={r.l2:.6e} h1={r.h1:.6e}")
        slopes = [f"{norm} slope {fit.slope:.3f}"
                  for norm, fit in (("l2", report.l2_fit), ("h1", report.h1_fit))
                  if fit is not None]
        if slopes:
            print(", ".join(slopes))
    except ConfigError as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not raised while writing an output
            raise
        print(f"[output] cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"[memory] {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except NlfemError as exc:
        print(f"[numerical] {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
