"""Batch driver: a refinement study of one or more levels from a JSON config.

Exit codes: 0 on success, 2 for configuration errors and output paths that
cannot be written, 3 for numerical failures.  Re-running a config with the
same seed reproduces every output except ``run.json`` byte for byte;
``run.json`` holds each level's wall-clock phase times, which are not
reproducible.
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
from .exceptions import ConfigError, MeshError, NlfemError
from .geometry import (BallNorm, BoxDomain, PerturbationSpec,
                       build_uniform_mesh, perturb_mesh)
from .kernels import Kernel, KernelKind
from .problems import get_case
from .quadrature import InnerGridSpec, full_ball_rule
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
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def require(key):
            if key not in raw:
                raise ConfigError(f"missing required config key {key!r}")
            return raw[key]

        dimension = _integer("dimension", require("dimension"))
        if dimension not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {dimension!r}")
        try:
            kind = KernelKind(require("kernel"))
        except ValueError:
            raise ConfigError(f"kernel must be 'constant' or 'rational', got {raw['kernel']!r}") from None
        case = require("case")
        if not isinstance(case, str):
            raise ConfigError(f"case must be a string, got {case!r}")
        m = _integer("m", require("m"), positive=True)

        if "h" in raw and ("h0" in raw or "levels" in raw):
            raise ConfigError("give either 'h' or 'h0'/'levels', not both")
        if "h" in raw:
            hs = raw["h"]
            if not isinstance(hs, list) or not hs:
                raise ConfigError("'h' must be a non-empty list of element sizes")
            hs = [_finite("'h' entries", v) for v in hs]
            if any(v <= 0 for v in hs):
                raise ConfigError("element sizes must be positive")
            if any(a <= b for a, b in zip(hs, hs[1:])):
                raise ConfigError("'h' must be sorted in strictly descending order")
        elif "h0" in raw:
            h0 = _finite("'h0'", raw["h0"])
            if h0 <= 0:
                raise ConfigError("'h0' must be positive")
            levels = _integer("'levels'", raw.get("levels", _DEFAULT_LEVELS), positive=True)
            if math.ldexp(h0, 1 - levels) == 0.0:
                raise ConfigError(f"'h0' halved {levels - 1} times underflows to zero")
            hs = [math.ldexp(h0, -k) for k in range(levels)]
        else:
            raise ConfigError("config needs 'h' (list) or 'h0' (+ optional 'levels')")

        ext = raw.get("extension", "delta")
        if ext not in ("zero", "delta"):
            raise ConfigError(f"extension must be 'zero' or 'delta', got {ext!r}")
        n_q = _integer("'outer_points'", raw.get("outer_points", 40 if dimension == 1 else 16),
                       positive=True)
        if dimension == 2 and math.isqrt(n_q) ** 2 != n_q:
            raise ConfigError(f"'outer_points' must be a square number in 2D, got {n_q}")
        n_bar = _integer("'points_per_radius'",
                         raw.get("points_per_radius", 10 if dimension == 1 else 4), positive=True)

        mesh_mode = raw.get("mesh", "uniform")
        if mesh_mode not in ("uniform", "perturbed"):
            raise ConfigError(f"mesh must be 'uniform' or 'perturbed', got {mesh_mode!r}")
        epsilon = _finite("epsilon", raw.get("epsilon", 0.1))
        if mesh_mode == "perturbed" and not 0.0 <= epsilon < 0.5:
            raise ConfigError(f"epsilon must lie in [0, 0.5), got {epsilon}")
        seed = _integer("seed", raw.get("seed", 0))
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")

        try:
            ball_norm = BallNorm(raw.get("ball_norm", "euclidean"))
        except ValueError:
            raise ConfigError(f"ball_norm must be 'euclidean' or 'max', got {raw['ball_norm']!r}") from None

        case_obj = get_case(case)  # also validates the name
        if case_obj.dim != dimension:
            raise ConfigError(
                f"case {case!r} is {case_obj.dim}D but dimension is {dimension}")
        return cls(dimension, kind, case, m, hs, ext, n_q, n_bar, mesh_mode,
                   epsilon, seed, ball_norm)


def _integer(name: str, value, positive: bool = False) -> int:
    """A JSON integer (booleans excluded), at least 1 if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def _finite(name: str, value) -> float:
    """A JSON number (booleans excluded) that is finite as a float."""
    # the comparison is False for NaN and exact for integers beyond the float range
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


@dataclass
class LevelResult:
    record: ErrorRecord
    field: "object"  # assembly.Field
    system: "object"  # assembly.DiscreteSystem
    kernel: Kernel
    spec: InnerGridSpec
    assembly_s: float  # wall-clock seconds, for run.json only
    solve_s: float
    error_norms_s: float  # nodal reconstruction and error norms


def _execute(config: RunConfig, h: float) -> LevelResult:
    """Mesh, assemble, solve, and measure errors for one element size."""
    delta = config.m * h
    extension = delta if config.extension_mode == "delta" else 0.0
    domain = BoxDomain.unit(config.dimension, delta, extension)
    mesh = build_uniform_mesh(h, domain)
    if config.mesh_mode == "perturbed":
        mesh = perturb_mesh(mesh, PerturbationSpec(config.epsilon, config.seed))
    case = get_case(config.case)
    kernel = Kernel(config.kernel_kind, config.dimension, delta, config.ball_norm)
    spec = InnerGridSpec(config.points_per_radius)

    t0 = time.perf_counter()
    system = assemble_system(mesh, kernel, spec, config.outer_points,
                             case.source, case.solution)
    t1 = time.perf_counter()
    u = solve_system(system)
    t2 = time.perf_counter()

    field_ = reconstruct(mesh, u, case.solution)
    l2, h1 = error_norms(field_, case, mesh)
    t3 = time.perf_counter()
    record = ErrorRecord(h=h, delta=delta, m=config.m, dofs=mesh.num_interior, l2=l2, h1=h1)
    return LevelResult(record, field_, system, kernel, spec, t1 - t0, t2 - t1, t3 - t2)


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
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(threads, len(levels))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute, [config] * len(levels), levels))
    else:
        results = [_execute(config, h) for h in levels]

    report = ConvergenceReport.from_records([r.record for r in results])
    with _writing(out_dir / "report.csv") as path:
        report.write_csv(path)
    times = [{"h": r.record.h, "assembly_s": r.assembly_s, "solve_s": r.solve_s,
              "error_norms_s": r.error_norms_s} for r in results]
    with _writing(out_dir / "run.json") as path:
        path.write_text(json.dumps({"levels": times}, indent=1) + "\n")
    label = f"{config.kernel_kind.value}, {config.case}, m={config.m}, t_e={config.extension_mode}"
    series = [{
        "label": "L2, " + label,
        "h": [r.h for r in report.records],
        "error": [r.l2 for r in report.records],
        "slope": report.l2_fit.slope if report.l2_fit else None,
    }, {
        "label": "H1, " + label,
        "h": [r.h for r in report.records],
        "error": [r.h1 for r in report.records],
        "slope": report.h1_fit.slope if report.h1_fit else None,
    }]
    with _writing(out_dir / "convergence.svg") as path:
        write_convergence_svg(path, series, title=f"{config.case} ({config.mesh_mode})")
    for result, suffix in zip(results, suffixes):
        with _writing(out_dir / f"solution_h{result.record.h!r}.csv") as path:
            dump_solution_csv(result.field, path)
        if dump_matrix is not None:
            with _writing(_with_suffix(dump_matrix, suffix)) as path:
                dump_matrix_market(result.system, path)
        if dump_inner_rule is not None:
            with _writing(_with_suffix(dump_inner_rule, suffix)) as path:
                full_ball_rule(result.kernel, result.spec).dump_csv(path)
    return report


def _check_outputs(out_dir: Path, levels: list[float], suffixes: list[str],
                   dumps: dict[str, Path | None]) -> None:
    """Raise an OSError naming the first dump path that cannot be written,
    or the first file that two outputs would both write."""
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
    except ConfigError as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 2
    try:
        report = run_study(config, args.out, threads=args.threads,
                           dump_matrix=args.dump_matrix,
                           dump_inner_rule=args.dump_inner_rule)
        for r in report.records:
            print(f"h={r.h!r} dofs={r.dofs} l2={r.l2:.6e} h1={r.h1:.6e}")
        if report.l2_fit is not None:
            print(f"l2 slope {report.l2_fit.slope:.3f}, "
                  f"h1 slope {report.h1_fit.slope:.3f}")
    except (ConfigError, MeshError) as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not raised while writing an output
            raise
        print(f"[output] cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except NlfemError as exc:
        print(f"[numerical] {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
