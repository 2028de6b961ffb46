"""Fingerprint every assembled system, so that two trees can be compared bitwise.

Usage (from the repository root):

    python3 tools/system_hashes.py --src PATH [--seeds 0,1,7] [--against OTHER]

Imports ``nlfem`` from PATH, the directory that holds the package (a
checkout's ``src``).  Every level of the benchmark workloads
(``perfbench/run.py``'s ``WORKLOADS``, ``perturbed2d`` once per seed) and of
every ``configs/*.json`` runs through ``nlfem.cli._execute``, the function
``nlfem run`` calls per level.  The output is one JSON object keyed by
level: the sha256 of the CSR data, indices and indptr, of the load vector
and of the solution at every mesh node, and ``repr`` of the L2 and H1
errors; a level that fails gives the message ``nlfem run`` would print
instead of the solution and errors, plus the hashes of its system if
assembly finished.  ``assembly_peak_mb`` is the ``tracemalloc`` peak of the
assemble call alone, in 10^6 bytes: unlike the process's peak RSS, heap
layout and allocation order cannot move it.  Run it with the ``src`` of two
trees and diff the output.

With ``--against OTHER`` it also imports the package in OTHER (another
checkout's ``src``) as ``nlfem_against``, runs every level on both trees,
and prints per level how far OTHER lies from PATH instead: ``matrix``, the
max relative matrix difference max|A' - A| / max|A|; ``solution``, the max
relative solution difference max|u' - u| / max|u| over the mesh nodes;
``l2_abs``/``h1_abs``, the absolute error shifts |e' - e|; ``l2``/``h1``,
the same shifts relative to max(e, ``ERROR_FLOOR``); and ``bitwise``, true
when both trees give the level the same hashes (the solution's included)
and errors, or the same failure message.  ``assembly_peak_mb`` and
``against_assembly_peak_mb`` are the two trees' assembly peaks, which
``bitwise`` does not compare.  A level that fails on either tree gives its
``error``/``against_error`` message and leaves out what it lacks.  Two bitwise equal trees read 0 and ``bitwise``
true everywhere.  ``largest_shifts`` gives the worst of each shift over all
levels, with the level that has it, and ``criterion_10_misses`` the levels
whose matrix moved by more than ``CRITERION_10`` or has no shift.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
AGAINST = "nlfem_against"
# Relative error shifts divide by at least this.  An error near roundoff (the
# patch test's L2 6.3e-13, the perturbed linear case's 1.6e-7 at h=1/128)
# turns a roundoff-sized move of 3e-15 into a relative one of 5e-3 or 2e-8;
# every error of a smooth sin case is 5.3e-6 or more, so those read unchanged.
ERROR_FLOOR = 1e-6
SHIFT_KEYS = ("matrix", "solution", "l2_abs", "l2", "h1_abs", "h1")
# Criterion 10: assembled matrices that agree to this, relative to max|A|, are the same.
CRITERION_10 = 1e-13


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def run_level(config, h: float, package: str = "nlfem"):
    """Run one level of a ``RunConfig`` of ``package``.

    Returns the assembled system (None if assembly did not finish), the
    ``cli.LevelResult`` (None if the level failed), the failure message, and
    the traced peak of the assemble call in MB (None if it never ran).
    """
    cli = importlib.import_module(f"{package}.cli")
    errors = importlib.import_module(f"{package}.exceptions")
    captured = {}
    assemble = cli.assemble_system

    def probe(*args, **kwargs):
        tracemalloc.start()
        try:
            captured["system"] = assemble(*args, **kwargs)
        finally:
            captured["peak"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        return captured["system"]

    result = message = None
    cli.assemble_system = probe
    try:
        result = cli._execute(config, h)
    except errors.NlfemError as exc:
        config_error = isinstance(exc, (errors.ConfigError, errors.MeshError))
        message = f"[{'config' if config_error else 'numerical'}] {exc}"
    finally:
        cli.assemble_system = assemble
    return captured.get("system"), result, message, captured.get("peak")


def level_hashes(config, h: float) -> dict:
    """Hashes, errors and assembly peak of one level of a ``nlfem.cli.RunConfig``."""
    *level, peak = run_level(config, h)
    out = _fingerprint(*level)
    if peak is not None:
        out["assembly_peak_mb"] = peak
    return out


def _fingerprint(system, result, message) -> dict:
    """``level_hashes`` of what ``run_level`` returned."""
    out = {"error": message} if result is None else {"l2": repr(result.record.l2),
                                                      "h1": repr(result.record.h1),
                                                      "solution": _sha(result.node_values)}
    if system is not None:
        a = system.matrix
        out.update(data=_sha(a.data), indices=_sha(a.indices), indptr=_sha(a.indptr),
                   rhs=_sha(system.rhs))
    return out


def _relative(difference: float, scale: float) -> float:
    return float(difference / scale) if scale else float(difference)


def compare(mine, theirs) -> dict:
    """How far the other tree's (system, result, message) of one level lies from this tree's."""
    system, result, message = mine
    other, other_result, other_message = theirs
    out = {"bitwise": _fingerprint(*mine) == _fingerprint(*theirs)}
    if message is not None:
        out["error"] = message
    if other_message is not None:
        out["against_error"] = other_message
    if system is not None and other is not None and other.matrix.shape == system.matrix.shape:
        a = system.matrix
        out["matrix"] = _relative(abs(other.matrix - a).max(), abs(a).max())
    if result is not None and other_result is not None:
        u, other_u = result.node_values, other_result.node_values
        if other_u.shape == u.shape:
            out["solution"] = _relative(np.abs(other_u - u).max(), np.abs(u).max())
        for key in ("l2", "h1"):
            error = getattr(result.record, key)
            shift = abs(getattr(other_result.record, key) - error)
            out[f"{key}_abs"] = float(shift)
            out[key] = float(shift / max(abs(error), ERROR_FLOOR))
    return out


def level_shifts(config, h: float, against_config) -> dict:
    """How far one level on the ``nlfem_against`` tree lies from ``nlfem``'s."""
    *mine, peak = run_level(config, h)
    *theirs, other_peak = run_level(against_config, h, AGAINST)
    out = compare(mine, theirs)
    if peak is not None:
        out["assembly_peak_mb"] = peak
    if other_peak is not None:
        out["against_assembly_peak_mb"] = other_peak
    return out


def largest_shifts(shifts: dict) -> dict:
    """Each of ``SHIFT_KEYS``' largest value over the levels of ``shifts``, with its level."""
    return {key: max(((level[key], name) for name, level in shifts.items() if key in level),
                     default=(0.0, "no level"))
            for key in SHIFT_KEYS}


def criterion_10_misses(shifts: dict) -> list[str]:
    """The levels of ``shifts`` whose ``matrix`` shift exceeds ``CRITERION_10``
    or is NaN, or that have none (one tree failed assembly, or the shapes differ)."""
    return [name for name, level in shifts.items()
            if not level.get("matrix", np.inf) <= CRITERION_10]


def _load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def level_configs(seeds: list[int], package: str = "nlfem"):
    """(level key, ``RunConfig`` of ``package``, h) for every level."""
    cli = importlib.import_module(f"{package}.cli")
    for wl in _load_workloads().values():
        for seed in (seeds if wl.seeded else [0]):
            for h in wl.hs:
                key = f"{wl.name} h={h!r}" + (f" seed={seed}" if wl.seeded else "")
                yield key, cli.RunConfig.from_dict(wl.level_config(h, seed)), h
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = cli.load_config(path)
        for h in config.h_values:
            yield f"configs/{path.name} h={h!r}", config, h


def all_levels(seeds: list[int]) -> dict:
    return {key: level_hashes(config, h) for key, config, h in level_configs(seeds)}


def all_shifts(seeds: list[int]) -> dict:
    pairs = zip(level_configs(seeds), level_configs(seeds, AGAINST))
    return {key: level_shifts(config, h, other) for (key, config, h), (_, other, _) in pairs}


def import_against(src: Path):
    """Import the nlfem package held in ``src`` as ``nlfem_against``."""
    package = Path(src) / "nlfem"
    spec = importlib.util.spec_from_file_location(
        AGAINST, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module  # its relative imports resolve through this entry
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the nlfem package to import")
    parser.add_argument("--seeds", default="0,1,7",
                        help="comma-separated perturbation seeds for perturbed2d")
    parser.add_argument("--against", type=Path,
                        help="directory holding a second nlfem package to compare with")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import nlfem

    if not Path(nlfem.__file__).resolve().is_relative_to(src):
        parser.error(f"nlfem was imported from {nlfem.__file__}, not from {src}")
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.against is None:
        out = all_levels(seeds)
    else:
        import_against(args.against.resolve())
        out = all_shifts(seeds)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
