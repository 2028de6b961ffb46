"""Fingerprint every assembled system, so that two trees can be compared bitwise.

Usage (from the repository root):

    python3 tools/system_hashes.py --src PATH [--seeds 0,1,7]

Imports ``nlfem`` from PATH, the directory that holds the package (a
checkout's ``src``).  Every level of the benchmark workloads
(``perfbench/run.py``'s ``WORKLOADS``, ``perturbed2d`` once per seed) and of
every ``configs/*.json`` runs through ``nlfem.cli._execute``, the function
``nlfem run`` calls per level.  The output is one JSON object keyed by
level: the sha256 of the CSR data, indices and indptr and of the load
vector, and ``repr`` of the L2 and H1 errors; a level that fails gives the
message ``nlfem run`` would print instead, plus the hashes of its system if
assembly finished.  Run it with the ``src`` of two trees and diff the output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def level_hashes(config, h: float) -> dict:
    """Hashes and errors of one level of a ``nlfem.cli.RunConfig``."""
    import nlfem.cli as cli
    from nlfem.exceptions import ConfigError, MeshError, NlfemError

    captured = {}
    assemble = cli.assemble_system

    def probe(*args, **kwargs):
        captured["system"] = assemble(*args, **kwargs)
        return captured["system"]

    out = {}
    cli.assemble_system = probe
    try:
        record = cli._execute(config, h).record
        out.update(l2=repr(record.l2), h1=repr(record.h1))
    except NlfemError as exc:
        tag = "config" if isinstance(exc, (ConfigError, MeshError)) else "numerical"
        out["error"] = f"[{tag}] {exc}"
    finally:
        cli.assemble_system = assemble
    system = captured.get("system")
    if system is not None:
        a = system.matrix
        out.update(data=_sha(a.data), indices=_sha(a.indices), indptr=_sha(a.indptr),
                   rhs=_sha(system.rhs))
    return out


def _load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def all_levels(seeds: list[int]) -> dict:
    from nlfem.cli import RunConfig, load_config

    out = {}
    for wl in _load_workloads().values():
        for seed in (seeds if wl.seeded else [0]):
            for h in wl.hs:
                key = f"{wl.name} h={h!r}" + (f" seed={seed}" if wl.seeded else "")
                out[key] = level_hashes(RunConfig.from_dict(wl.level_config(h, seed)), h)
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = load_config(path)
        for h in config.h_values:
            out[f"configs/{path.name} h={h!r}"] = level_hashes(config, h)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the nlfem package to import")
    parser.add_argument("--seeds", default="0,1,7",
                        help="comma-separated perturbation seeds for perturbed2d")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import nlfem

    if not Path(nlfem.__file__).resolve().is_relative_to(src):
        parser.error(f"nlfem was imported from {nlfem.__file__}, not from {src}")
    seeds = [int(s) for s in args.seeds.split(",")]
    print(json.dumps(all_levels(seeds), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
