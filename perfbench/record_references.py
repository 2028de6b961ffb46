"""Record the per-level reference outputs the benchmark checks against.

Usage (from the repository root, on the commit whose outputs are the
reference):

    python3 perfbench/record_references.py

Runs one untraced pass of every workload (of seeded workloads, one per seed
0..run.REFERENCE_SEEDS-1) and writes dofs, nnz, L2 and H1 of each level to
references.json.
A level that fails is recorded with its exit code and message instead; the
benchmark treats it as having no reference.
"""

from __future__ import annotations

import json
import shutil

import run


def record(wl: run.Workload, seed: int) -> dict:
    work = run.OUT / f"record-{wl.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run.run_pass(run.write_levels(wl, seed, work), False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    entries = {}
    for obs in result["levels"]:
        if obs["exit"] == 0 and obs["csv_ok"]:
            entry = {k: obs[k] for k in ("dofs", "nnz", "l2", "h1")}
        else:
            entry = {"exit": obs["exit"], "message": obs["stderr"].strip()}
        entries[wl.reference_key(obs["h"], seed)] = entry
    return entries


def main() -> None:
    refs = {}
    for wl in run.WORKLOADS.values():
        refs[wl.name] = {}
        for seed in range(run.REFERENCE_SEEDS if wl.seeded else 1):
            refs[wl.name].update(record(wl, seed))
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
