"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench

The smoke tests run a shrunken variant of every workload (its coarsest
element size only, one pass) with tracing off and on, and check that every
metric BENCHMARK.json names is reported with its unit.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _shrunk(name):
    wl = run.WORKLOADS[name]
    return dataclasses.replace(wl, hs=wl.hs[:1])


@pytest.fixture(autouse=True)
def _few_setup_samples(monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 2)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_workload_reports_every_metric(trace):
    summaries = [run.run_workload(_shrunk(name), seed=0, seconds=0, trace=trace)
                 for name in run.WORKLOADS]
    line = run.result_line(summaries, trace)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= len(run.WORKLOADS)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for s in summaries:
        for metric in wanted:
            got = line["metrics"][f"{s['workload']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        assert any(text.startswith("# fail_frac=") for text in run.report(s, trace))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        return
    for s in summaries:
        wl = run.WORKLOADS[s["workload"]]
        for p in s["passes"]:
            if not p["traced"]:
                continue
            for lv in run.traced_levels(wl, p):
                # The layers' self times account for the whole traced level.
                assert sum(lv["layer_self"].values()) == pytest.approx(
                    lv["traced_wall_s"], rel=1e-2, abs=1e-3)
                assert lv["cli.self_s"] >= 0 and lv["assembly.self_s"] >= 0
                # Truncation solves are the rule-cache misses but the full rule's.
                assert lv["quadrature.trunc_solves"] == lv["quadrature.cache_misses"] - 1
                if wl.name == "perturbed2d":
                    assert lv["quadrature.cache_lookups"] > lv["quadrature.cache_misses"]


def test_corrupted_reference_is_reported_as_failure():
    wl = _shrunk("ladder1d")
    refs = run.load_references()
    refs["ladder1d"][wl.reference_key(wl.hs[0], 0)]["l2"] *= 1.001
    s = run.run_workload(wl, seed=0, seconds=0, trace=False, references=refs)
    assert s["failed"] == s["attempted"] == 1
    assert not s["correct"]
    assert "l2" in s["failures"][0]


def test_ladder1d_counts_the_known_solver_failures():
    s = run.run_workload(run.WORKLOADS["ladder1d"], seed=0, seconds=0, trace=False)
    assert s["correct"]
    assert (s["attempted"], s["failed"]) == (4, 2)
    assert all("exit 3" in f for f in s["failures"])


def _obs(h, l2, residual):
    return {"h": h, "exit": 0, "csv_ok": True, "stderr": "", "l2": l2,
            "residual": residual, "dofs": 1, "nnz": 1, "h1": 1.0}


@pytest.mark.parametrize("residual, l2, ok", [
    (1e-13, 1e-7, True),
    (1e-11, 1e-7, False),  # breaks the solve contract
    (1e-13, 1e-5, False),  # not more accurate than the coarser level
])
def test_level_without_reference(residual, l2, ok):
    wl = run.WORKLOADS["ladder1d"]
    coarser = {"l2": 1e-6}
    got_ok, wrong, _ = run.check_level(wl, 0, _obs(wl.hs[-1], l2, residual), coarser, {})
    assert (got_ok, wrong) == (ok, not ok)


@pytest.mark.parametrize("level, wrong", [
    (0, True),  # passed when the references were recorded
    (-1, False),  # recorded as exiting 3
])
def test_nonzero_exit(level, wrong):
    wl = run.WORKLOADS["ladder1d"]
    obs = dict(_obs(wl.hs[level], 1e-6, 0.0), exit=3, stderr="solve failed")
    got_ok, got_wrong, _ = run.check_level(wl, 0, obs, None, run.load_references())
    assert (got_ok, got_wrong) == (False, wrong)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ladder1d", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
