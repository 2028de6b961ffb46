import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlfem.cli
from nlfem.assembly import dump_matrix_market
from nlfem.cli import _KEYS, RunConfig, load_config, main, run_study
from nlfem.exceptions import ConfigError, SolverError
from nlfem.geometry import BoxDomain, cell_counts
from nlfem.quadrature import InnerQuadratureRule, full_ball_rule


def _base_config(**overrides):
    raw = {
        "dimension": 1,
        "kernel": "rational",
        "case": "sin1d",
        "m": 2,
        "h": [0.0625, 0.03125],
        "points_per_radius": 4,
        "outer_points": 10,
    }
    raw.update(overrides)
    return raw


def _write(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys.*'te'"):
        RunConfig.from_dict(_base_config(te="delta"))


def test_non_integer_m_rejected():
    with pytest.raises(ConfigError, match="m must be"):
        RunConfig.from_dict(_base_config(m=1.5))


def test_empty_h_rejected():
    with pytest.raises(ConfigError, match="non-empty"):
        RunConfig.from_dict(_base_config(h=[]))


def test_unsorted_h_rejected():
    with pytest.raises(ConfigError, match="descending"):
        RunConfig.from_dict(_base_config(h=[0.03125, 0.0625]))


def test_h_and_h0_conflict():
    with pytest.raises(ConfigError, match="not both"):
        RunConfig.from_dict(_base_config(h0=0.1))


def test_halving_ladder_default_levels():
    raw = _base_config()
    del raw["h"]
    raw["h0"] = 0.25
    config = RunConfig.from_dict(raw)
    assert config.h_values == [0.25, 0.125, 0.0625, 0.03125]


@pytest.mark.parametrize("overrides", [
    {"h0": "abc"}, {"scaling": "x"}, {"h": [math.inf]}, {"dimension": True},
    {"case": ["a"]}, {"scaling": math.nan}, {"h0": 0.25, "levels": 2000},
    {"dimension": 2, "case": "sin2d", "outer_points": 10}, {"seed": -1}, {"seed": 2**64},
    {"h": [0.0625, 0.0]}, {"h0": 0.0}, {"mesh": "curved"},
    {"mesh": "perturbed", "epsilon": 0.5}, {"mesh": "perturbed", "epsilon": -0.1},
    # the mesh checks of every level, and integers too large to convert to a float
    {"h": [0.3]}, {"h": [0.25, 0.125, 1e-320]}, {"m": 10**400},
    {"points_per_radius": 10**400}, {"outer_points": 10**400},
])
def test_main_rejects_bad_config_value(tmp_path, capsys, overrides):
    raw = _base_config(**overrides)
    if "h0" in overrides:
        del raw["h"]
    path = _write(tmp_path, raw)
    with pytest.raises(ConfigError):  # refused when loaded, before any level runs
        load_config(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config]") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_seed_range_is_64_bit():
    for seed in (0, 2**64 - 1):
        assert RunConfig.from_dict(_base_config(seed=seed)).seed == seed


_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=8),
    st.sampled_from([1, 2, 4, 0.25, 0.1, [0.25, 0.125], "rational", "constant", "sin1d",
                     "linear1d", "sin2d", "delta", "zero", "uniform", "perturbed",
                     "euclidean", "max"]),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


# from_dict only, never main: a fuzzed m or levels can ask for an arbitrarily large mesh
@settings(derandomize=True, deadline=None, max_examples=200)
@given(overrides=st.dictionaries(st.sampled_from(sorted(_KEYS)), _ANY_VALUE, max_size=3),
       dropped=st.sampled_from([None, "h", "case", "m", "dimension", "kernel"]))
def test_from_dict_fuzz(overrides, dropped):
    """Any mix of real keys and JSON-like values: a finite config or ConfigError."""
    raw = _base_config(**overrides)
    raw.pop(dropped, None)
    try:
        config = RunConfig.from_dict(raw)
    except ConfigError:
        return
    floats = [*config.h_values, config.epsilon]
    assert all(isinstance(v, float) and math.isfinite(v) for v in floats)
    for h in config.h_values:  # raises MeshError for a level the mesh cannot be built at
        cell_counts(h, BoxDomain.unit(config.dimension, config.m * h))


def test_case_dimension_mismatch():
    with pytest.raises(ConfigError, match="1D"):
        RunConfig.from_dict(_base_config(dimension=2, case="sin1d",
                                         points_per_radius=2, outer_points=4))


def test_run_single_writes_solution(tmp_path):
    config = RunConfig.from_dict(_base_config(h=[0.0625]))
    record = run_study(config, tmp_path).records[0]
    assert record.dofs == 15
    assert record.l2 > 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "convergence.svg").exists()
    files = list(tmp_path.glob("solution_h*.csv"))
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header == "id,x,u"


def test_run_study_outputs(tmp_path):
    raw = _base_config(h=[0.125, 0.0625, 0.03125])
    config = RunConfig.from_dict(raw)
    report = run_study(config, tmp_path)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "convergence.svg").exists()
    assert len(list(tmp_path.glob("solution_h*.csv"))) == 3
    assert report.l2_fit is not None
    text = (tmp_path / "report.csv").read_text()
    assert text.startswith("h,delta,m,dofs,l2,h1\n")
    svg = (tmp_path / "convergence.svg").read_text()
    # svg scatter points carry the same values the csv records
    for r in report.records:
        assert f"error={r.l2!r}" in svg
        assert f"{r.l2!r}" in text


def test_study_rerun_byte_identical(tmp_path):
    raw = _base_config(mesh="perturbed", epsilon=0.1, seed=77,
                       h=[0.125, 0.0625, 0.03125])
    config = RunConfig.from_dict(raw)
    run_study(config, tmp_path / "a")
    run_study(config, tmp_path / "b")
    for name in ["report.csv", "convergence.svg"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for sol in (tmp_path / "a").glob("solution_h*.csv"):
        assert sol.read_bytes() == (tmp_path / "b" / sol.name).read_bytes()


@pytest.mark.parametrize("overrides", [
    {"h": [0.125, 0.0625]},
    {"dimension": 2, "case": "sin2d", "h": [0.25, 0.125], "outer_points": 4,
     "points_per_radius": 2, "mesh": "perturbed", "seed": 3, "extension": "zero"},
], ids=["1d-uniform", "2d-perturbed"])
def test_threaded_study_matches_sequential(tmp_path, overrides):
    """Every output but run.json, the dumps among them, is the same bytes with
    1 and 2 workers, and each dump is its level's matrix and full-ball rule."""
    config = RunConfig.from_dict(_base_config(**overrides))
    for name, threads in (("seq", 1), ("par", 2)):
        run_study(config, tmp_path / name, threads=threads, dump_matrix=True, dump_inner_rule=True)
    names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
    assert names == sorted(["report.csv", "run.json", "convergence.svg", *(
        f"{stem}_h{h!r}.{ext}" for h in config.h_values
        for stem, ext in (("solution", "csv"), ("matrix", "mtx"), ("inner_rule", "csv")))])
    for name in names:
        if name != "run.json":
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
    for h in config.h_values:
        level = nlfem.cli._execute(config, h)
        dump_matrix_market(level.system, tmp_path / "A.mtx")
        full_ball_rule(level.kernel, config.points_per_radius).dump_csv(tmp_path / "rule.csv")
        for name, direct in ((f"matrix_h{h!r}.mtx", "A.mtx"),
                             (f"inner_rule_h{h!r}.csv", "rule.csv")):
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / direct).read_bytes()


def test_run_json_holds_the_level_times_in_level_order(tmp_path):
    hs = [0.125, 0.0625, 0.03125]
    config = RunConfig.from_dict(_base_config(h=hs))
    runs = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        run_study(config, out, threads=threads)
        runs[threads] = json.loads((out / "run.json").read_text())
        levels = runs[threads]["levels"]
        assert [level["h"] for level in levels] == hs
        for level in levels:
            assert list(level) == ["h", "assembly_s", "solve_s", "error_norms_s"]
            times = list(level.values())[1:]
            assert all(isinstance(t, float) and math.isfinite(t) and t >= 0 for t in times)
    assert list(runs[1]) == list(runs[2]) == ["levels"]
    # every other output is the same bytes whatever the worker count
    names = sorted(p.name for p in (tmp_path / "t1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "t2").iterdir())
    assert names == sorted(["report.csv", "run.json", "convergence.svg",
                            *(f"solution_h{h!r}.csv" for h in hs)])
    for name in names:
        if name != "run.json":
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, _base_config(h=[0.0625]))
    assert main(["run", "--config", str(ok), "--out", str(tmp_path / "out")]) == 0

    bad_key = _write(tmp_path, _base_config(bogus=1), "bad1.json")
    assert main(["run", "--config", str(bad_key)]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    # 1/h not an integer: mesh precondition, reported as config error
    bad_h = _write(tmp_path, _base_config(h=[0.3]), "bad2.json")
    assert main(["run", "--config", str(bad_h), "--out", str(tmp_path / "o2")]) == 2
    assert "integer" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()

    missing = _write(tmp_path, {"dimension": 1}, "bad3.json")
    assert main(["run", "--config", str(missing)]) == 2


@pytest.mark.parametrize("raw", [
    {"dimension": 1, "kernel": "constant", "case": "linear1d", "m": 1, "h": [1.0]},
    {"dimension": 1, "kernel": "constant", "case": "linear1d", "m": 1, "h": [1.0, 0.5, 0.25]},
    {"dimension": 2, "kernel": "rational", "case": "sin2d", "m": 1, "h": [1.0]},
], ids=["1d-single", "1d-study", "2d-single"])
def test_main_rejects_a_level_without_unknowns(tmp_path, capsys, raw):
    """A box of one cell on some axis has no interior node: refused before any level runs."""
    path = _write(tmp_path, raw)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "[config] element size 1.0 leaves no unknown: the box needs 2 cells per axis\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dimension, h, message", [
    (1, 1e-320, "must be finite: got ratio inf"), (1, 1e-300, "2**31 or more nodes"),
    (1, 1e-10, "2**31 or more nodes"), (2, 1e-5, "2**31 or more nodes"),
    (1, 1 / (2**31 - 5), "2**31 or more nodes"),  # 2**31 - 5 box cells + 4 layer + 1
], ids=["1e-320", "1e-300", "1d-1e-10", "2d-1e-5", "1d-2**31-nodes"])
def test_main_rejects_mesh_too_large_to_build(tmp_path, capsys, dimension, h, message):
    """Rejected before any allocation, as a config error instead of a traceback."""
    overrides = {"h": [h]}
    if dimension == 2:
        overrides.update(dimension=2, case="sin2d", outer_points=4, points_per_radius=2)
    path = _write(tmp_path, _base_config(**overrides))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config]") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("not_a_config, message", [
    ("[0.25, 0.125]", "must be a JSON object"), (None, "cannot read config file"),
    # json refuses integers of over 4300 digits with a plain ValueError
    pytest.param('{"m": 1' + "0" * 5000 + "}", "valid JSON", id="5001-digit-integer"),
])
def test_main_rejects_unreadable_config(tmp_path, capsys, not_a_config, message):
    path = tmp_path / "config.json"  # not written when None: the path does not exist
    if not_a_config is not None:
        path.write_text(not_a_config)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config]") and message in err and "Traceback" not in err


def test_main_dump_flags(tmp_path):
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--dump-matrix", "--dump-inner-rule"])
    assert code == 0
    assert (out / "matrix_h0.0625.mtx").read_text().startswith("%%MatrixMarket")
    assert (out / "inner_rule_h0.0625.csv").read_text().startswith("offset_x,weight")


@pytest.mark.parametrize("flag, target, switches", [
    ("--out", "a_file", []),
    ("--out", "a_file", ["--dump-matrix"]),
    ("--out", "a_file", ["--dump-inner-rule"]),
], ids=["--out-a_file", "--out-a_file---dump-matrix", "--out-a_file---dump-inner-rule"])
def test_main_rejects_unwritable_output_path(tmp_path, capsys, monkeypatch, flag, target,
                                             switches):
    from nlfem import cli

    executed = []
    monkeypatch.setattr(cli, "_execute", lambda *args: executed.append(args))
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    (tmp_path / "a_file").write_text("")
    path = str(tmp_path / target)
    # a repeated --out replaces the first one
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, path, *switches]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("[output] cannot write") and path in err
    assert not executed  # refused before any level ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "config.json"]


@pytest.mark.parametrize("switches", [
    [], ["--dump-matrix"], ["--dump-inner-rule"], ["--dump-matrix", "--dump-inner-rule"],
], ids=["none", "matrix", "inner-rule", "both"])
def test_main_writes_the_dumps_its_switches_ask_for(tmp_path, switches):
    cfg = _write(tmp_path, _base_config(h=[0.125, 0.0625]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), *switches]) == 0
    stems = [("solution", "csv")]
    stems += [("matrix", "mtx")] if "--dump-matrix" in switches else []
    stems += [("inner_rule", "csv")] if "--dump-inner-rule" in switches else []
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["report.csv", "run.json", "convergence.svg",
         *(f"{stem}_h{h!r}.{ext}" for h in (0.125, 0.0625) for stem, ext in stems)])


@pytest.mark.parametrize("name", ["matrix_h{}.mtx", "inner_rule_h{}.csv"],
                         ids=["matrix", "inner-rule"])
@pytest.mark.parametrize("h, blocked", [
    ([0.0625], 0.0625),  # single level
    ([0.125, 0.0625], 0.125),  # several levels: the first level's dump
    ([0.125, 0.0625], 0.0625),  # several levels: the last level's dump
], ids=["h0", "h1", "h2"])
def test_main_reports_a_dump_name_that_is_a_directory(tmp_path, capsys, name, h, blocked):
    """A directory in ``--out`` at a dump's name is reported once the levels ran."""
    cfg = _write(tmp_path, _base_config(h=h))
    out = tmp_path / "out"
    path = out / name.format(repr(blocked))
    path.mkdir(parents=True)
    argv = ["run", "--config", str(cfg), "--out", str(out), "--dump-matrix", "--dump-inner-rule"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"[output] cannot write {path}: Is a directory\n"
    assert path.is_dir() and not any(path.iterdir())
    # outputs are written in level order, so the blocked level's solution came first
    assert (out / f"solution_h{blocked!r}.csv").read_text().startswith("id,x,u\n")


def test_main_dumps_into_the_out_directory_it_creates(tmp_path):
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    out = tmp_path / "new" / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--dump-matrix"]) == 0
    assert (out / "matrix_h0.0625.mtx").read_text().startswith("%%MatrixMarket")


def test_main_study_dumps_one_file_per_level_and_prints_slopes(tmp_path, capsys):
    cfg = _write(tmp_path, _base_config(h=[0.25, 0.125, 0.0625]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--dump-matrix", "--dump-inner-rule"]) == 0
    suffixes = ["_h0.25", "_h0.125", "_h0.0625"]
    assert sorted(p.name for p in out.glob("matrix*")) == sorted(f"matrix{s}.mtx" for s in suffixes)
    for suffix in suffixes:
        assert (out / f"matrix{suffix}.mtx").read_text().startswith("%%MatrixMarket")
        assert (out / f"inner_rule{suffix}.csv").read_text().startswith("offset_x,weight")
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and re.fullmatch(r"l2 slope \d\.\d{3}, h1 slope \d\.\d{3}", out[-1])


@pytest.mark.parametrize("hs", [[0.5], [0.5, 0.25], [0.5, 0.25, 0.125]],
                         ids=["one-level", "two-levels", "three-levels"])
def test_main_runs_a_study_with_an_exact_solution(tmp_path, monkeypatch, capsys, hs):
    """A level whose L2 and H1 errors read exactly 0.0 is a result: the plot
    leaves the level out, no rate is fitted, and every file is written.

    linear1d is exact, but its errors at h = 0.5 read about 4e-17 on the
    5-point error rule (the 8-point rule gave 0.0 by a roundoff coincidence),
    so that level's norms are set to zero here.
    """
    from nlfem import cli
    from nlfem.convergence import error_norms

    def exact_at_coarsest(node_values, case, mesh):
        return (0.0, 0.0) if mesh.spacing == 0.5 else error_norms(node_values, case, mesh)

    monkeypatch.setattr(cli, "error_norms", exact_at_coarsest)
    cfg = _write(tmp_path, {"dimension": 1, "kernel": "constant", "case": "linear1d",
                            "m": 1, "h": hs, "extension": "delta", "outer_points": 1,
                            "points_per_radius": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h=0.5 dofs=1 l2=0.000000e+00 h1=0.000000e+00"
    assert len(lines) == len(hs)  # no slope line
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["convergence.svg", "report.csv", "run.json", *(f"solution_h{h!r}.csv" for h in hs)])
    assert "#" not in (out / "report.csv").read_text()
    svg = (out / "convergence.svg").read_text()
    assert svg.count("<circle") == 2 * (len(hs) - 1) and "error=0.0<" not in svg


@pytest.mark.parametrize("owner, writer, name", [
    (nlfem.cli, "dump_solution_csv", "solution_h0.0625.csv"),
    (nlfem.cli, "dump_matrix_market", "matrix_h0.0625.mtx"),
    (InnerQuadratureRule, "dump_csv", "inner_rule_h0.0625.csv"),
], ids=["solution", "matrix", "inner-rule"])
def test_main_reports_an_out_file_that_fails_after_opening(tmp_path, monkeypatch, capsys,
                                                           owner, writer, name):
    """A write that fails after its file opened raises ENOSPC with no file name."""
    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(owner, writer, full)
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--dump-matrix", "--dump-inner-rule"]
    assert main(argv) == 2
    path = tmp_path / "out" / name
    assert capsys.readouterr().err == f"[output] cannot write {path}: No space left on device\n"


def test_main_propagates_an_os_error_raised_outside_output_writing(tmp_path, monkeypatch):
    from nlfem import cli

    def broken(config, h):
        raise OSError(errno.EIO, "synthetic read failure")

    monkeypatch.setattr(cli, "_execute", broken)
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    with pytest.raises(OSError, match="synthetic read failure") as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.filename is None


def test_main_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    from nlfem import cli

    def boom(*args, **kwargs):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr(cli, "_execute", boom)
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "numerical" in capsys.readouterr().err


def test_main_names_the_mask_and_level_of_a_failed_masked_solve(tmp_path, capsys):
    """With one point per radius and extension zero, a 2D layer ball keeps
    too few of its 4 points for the 3 second moments.  The one stderr line
    names how many it kept, the moments and the horizon m h of the level."""
    cfg = _write(tmp_path, {"dimension": 2, "kernel": "rational", "case": "sin2d", "m": 2,
                            "h": [0.5, 0.25], "extension": "zero", "outer_points": 1,
                            "points_per_radius": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "[numerical] inner rule constraint residual 8.165e-01 exceeds tolerance: a truncated"
        " ball kept 1 of the full rule's 4 points for its 3 second moments, at horizon 1.0\n")


# Each draw is one small level; 768 configs make up the whole grid.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(dimension=st.sampled_from([1, 2]), m=st.sampled_from([1, 3, 5]),
       points_per_radius=st.sampled_from([1, 2]), outer_points=st.sampled_from([1, 4]),
       extension=st.sampled_from(["zero", "delta"]), kernel=st.sampled_from(["constant", "rational"]),
       ball_norm=st.sampled_from(["euclidean", "max"]), perturbed=st.booleans(),
       h=st.sampled_from([0.5, 0.25]))
def test_small_valid_configs_exit_cleanly(dimension, m, points_per_radius, outer_points,
                                          extension, kernel, ball_norm, perturbed, h):
    """A valid config either runs (exit 0, nothing on stderr) or fails its
    numerics (exit 3, one ``[numerical]`` line), never with a traceback."""
    raw = {"dimension": dimension, "kernel": kernel, "case": f"sin{dimension}d", "m": m,
           "h": [h], "extension": extension, "outer_points": outer_points,
           "points_per_radius": points_per_radius, "ball_norm": ball_norm,
           "mesh": "perturbed" if perturbed else "uniform", "epsilon": 0.49}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        cfg = _write(Path(tmp), raw)
        code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (code == 3 and len(lines) == 1
                                        and lines[0].startswith("[numerical] "))


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 29.1 TiB for an array"),
     "[memory] Unable to allocate 29.1 TiB for an array\n"),
    (MemoryError(), "[memory] out of memory\n"),
], ids=["numpy-message", "bare"])
def test_main_reports_a_level_too_large_for_memory(tmp_path, monkeypatch, capsys, exc, message):
    # a level whose arrays cannot be allocated exits 2 with one line, no traceback
    from nlfem import cli

    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "_execute", too_large)
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("exc, out, code", [
    (MemoryError(), "o1", 2),
    (SolverError("synthetic breakdown"), "o2/deeper", 3),
], ids=["memory", "numerical"])
def test_a_failed_level_leaves_no_out_directory(tmp_path, monkeypatch, exc, out, code):
    from nlfem import cli

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "_execute", fail)
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == code
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(path)


def test_max_norm_configuration_runs(tmp_path):
    raw = _base_config(h=[0.0625], ball_norm="max", kernel="constant")
    config = RunConfig.from_dict(raw)
    record = run_study(config, tmp_path).records[0]
    assert np.isfinite(record.l2)


def test_max_norm_2d_study_converges(tmp_path):
    # the default scaling must normalize the square's moments, not the disc's
    raw = _base_config(dimension=2, kernel="constant", case="sin2d", ball_norm="max",
                       h=[0.125, 0.0625], outer_points=16, points_per_radius=4)
    records = run_study(RunConfig.from_dict(raw), tmp_path).records
    assert records[1].l2 < records[0].l2 / 3


@pytest.mark.parametrize("threads,levels,workers", [
    (6, 2, [2]), (2, 3, [2]), (4, 1, []), (1, 3, []),
])
def test_study_pool_has_at_most_one_worker_per_level(tmp_path, monkeypatch,
                                                     threads, levels, workers):
    created = []

    class InlinePool:
        """ProcessPoolExecutor stand-in: records ``max_workers``, maps in-process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    raw = _base_config(h=[0.125, 0.0625, 0.03125][:levels])
    report = run_study(RunConfig.from_dict(raw), tmp_path, threads=threads)
    assert len(report.records) == levels
    assert created == workers


_UNUSED_MODULES = ("scipy.sparse.linalg", "scipy.linalg", "multiprocessing",
                   "concurrent.futures.process")

_RUN_IN_A_FRESH_PROCESS = """\
import json, sys
from nlfem import cli
for i, config in enumerate(sys.argv[2:]):
    assert cli.main(["run", "--config", config, "--out", f"out{i}", "--threads", "1"]) == 0
print(json.dumps([name for name in json.loads(sys.argv[1]) if name in sys.modules]))
"""


def test_a_run_loads_no_solver_or_pool_module(tmp_path):
    """One worker solves with numpy PCG in this process, so neither scipy's
    solvers (and the LAPACK modules behind them) nor a process pool load."""
    configs = [
        _write(tmp_path, _base_config(h=[0.125]), "tiny1d.json"),
        _write(tmp_path, _base_config(dimension=2, case="sin2d", h=[0.25], outer_points=4,
                                      points_per_radius=2), "tiny2d.json"),
    ]
    src = str(Path(nlfem.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _RUN_IN_A_FRESH_PROCESS,
                           json.dumps(_UNUSED_MODULES), *map(str, configs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []  # main prints each report first


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_main_rejects_bad_thread_count(tmp_path, capsys, value):
    cfg = _write(tmp_path, _base_config(h=[0.0625]))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    ("scaling", 2.0), ("load_points", 10), ("error_points", 64), ("record_timings", True),
])
def test_main_rejects_removed_key(tmp_path, capsys, key, value):
    path = _write(tmp_path, _base_config(**{key: value}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] unknown config keys") and key in err
    assert "Traceback" not in err


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_schema_lists_every_key():
    text = _README.read_text()
    section = text.split("### Config schema", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert documented == _KEYS


def test_readme_library_example_runs(capsys):
    text = _README.read_text()
    code = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    l2 = float(capsys.readouterr().out)
    assert 0.0 < l2 < 1e-3
