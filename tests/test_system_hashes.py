"""Smoke tests of ``tools/system_hashes.py`` on small config levels."""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

import nlfem.cli
from nlfem.cli import _execute, load_config
from nlfem.exceptions import SolverError

_ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("system_hashes",
                                                  _ROOT / "tools" / "system_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _holding(func, n_bytes):
    """``func``, holding ``n_bytes`` of float64 scratch through each call."""
    def call(*args, **kwargs):
        held = np.ones(n_bytes // 8)
        out = func(*args, **kwargs)
        del held
        return out
    return call


def test_level_hashes_fingerprint_the_level(monkeypatch):
    tool = _load_tool()
    config = load_config(_ROOT / "configs" / "single_1d_baseline.json")
    h = config.h_values[0]
    result = _execute(config, h)
    a, rhs = result.system.matrix, result.system.rhs
    system = {"data": _sha(a.data), "indices": _sha(a.indices), "indptr": _sha(a.indptr),
              "rhs": _sha(rhs)}
    hashes = tool.level_hashes(config, h)
    assert hashes.pop("assembly_peak_mb") > 0
    assert hashes == dict(system, l2=repr(result.record.l2), h1=repr(result.record.h1),
                          solution=_sha(result.node_values))

    def fail(_system):
        raise SolverError("synthetic breakdown")

    assemble = nlfem.cli.assemble_system
    monkeypatch.setattr(nlfem.cli, "solve_system", fail)
    # a level that fails after assembly keeps the hashes and peak of its system
    hashes = tool.level_hashes(config, h)
    assert hashes.pop("assembly_peak_mb") > 0
    assert hashes == dict(system, error="[numerical] synthetic breakdown")
    assert nlfem.cli.assemble_system is assemble


def test_assembly_peak_traces_the_assemble_call_alone(monkeypatch):
    """``assembly_peak_mb`` is the traced peak of the assemble call in 10^6
    bytes: 16 MB held through assembly add 16 to it, 32 MB held through the
    solve add nothing, and no trace is left running."""
    import tracemalloc

    tool = _load_tool()
    config = load_config(_ROOT / "configs" / "single_1d_baseline.json")
    h = config.h_values[0]
    base = tool.level_hashes(config, h)["assembly_peak_mb"]
    assert 0 < base < 16 and not tracemalloc.is_tracing()

    monkeypatch.setattr(nlfem.cli, "solve_system", _holding(nlfem.cli.solve_system, 32_000_000))
    assert tool.level_hashes(config, h)["assembly_peak_mb"] == pytest.approx(base, abs=0.1)
    monkeypatch.setattr(nlfem.cli, "assemble_system",
                        _holding(nlfem.cli.assemble_system, 16_000_000))
    assert tool.level_hashes(config, h)["assembly_peak_mb"] == pytest.approx(base + 16, abs=0.1)
    assert not tracemalloc.is_tracing()


def test_level_shifts_of_a_tree_against_itself_read_zero(monkeypatch):
    tool = _load_tool()
    against = tool.import_against(Path(nlfem.cli.__file__).resolve().parents[1])
    try:
        against_cli = importlib.import_module(f"{tool.AGAINST}.cli")
        assert against is not nlfem and against_cli is not nlfem.cli
        for name in ("single_1d_baseline.json", "study_2d_perturbed.json"):
            path = _ROOT / "configs" / name
            config, other = load_config(path), against_cli.load_config(path)
            shifts = tool.level_shifts(config, config.h_values[0], other)
            peak, other_peak = shifts.pop("assembly_peak_mb"), shifts.pop("against_assembly_peak_mb")
            assert other_peak == pytest.approx(peak, abs=0.1)
            assert shifts == {"bitwise": True, "matrix": 0.0, "solution": 0.0,
                              "l2_abs": 0.0, "l2": 0.0, "h1_abs": 0.0, "h1": 0.0}
        # the two sides are separate packages: scaling one side's matrices shows
        assemble = against_cli.assemble_system

        def scaled(*args, **kwargs):
            system = assemble(*args, **kwargs)
            system.matrix = system.matrix * (1 + 1e-9)
            return system

        # the peaks are reported, never part of bitwise
        monkeypatch.setattr(against_cli, "assemble_system", _holding(assemble, 16_000_000))
        shifts = tool.level_shifts(config, config.h_values[0], other)
        assert shifts["against_assembly_peak_mb"] == pytest.approx(
            shifts["assembly_peak_mb"] + 16, abs=0.1)
        assert shifts["bitwise"] is True
        monkeypatch.setattr(against_cli, "assemble_system", scaled)
        shifts = tool.level_shifts(config, config.h_values[0], other)
        assert shifts["matrix"] == pytest.approx(1e-9, rel=1e-6)
        assert shifts["l2"] > 0.0 and shifts["h1"] > 0.0
        assert shifts["bitwise"] is False
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == tool.AGAINST]:
            del sys.modules[name]


def _level(u, l2, h1):
    """A synthetic (system, result, message) of a level with solution ``u``."""
    matrix = scipy.sparse.csr_matrix([[2.0, -1.0], [-1.0, 2.0]])
    system = SimpleNamespace(matrix=matrix, rhs=np.ones(2))
    result = SimpleNamespace(record=SimpleNamespace(l2=l2, h1=h1), node_values=np.array(u))
    return system, result, None


def test_compare_reports_solution_and_error_shifts():
    tool = _load_tool()
    smooth = _level([1.0, -2.0], 1e-3, 1e-1)
    moved = _level([1.0, -2.0 + 4e-13], 1e-3 + 1e-11, 1e-1)
    assert tool.compare(smooth, smooth) == {"bitwise": True, "matrix": 0.0, "solution": 0.0,
                                            "l2_abs": 0.0, "l2": 0.0, "h1_abs": 0.0, "h1": 0.0}
    shifts = tool.compare(smooth, moved)
    assert shifts == {"bitwise": False, "matrix": 0.0, "solution": pytest.approx(2e-13),
                      "l2_abs": pytest.approx(1e-11), "l2": pytest.approx(1e-8),
                      "h1_abs": 0.0, "h1": 0.0}

    # an exact solution's error is roundoff: a 3e-15 move of a 6e-13 error
    # reads 3e-15 / ERROR_FLOOR = 3e-9 relative, not 5e-3
    exact = tool.compare(_level([1.0, 1.0], 6e-13, 2e-12), _level([1.0, 1.0], 6e-13 + 3e-15, 2e-12))
    assert exact["l2_abs"] == pytest.approx(3e-15)
    assert exact["l2"] == pytest.approx(3e-15 / tool.ERROR_FLOOR) and tool.ERROR_FLOOR == 1e-6

    message = "[numerical] linear solve failed: relative residual=2.543e-12"
    failed = (smooth[0], None, message)
    assert tool.compare(failed, failed) == {"bitwise": True, "error": message,
                                            "against_error": message, "matrix": 0.0}

    largest = tool.largest_shifts({"exact": exact, "smooth": shifts, "failed": {"bitwise": True}})
    assert largest == {"matrix": (0.0, "smooth"), "solution": (pytest.approx(2e-13), "smooth"),
                       "l2_abs": (pytest.approx(1e-11), "smooth"),
                       "l2": (pytest.approx(1e-8), "smooth"),
                       "h1_abs": (0.0, "smooth"), "h1": (0.0, "smooth")}
    assert tool.largest_shifts({})["l2"] == (0.0, "no level")


def test_bitwise_covers_the_solution():
    """A solution moved by roundoff with unchanged system and errors is not bitwise."""
    tool = _load_tool()
    shifts = tool.compare(_level([1.0, -2.0], 1e-3, 1e-1), _level([1.0, -2.0 + 4e-13], 1e-3, 1e-1))
    assert shifts["bitwise"] is False
    assert shifts["solution"] == pytest.approx(2e-13)


def test_criterion_10_misses_lists_moved_and_unmatched_matrices():
    tool = _load_tool()
    assert tool.CRITERION_10 == 1e-13
    shifts = {"same": {"bitwise": True, "matrix": 0.0},
              "at the bound": {"bitwise": False, "matrix": 1e-13},
              "moved": {"bitwise": False, "matrix": 2e-13},
              "unassembled": {"bitwise": False, "error": "[config] bad mesh"},
              "not a number": {"bitwise": False, "matrix": float("nan")}}
    assert tool.criterion_10_misses(shifts) == ["moved", "unassembled", "not a number"]
    assert tool.criterion_10_misses({}) == []
