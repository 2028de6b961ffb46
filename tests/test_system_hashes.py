"""Smoke tests of ``tools/system_hashes.py`` on small config levels."""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_level_hashes_fingerprint_the_level(monkeypatch):
    tool = _load_tool()
    config = load_config(_ROOT / "configs" / "single_1d_baseline.json")
    h = config.h_values[0]
    result = _execute(config, h)
    a, rhs = result.system.matrix, result.system.rhs
    system = {"data": _sha(a.data), "indices": _sha(a.indices), "indptr": _sha(a.indptr),
              "rhs": _sha(rhs)}
    assert tool.level_hashes(config, h) == dict(
        system, l2=repr(result.record.l2), h1=repr(result.record.h1))

    def fail(_system):
        raise SolverError("synthetic breakdown")

    assemble = nlfem.cli.assemble_system
    monkeypatch.setattr(nlfem.cli, "solve_system", fail)
    # a level that fails after assembly keeps the hashes of its system
    assert tool.level_hashes(config, h) == dict(system, error="[numerical] synthetic breakdown")
    assert nlfem.cli.assemble_system is assemble


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
            assert shifts == {"bitwise": True, "matrix": 0.0, "l2": 0.0, "h1": 0.0}
        # the two sides are separate packages: scaling one side's matrices shows
        assemble = against_cli.assemble_system

        def scaled(*args, **kwargs):
            system = assemble(*args, **kwargs)
            system.matrix = system.matrix * (1 + 1e-9)
            return system

        monkeypatch.setattr(against_cli, "assemble_system", scaled)
        shifts = tool.level_shifts(config, config.h_values[0], other)
        assert shifts["matrix"] == pytest.approx(1e-9, rel=1e-6)
        assert shifts["l2"] > 0.0 and shifts["h1"] > 0.0
        assert shifts["bitwise"] is False
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == tool.AGAINST]:
            del sys.modules[name]
