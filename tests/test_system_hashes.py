"""Smoke test of ``tools/system_hashes.py`` on one small config level."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

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
