"""The benchmark's tracer (``perfbench/bench_trace.py``) still sees nlfem's calls.

The tracer wraps names in nlfem's module namespaces.  If a refactor renames
one, or stops calling it through the module global, the traced per-layer
counts silently read zero; these checks fail instead.
"""

import importlib.util
from pathlib import Path

import nlfem.assembly
import nlfem.cli
from nlfem import BoxDomain, Kernel, KernelKind, build_uniform_mesh

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_trace", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_open_under_assembly():
    bench_trace = _load_tracer()
    originals = {name: getattr(nlfem.assembly, name) for name in
                 ("locate_points", "full_ball_rule", "solve_weights_on_subset")}
    rec = bench_trace.Recorder()
    restore = bench_trace.instrument(rec)  # raises AttributeError on a missing name
    try:
        h = 1 / 16
        mesh = build_uniform_mesh(h, BoxDomain.unit(1, 2 * h))  # extension zero: truncated balls
        kernel = Kernel(KernelKind.RATIONAL, 1, 2 * h)
        nlfem.cli.assemble_system(mesh, kernel, 2, 2)
    finally:
        restore()
    for name, fn in originals.items():
        assert getattr(nlfem.assembly, name) is fn

    by_id = {span["id"]: span for span in rec.spans}
    for name in ("geometry.locate_points", "quadrature.full_ball_rule",
                 "quadrature.solve_weights_on_subset"):
        spans = [span for span in rec.spans if span["name"] == name]
        assert spans, f"no {name} span"
        assert all(by_id[span["parent"]]["name"] == "assembly.assemble_system"
                   for span in spans)
    located = sum(span["data"]["points"] for span in rec.spans
                  if span["name"] == "geometry.locate_points")
    assert located > 0
