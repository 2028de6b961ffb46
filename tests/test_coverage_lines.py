"""Tests of ``tools/coverage_lines.py`` on a synthetic package."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

_MODULE = textwrap.dedent('''\
    import math

    TOP = math.pi


    def sign(x):
        """A docstring is no line of code."""
        if x < 0:
            return -1
        return 1


    class Box:
        size = 2

        @property
        def area(self):
            return self.size ** 2
    ''')


def _load_tool():
    spec = importlib.util.spec_from_file_location("coverage_lines",
                                                  _ROOT / "tools" / "coverage_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("xs, unrun", [((3,), [9]), ((3, -3), [])], ids=["dead-branch", "all-run"])
def test_reports_the_body_lines_a_run_leaves_out(tmp_path, xs, unrun):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(_MODULE)
    tool = _load_tool()
    # the top level (lines 1, 3, 6 and 13) and the docstring hold no body line
    assert tool.body_lines(package / "mod.py") == {8, 9, 10, 14, 16, 17, 18}

    def run():
        spec = importlib.util.spec_from_file_location("synthetic_mod", package / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return [module.sign(x) for x in xs], module.Box().area

    before = sys.gettrace()
    result, seen = tool.traced(package, run)
    assert result == ([1, -1][:len(xs)], 4)
    assert sys.gettrace() is before  # a tracer running the whole suite stays in place
    assert tool.report(package, seen) == {"files": {"mod.py": unrun}, "body_lines": 7,
                                          "run": 7 - len(unrun), "unrun": len(unrun)}
