"""List the function- and class-body lines of nlfem that the tier-1 tests never run.

Usage (from the repository root):

    python3 tools/coverage_lines.py [--root CHECKOUT]

Runs the tier-1 suite of CHECKOUT (default: this repository) in this
process, importing ``nlfem`` from CHECKOUT's ``src``, under a
``sys.settrace`` hook that records line events only in frames whose code
lives in that package.  A body line is one that the compiled line table of
a function, method, lambda, comprehension or class body lists, past its
``def`` or ``class`` line; module top-level lines are not counted.  Other
threads, pool workers and subprocesses are not traced.  Branch arcs are not
measured.

Prints one JSON object on stdout, and the test report on stderr: ``files``
maps each module (relative to the package) to its unrun body lines,
``body_lines``/``run``/``unrun`` are the totals, and ``pytest_exit`` is the
suite's exit code.  Uses the standard library and pytest only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def body_lines(path: Path) -> set[int]:
    """Line numbers of every code object nested in the module at ``path``,
    each without its own first (``def``/``class``/decorator) line."""
    module = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [c for c in module.co_consts if hasattr(c, "co_lines")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line != code.co_firstlineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(package: Path, run):
    """``run()``'s result and the lines it ran, in this thread, in files under
    ``package``, by path.  A trace function set before is put back afterwards.
    """
    prefix = str(package.resolve()) + os.sep
    seen: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hits = seen.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, seen


def report(package: Path, seen: dict[str, set[int]]) -> dict:
    """Each module's unrun body lines, and the totals."""
    files, total, unrun = {}, 0, 0
    for path in sorted(package.resolve().rglob("*.py")):
        lines = body_lines(path)
        missed = sorted(lines - seen.get(str(path), set()))
        files[str(path.relative_to(package.resolve()))] = missed
        total += len(lines)
        unrun += len(missed)
    return {"files": files, "body_lines": total, "run": total - unrun, "unrun": unrun}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/nlfem and tests to use")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if "nlfem" in sys.modules:
        parser.error("nlfem is already imported; its class bodies would go unseen")
    import pytest

    os.chdir(root)  # as tier-1 runs, from the checkout's root
    sys.path.insert(0, str(root / "src"))
    package = root / "src" / "nlfem"
    argv = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]
    with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the JSON
        code, seen = traced(package, lambda: pytest.main(argv))
    print(json.dumps(dict(report(package, seen), pytest_exit=int(code)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
