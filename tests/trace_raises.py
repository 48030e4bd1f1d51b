"""List every `raise` in src/ramseykit that the tier-1 suite never runs.

    PYTHONPATH=src python tests/trace_raises.py [extra pytest arguments...]

Run it from the repository root, as the tier-1 suite is run.  It runs
the tier-1 suite in this process under a `sys.settrace` line tracer
that follows only frames of src/ramseykit/*.py, then parses those files
and prints each `raise` statement whose first line never ran.  Exits 1
when any is listed (or when the suite fails), so an error path that no
test reaches shows up as a failure.  Work done in subprocesses (the
module-invocation tests, perfbench) is not traced.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ramseykit")
SOURCES = sorted(
    os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
)

executed: dict[str, set[int]] = {path: set() for path in SOURCES}


def _tracer(frame, event, arg):
    lines = executed.get(frame.f_code.co_filename)
    if lines is None:
        return None  # not ramseykit: trace none of this frame's lines

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def unreached_raises() -> list[tuple[str, int]]:
    missed = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.lineno not in executed[path]:
                missed.append((os.path.relpath(path, ROOT), node.lineno))
    return sorted(missed)


def main(argv: list[str]) -> int:
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unreached_raises()
    for path, lineno in missed:
        print(f"raise never reached: {path}:{lineno}")
    print(f"{len(missed)} unreached raise statement(s) in src/ramseykit")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
