"""List the source lines of src/lattact that a test run never executes.

Runs pytest in this process under a sys.settrace line tracer limited to
the files of src/lattact, then compares the lines that ran with the
executable lines read from each module's syntax tree: every statement
line except `def`/`class` headers, docstrings and comments. Prints the
count per module, the total, and one `file:line` entry per unreached
line. Extra arguments go to pytest, e.g.

    python3 tools/unreached_lines.py -q -x tests/test_walls.py

Standard library only. Tracing slows the suite several times over, so a
wall-clock budget in the tests may be exceeded under it; such a failure
says nothing about the code.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lattact")


def executable_lines(path: str) -> set:
    """First lines of the statements of a module, leaving out function and
    class headers and docstring expressions."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        lines.add(node.lineno)
    return lines


def main(argv: list) -> int:
    import pytest

    sources = {
        os.path.join(PACKAGE, name): executable_lines(os.path.join(PACKAGE, name))
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py")
    }
    hit = {path: set() for path in sources}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename in hit:
            hit[filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv] if argv else ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    missing = []
    for path, lines in sources.items():
        left = sorted(lines - hit[path])
        total += len(left)
        name = os.path.relpath(path, ROOT)
        print(f"{name}: {len(left)} unreached of {len(lines)}")
        missing.extend(f"{name}:{n}" for n in left)
    print(f"total: {total} unreached")
    print("\n".join(missing))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
