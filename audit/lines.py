"""Statement lines of the package that the tier-1 tests never run.

    python3 audit/lines.py [PYTEST_ARGS...]

Run from any directory of a source checkout; the tests run from its root.
The tier-1 suite runs in this process under ``sys.settrace`` and
``threading.settrace``, which record every line event in
``src/listradius/*.py``; extra arguments go to pytest, so
``python3 audit/lines.py tests/test_bounds.py`` traces one file.  Then one
line per source file lists the statements that never ran, as line ranges
of adjacent unrun statements.  A statement ran when a line event fell on
one of its own lines that holds bytecode: a simple statement's lines, a
compound statement's header lines before its body.  Docstrings and
``global`` statements hold no bytecode, and the body of
``if TYPE_CHECKING:`` runs only under a type checker; none is listed.

Code run in a child process, such as ``cli.run`` behind the tests'
``subprocess`` calls, is not traced and is listed as unrun.  The exit
status is pytest's.  Standard library and pytest only: ``coverage`` is not
a dependency.
"""
from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "listradius")


def _code_lines(code) -> set[int]:
    """Lines holding bytecode in ``code`` and the code objects within it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _skipped(node) -> bool:
    """A docstring, or an ``if TYPE_CHECKING:`` block."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def statements(path) -> list[tuple[int, int, set[int]]]:
    """(first line, last line, own lines with bytecode) of every statement
    of the file, in source order; statements without bytecode left out."""
    with open(path) as f:
        source = f.read()
    executable = _code_lines(compile(source, path, "exec"))
    found = []

    def visit(body):
        for node in body:
            if _skipped(node):
                continue
            children = [
                child
                for field in ("body", "orelse", "finalbody", "handlers")
                for child in getattr(node, field, ())
            ]
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            if children:
                end = max(first, min(child.lineno for child in children) - 1)
            else:
                end = node.end_lineno
            own = executable & set(range(first, end + 1))
            if own:
                found.append((first, node.end_lineno, own))
            for child in children:
                visit(child.body if isinstance(child, ast.ExceptHandler) else [child])

    visit(ast.parse(source, path).body)
    return sorted(found, key=lambda s: s[0])


def unrun_ranges(path, hits) -> list[tuple[int, int]]:
    """(first, last) line of each run of adjacent statements of the file
    that no line event in ``hits`` reached."""
    ranges, open_range = [], None
    for first, last, own in statements(path):
        if own & hits:
            open_range = None
        elif open_range is None:
            open_range = [first, last]
            ranges.append(open_range)
        else:
            open_range[1] = max(open_range[1], last)
    return [tuple(r) for r in ranges]


def trace_tests(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines run per package source file."""
    import pytest

    hits = {
        os.path.join(PACKAGE, name): set()
        for name in os.listdir(PACKAGE)
        if name.endswith(".py")
    }
    local_tracers = {}

    def local_tracer(lines):
        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line

        return trace_line

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = local_tracers.get(filename, False)
        if tracer is False:
            path = os.path.realpath(filename)
            tracer = local_tracer(hits[path]) if path in hits else None
            local_tracers[filename] = tracer
        return tracer

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv=None) -> int:
    os.chdir(ROOT)
    status, hits = trace_tests(sys.argv[1:] if argv is None else argv)
    total = 0
    for path in sorted(hits):
        ranges = unrun_ranges(path, hits[path])
        total += len(ranges)
        text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)
        print(f"{os.path.relpath(path, ROOT)}: {text or '-'}")
    print(f"{total} unrun ranges; pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
