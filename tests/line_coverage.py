"""A pytest plugin that prints the lines of `src/vmorph` a test run never
reaches, and the sides of its branches that no test takes. It needs nothing
beyond the standard library:

    PYTHONPATH=src:tests python -m pytest -p line_coverage

A line is executable when the line table of a code object compiled from
the module names it; a module's line-0 entries are left out. The plugin
starts a `sys.settrace` hook before pytest loads the conftest files, so
the lines that run when vmorph is imported count too. The hook also
records each step of a frame from one line to the next, and from a line
out of the frame when the frame returns; a step out of a line that raised
is not recorded.

After the run it prints each module's unreached lines and the total, then
each `if` or `while` statement whose test runs but whose true side (a
step from the test into the body) or false side (a step from the test to
anywhere else) never does. A constant test, such as `while True:`, has no
false side and is left out, and so is a statement whose body starts on its
test's line, where no step tells the sides apart. The default run does not
load it.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
import types
from pathlib import Path

_PACKAGE = Path(importlib.util.find_spec("vmorph").origin).parent  # found, not imported
_PREFIX = f"{_PACKAGE}/"
_RETURN = 0  # the line a step out of the frame goes to
_reached: dict[str, set[int]] = {}
_steps: dict[str, set[tuple[int, int]]] = {}  # (line, next line) per module


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(_PREFIX):
        return None
    lines = _reached.setdefault(path, set())
    steps = _steps.setdefault(path, set())
    lines.add(frame.f_lineno)
    last = None  # the line this frame ran last; None after it raised

    def local(frame, event, arg):
        nonlocal last
        if event == "line":
            lines.add(frame.f_lineno)
            if last is not None:
                steps.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "return" and last is not None:
            steps.add((last, _RETURN))
        elif event == "exception":
            last = None
        return local

    return local


def pytest_load_initial_conftests():
    sys.settrace(_trace)
    threading.settrace(_trace)


def executable_lines(path: Path) -> set[int]:
    """The lines that the line table of some code object of `path` names."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def untaken_sides(path: Path, steps: set[tuple[int, int]]) -> list[tuple[int, str]]:
    """(line, "true" or "false") for each side of an `if` or `while` of
    `path` whose test ran, by `steps`, and that no step took."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.If, ast.While)) or isinstance(node.test, ast.Constant):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        if body.start in test:
            continue
        ends = {end for start, end in steps if start in test and end not in test}
        if ends:
            out += [(node.lineno, side) for side, taken in (
                ("true", any(end in body for end in ends)),
                ("false", any(end not in body for end in ends))) if not taken]
    return sorted(out)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.write_sep("-", "lines of src/vmorph no test reaches")
    unreached = total = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - _reached.get(str(path), set()))
        unreached, total = unreached + len(missed), total + len(lines)
        if missed:
            terminalreporter.write_line(f"{path.name} {len(missed)}: "
                                        f"{', '.join(map(str, missed))}")
    terminalreporter.write_line(f"{unreached} of {total} executable lines unreached")
    terminalreporter.write_sep("-", "sides of src/vmorph branches no test takes")
    untaken = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        sides = untaken_sides(path, _steps.get(str(path), set()))
        untaken += len(sides)
        for line, side in sides:
            terminalreporter.write_line(f"{path.name}:{line} {side}")
    terminalreporter.write_line(f"{untaken} sides untaken")
