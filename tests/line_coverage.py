"""A pytest plugin that prints the lines of `src/vmorph` a test run never
reaches. It needs nothing beyond the standard library:

    PYTHONPATH=src:tests python -m pytest -p line_coverage

A line is executable when the line table of a code object compiled from
the module names it; a module's line-0 entries are left out. The plugin
starts a `sys.settrace` hook before pytest loads the conftest files, so
the lines that run when vmorph is imported count too. After the run it
prints each module's unreached lines and the total. The default run does
not load it.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types
from pathlib import Path

_PACKAGE = Path(importlib.util.find_spec("vmorph").origin).parent  # found, not imported
_PREFIX = f"{_PACKAGE}/"
_reached: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(_PREFIX):
        return None
    lines = _reached.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
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
