"""Exception types shared across the toolkit, and its file formats: UTF-8
and bundled data files read, JSON read with field checks and written."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .nodes import Span


class VmorphError(Exception):
    """Base class for all toolkit errors."""


class JavaSyntaxError(VmorphError):
    """Malformed input inside the supported grammar."""

    def __init__(self, span: "Span", message: str):
        self.span = span
        self.message = message
        super().__init__(f"{span.file}:{span.start_line}:{span.start_col}: {message}")


class UnsupportedConstruct(VmorphError):
    """Syntactically recognizable Java that lies outside the subset."""

    def __init__(self, span: "Span", construct: str):
        self.span = span
        self.construct = construct
        super().__init__(
            f"{span.file}:{span.start_line}:{span.start_col}: "
            f"unsupported construct: {construct}"
        )


class UnresolvedIdentifier(VmorphError):
    """Warning-level diagnostic: a use with no visible declaration."""

    def __init__(self, name: str, span: "Span"):
        self.name = name
        self.span = span
        super().__init__(f"{span.file}:{span.start_line}: unresolved identifier {name!r}")


class StaleDictionary(VmorphError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"dictionary entry {name!r} resolves to no site in the project")


class NotApplicable(VmorphError):
    """A structural rule's precondition failed at a site."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class UnsupportedForEvaluation(VmorphError):
    """Method (or a construct reached at run time) is outside the oracle subset."""

    def __init__(self, span: "Span", detail: str = ""):
        self.span = span
        self.detail = detail
        super().__init__(
            f"{span.file}:{span.start_line}: not evaluable: {detail or 'unsupported construct'}"
        )


class SpanOutsideMethod(VmorphError):
    pass


class GenerationFailure(VmorphError):
    def __init__(self, vuln_id: str, variant: str, cause: str):
        self.vuln_id = vuln_id
        self.variant = variant
        self.cause = cause
        super().__init__(f"{vuln_id}/{variant}: {cause}")


class InsufficientSamples(VmorphError):
    pass


class RunnerNotFound(VmorphError):
    pass


def not_utf8(e: UnicodeDecodeError) -> str:
    return f"not UTF-8: {e.reason} at byte {e.start}"


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a VmorphError naming the file if it is not
    UTF-8."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as e:
        raise VmorphError(f"{path}: {not_utf8(e)}") from e


def data_lines(name: str, path: str | Path | None = None) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of the file at `path`, or
    of the bundled data file `name` when `path` is None, that is neither
    blank nor a `#` comment; a VmorphError naming a file that is not UTF-8."""
    if path is not None:
        text = read_utf8(path)
    else:
        text = resources.files("vmorph.data").joinpath(name).read_text("utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def dump_json(value) -> str:
    """The text every JSON output file holds: `value` with sorted keys and a
    two-space indent, ending in a newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def parse_json(text: str):
    """The JSON value `text` holds; a VmorphError if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise VmorphError(f"not JSON: {e}") from e


def load_json(path: str | Path, build):
    """`build` of the JSON value in `path`; a VmorphError naming the file if
    it is not UTF-8 JSON or `build` rejects it."""
    text = read_utf8(path)
    try:
        return build(parse_json(text))
    except VmorphError as e:
        raise VmorphError(f"{path}: {e}") from e


def check_fields(data, fields, optional=()) -> None:
    """A VmorphError naming the first of `fields` (key, check, what the check
    wants) that the JSON object `data` lacks, else the first of `fields` and
    `optional` that it holds and fails."""
    if not isinstance(data, dict):
        raise VmorphError("expected a JSON object")
    for key, _, _ in fields:
        if key not in data:
            raise VmorphError(f"missing field {key!r}")
    for key, ok, want in (*fields, *optional):
        if key in data and not ok(data[key]):
            raise VmorphError(f"field {key!r} must be {want}, not {data[key]!r}")
