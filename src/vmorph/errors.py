"""Exception types shared across the toolkit, and reading a UTF-8 file."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

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
