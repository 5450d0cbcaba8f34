"""Model-input builders: turn a buggy method plus line range into the prompt
shape each model family expects.

Six formats: codex-insert (prefix/suffix around a BUG/FIXED comment),
codet5-mask (<extra_id_0>), plbart-mask and incoder-mask (<mask>),
codegen-prefix (text up to the buggy lines), tuned-comment (buggy lines kept
but commented). Mask formats are byte-reversible: substituting the original
buggy lines for the mask token reproduces the method text exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SpanOutsideMethod
from .nodes import MethodDecl, SourceFile, Span, method_at, method_position
from .parser import parse
from .printer import print_source

CODEX_INSERT = "codex-insert"
CODET5_MASK = "codet5-mask"
CODEGEN_PREFIX = "codegen-prefix"
PLBART_MASK = "plbart-mask"
INCODER_MASK = "incoder-mask"
TUNED_COMMENT = "tuned-comment"

FORMATS = (CODEX_INSERT, CODET5_MASK, CODEGEN_PREFIX, PLBART_MASK, INCODER_MASK,
           TUNED_COMMENT)

_MASK_TOKENS = {CODET5_MASK: "<extra_id_0>", PLBART_MASK: "<mask>", INCODER_MASK: "<mask>"}


@dataclass(frozen=True)
class PromptSpec:
    model_format: str
    max_window: Optional[int] = None  # line budget; None = unlimited

    def __post_init__(self):
        if self.model_format not in FORMATS:
            raise ValueError(f"unknown prompt format {self.model_format!r}")
        if self.max_window is not None and self.max_window < 1:
            raise ValueError("max_window must be positive")


@dataclass(frozen=True)
class PromptBundle:
    model_format: str
    text: Optional[str]  # single-text formats
    prefix: Optional[str]  # codex-insert
    suffix: Optional[str]
    mask_token: Optional[str]
    buggy_region: str  # original buggy lines, newline-joined

    def to_json_dict(self) -> dict:
        out: dict = {"format": self.model_format, "buggy_region": self.buggy_region}
        if self.text is not None:
            out["text"] = self.text
        if self.prefix is not None:
            out["prefix"] = self.prefix
            out["suffix"] = self.suffix
        if self.mask_token is not None:
            out["mask_token"] = self.mask_token
        return out


def build_prompt(
    spec: PromptSpec,
    file: SourceFile,
    method: MethodDecl,
    buggy_lines: Span,
    source_text: str | None = None,
) -> PromptBundle:
    """Assemble the model input for one buggy method.

    When source_text is omitted the file is rendered canonically and the
    method found in the rendering at its position; when given (e.g. the
    on-disk file the spans came from), spans are used against it directly.
    """
    if source_text is None:
        position = method_position(file, method)
        source_text = print_source(file)
        method = method_at(parse(source_text, file.span.file), position)

    lines = source_text.split("\n")
    m_start, m_end = method.span.start_line, method.span.end_line
    if not (m_start <= buggy_lines.start_line <= buggy_lines.end_line <= m_end):
        raise SpanOutsideMethod(
            f"buggy lines {buggy_lines.start_line}:{buggy_lines.end_line} "
            f"outside method lines {m_start}:{m_end}"
        )
    method_lines = lines[m_start - 1 : m_end]
    b0 = buggy_lines.start_line - m_start
    b1 = buggy_lines.end_line - m_start
    buggy = method_lines[b0 : b1 + 1]
    before = method_lines[:b0]
    after = method_lines[b1 + 1 :]
    region = "\n".join(buggy)
    fmt = spec.model_format

    if fmt == CODEX_INSERT:
        comment = _bug_comment(buggy)
        prefix_lines, _, suffix_lines = _fit_window(before, comment, after, spec.max_window)
        prefix = "\n".join(prefix_lines + comment)
        suffix = "\n".join(suffix_lines)
        return PromptBundle(fmt, None, prefix, suffix, None, region)

    if fmt in _MASK_TOKENS:
        token = _MASK_TOKENS[fmt]
        before_k, _, after_k = _fit_window(before, [token], after, spec.max_window)
        text = "\n".join(before_k + [token] + after_k)
        return PromptBundle(fmt, text, None, None, token, region)

    if fmt == CODEGEN_PREFIX:
        kept = before
        if spec.max_window is not None and len(kept) > spec.max_window:
            kept = kept[-spec.max_window :]
        return PromptBundle(fmt, "\n".join(kept), None, None, None, region)

    if fmt == TUNED_COMMENT:
        commented = [_comment_line(l) for l in buggy]
        before_k, _, after_k = _fit_window(before, commented, after, spec.max_window)
        text = "\n".join(before_k + commented + after_k)
        return PromptBundle(fmt, text, None, None, None, region)

    raise ValueError(f"unknown prompt format {fmt!r}")


def _indent_of(line: str) -> str:
    return line[: len(line) - len(line.lstrip())]


def _bug_comment(buggy: list[str]) -> list[str]:
    indent = _indent_of(buggy[0]) if buggy and buggy[0].strip() else ""
    if len(buggy) == 1:
        return [f"{indent}/* BUG: {buggy[0].strip()} FIXED: */"]
    return [f"{indent}/* BUG:"] + buggy + [f"{indent}FIXED: */"]


def _comment_line(line: str) -> str:
    return f"{_indent_of(line)}// buggy line: {line.strip()}"


def _fit_window(before: list[str], anchor: list[str], after: list[str],
                max_window: Optional[int]) -> tuple[list[str], list[str], list[str]]:
    """Trim context symmetrically around the anchor to fit the line budget."""
    if max_window is None:
        return before, anchor, after
    budget = max(0, max_window - len(anchor))
    if len(before) + len(after) <= budget:
        return before, anchor, after
    half = budget // 2
    keep_before = min(len(before), max(budget - len(after), half + budget % 2))
    keep_after = min(len(after), budget - keep_before)
    keep_before = min(len(before), budget - keep_after)
    return (before[len(before) - keep_before :] if keep_before else [],
            anchor,
            after[:keep_after])


def find_method_at(file: SourceFile, start_line: int, end_line: int) -> MethodDecl:
    """The innermost method whose span covers the given line range."""
    best: MethodDecl | None = None
    for cls in file.types:
        for m in cls.methods:
            if m.span.start_line <= start_line and end_line <= m.span.end_line:
                if best is None or m.span.start_line >= best.span.start_line:
                    best = m
    if best is None:
        raise SpanOutsideMethod(f"no method covers lines {start_line}:{end_line}")
    return best
