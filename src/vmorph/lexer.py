"""Tokenizer for the Java subset.

Produces a flat token stream with 1-based line/column positions plus absolute
character offsets (offsets let patch recovery splice replacements back into
the original text). Comments are emitted as ordinary tokens; the parser
collects and attaches them, other consumers may skip them.

One compiled master regex, with one group per token class, matches every
token in a single `finditer` pass (the "Writing a Tokenizer" recipe of the
Python `re` docs). Whitespace (space, tab, CR, LF only) is the one thing no
group matches, so the scan skips it; a token's line and column come from the
offset of the last newline before it. Input outside the subset ends up in a
group that raises: a word that does not start with a letter, an unterminated
string or comment, a char literal, any other character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import JavaSyntaxError, UnsupportedConstruct
from .nodes import Span

KEYWORDS = frozenset(
    {
        "package", "import", "class", "if", "else", "while", "for", "switch",
        "case", "default", "break", "continue", "return", "throw", "new",
        "true", "false", "null", "public", "private", "protected", "static",
        "final", "void", "var",
    }
)

# Longest-match first.
OPERATORS = [
    "->", "&&", "||", "==", "!=", "<=", ">=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", ";", ",", ".", ":", "?", "@",
]

IDENT = "ident"
KEYWORD = "keyword"
INT = "int"
STRING = "string"
OP = "op"
COMMENT = "comment"
EOF = "eof"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
            '"': '"', "'": "'", "\\": "\\", "0": "\0"}

# Group numbers are the token classes tokenize() dispatches on. Order
# matters: an ASCII digit starts a number before it could start a word, and
# a comment is tried before the operator `/`.
_WORD, _INT, _COMMENT, _OP, _PLAIN_STRING, _ESCAPED_STRING, _OTHER_WORD, _OTHER = range(1, 9)
_TOKEN = re.compile("|".join((
    r"([A-Za-z_$][\w$]*)",
    r"([0-9]+)",
    r"(//[^\n]*|/\*(?:.*?\*/)?)",  # a bare `/*` is an unterminated comment
    "(" + "|".join(re.escape(op) for op in OPERATORS if len(op) == 2)
    + "|[" + re.escape("".join(op for op in OPERATORS if len(op) == 1)) + "])",
    r'("[^"\\\n]*")',
    r'("(?:[^"\\\n]|\\[^\n])*")',
    r"(\w[\w$]*)",  # a non-ASCII word: an identifier if it starts with a letter
    r"([^ \t\r\n])",
)), re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    kind: str
    text: str  # raw source text (escapes unprocessed for strings/comments)
    value: object  # decoded value for INT/STRING, text otherwise
    line: int
    col: int
    end_line: int
    end_col: int
    start_off: int
    end_off: int  # exclusive

    def span(self, file: str) -> Span:
        return Span(file, self.line, self.col, self.end_line, self.end_col)


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    """Lex `text` into tokens ending with an EOF token.

    Raises JavaSyntaxError on characters or literals outside the subset.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the argument handling of its __new__
    n = len(text)
    line, line_start = 1, 0
    nl = text.find("\n")  # the first newline at or after the last token's end
    if nl < 0:
        nl = n

    def err(msg: str, col: int) -> JavaSyntaxError:
        return JavaSyntaxError(Span(file, line, col, line, col), msg)

    for m in _TOKEN.finditer(text):
        s, e = m.span()
        if s > nl:
            line += text.count("\n", nl, s)
            line_start = text.rfind("\n", nl, s) + 1
            nl = text.find("\n", s)
            if nl < 0:
                nl = n
        col = s - line_start + 1
        kind = m.lastindex
        raw = m.group()
        if kind == _WORD:
            append(new(Token, (KEYWORD if raw in KEYWORDS else IDENT, raw, raw,
                               line, col, line, e - line_start, s, e)))
        elif kind == _OP:
            append(new(Token, (OP, raw, raw, line, col, line, e - line_start, s, e)))
        elif kind == _INT:
            if e < n and (text[e].isalpha() or text[e] in "_."):
                raise err("only decimal integer literals are supported", col)
            if len(raw.lstrip("0")) > 10:
                # Out of range for any int; int() of a long one raises ValueError.
                raise err("integer literal out of 32-bit range", col)
            append(new(Token, (INT, raw, int(raw), line, col, line, e - line_start, s, e)))
        elif kind == _COMMENT:
            if raw == "/*":
                raise err("unterminated block comment", col)
            start_line = line
            if e > nl:  # a block comment over several lines
                line += raw.count("\n")
                line_start = s + raw.rfind("\n") + 1
                nl = text.find("\n", e)
                if nl < 0:
                    nl = n
            append(new(Token, (COMMENT, raw, raw, start_line, col, line, e - line_start, s, e)))
        elif kind == _PLAIN_STRING:
            append(new(Token, (STRING, raw, raw[1:-1], line, col, line, e - line_start, s, e)))
        elif kind == _ESCAPED_STRING:
            for esc in _ESCAPE.finditer(raw, 1, len(raw) - 1):
                if esc[1] not in _ESCAPES:
                    raise err(f"unsupported escape '\\{esc[1]}'", col)
            value = _ESCAPE.sub(lambda esc: _ESCAPES[esc[1]], raw[1:-1])
            append(new(Token, (STRING, raw, value, line, col, line, e - line_start, s, e)))
        elif kind == _OTHER_WORD and raw[0].isalpha():
            append(new(Token, (IDENT, raw, raw, line, col, line, e - line_start, s, e)))
        elif raw == '"':
            raise err(_string_error(text, s), col)
        elif raw == "'":
            raise UnsupportedConstruct(Span(file, line, col, line, col), "char literal")
        else:
            raise err(f"unexpected character {raw[0]!r}", col)

    if n > nl:
        line += text.count("\n", nl, n)
        line_start = text.rfind("\n", nl, n) + 1
    col = n - line_start + 1
    append(new(Token, (EOF, "", None, line, col, line, col, n, n)))
    return tokens


def _string_error(text: str, start: int) -> str:
    """Why the string literal opening at `start` matched no string group:
    its first bad escape, or the end of the line or input before it closes."""
    j = start + 1
    while j < len(text) and text[j] != "\n":
        if text[j] == "\\":
            esc = text[j + 1 : j + 2]
            if esc and esc not in _ESCAPES:
                return f"unsupported escape '\\{esc}'"
            j += 2
        else:
            j += 1
    return "unterminated string literal"
