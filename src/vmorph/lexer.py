"""Tokenizer for the Java subset.

`tokenize` returns a `Tokens`: parallel arrays over the code tokens (every
token but the comments, ending with EOF), which the parser and patch
recovery read directly. They hold each token's kind, raw text and start
offset; a token ends at its start plus the length of its text. INT and
STRING tokens also have a decoded value, kept by index in `values`.
Comments are kept apart, each with the index of the code token it precedes,
so the parser never meets one.

Line and column are not stored per token. Only a span or an error message
needs them, and `position(line_starts, offset)` finds them by bisecting the
offsets at which lines start. Lines are counted by LF alone.

A `Tokens` is also a sequence of `Token` tuples, comments included, with
1-based line/column positions plus absolute character offsets.

One compiled master regex matches a run of whitespace (space, tab, CR, LF
only), then one token; `findall` returns each token with the whitespace
before it, and a token's end offset is the running sum of their lengths
(the "Writing a Tokenizer" recipe of the Python `re` docs, without a match
object per token). Whitespace is the one thing no token alternative matches,
so the pieces cover the text up to its trailing whitespace. Input outside the
subset ends up in an alternative that raises: a word that does not start
with a letter, an unterminated string or comment, a char literal, any other
character.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, compress, count, repeat
from operator import add, itemgetter, sub
from typing import Iterator, NamedTuple

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

_WHITESPACE = " \t\r\n"
# Order matters: an ASCII digit starts a number before it could start a word,
# and a comment is tried before the operator `/`.
_TOKEN = re.compile("[ \t\r\n]*(?:" + "|".join((
    r"[A-Za-z_$][\w$]*",
    r"[0-9]+",
    r"//[^\n]*|/\*(?:.*?\*/)?",  # a bare `/*` is an unterminated comment
    "|".join(re.escape(op) for op in OPERATORS if len(op) == 2)
    + "|[" + re.escape("".join(op for op in OPERATORS if len(op) == 1)) + "]",
    r'"(?:[^"\\\n]|\\[^\n])*"',
    r"\w[\w$]*",  # a non-ASCII word: an identifier if it starts with a letter
    r"[^ \t\r\n]",
)) + ")", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# A keyword or operator is known by its text alone; any other token by its
# first character. A character missing from _LEAD starts a non-ASCII word or
# is outside the subset. Only tokens of a kind outside _SETTLED are looked at
# one by one: to decode a value, or to check or raise.
_FIXED = dict.fromkeys(KEYWORDS, KEYWORD) | dict.fromkeys(OPERATORS, OP)
_LEAD = (dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", IDENT)
         | dict.fromkeys("0123456789", INT) | {'"': STRING, "/": COMMENT})
_SETTLED = frozenset({IDENT, KEYWORD, OP})


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


def position(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of the character at `offset`, given the
    offset of each line's first character."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


class Tokens(Sequence):
    """The tokens of one text as parallel arrays (see the module docstring).
    As a sequence it yields the `Token` tuples in text order, comments and
    the final EOF included."""

    __slots__ = ("kinds", "texts", "starts", "values", "comments", "line_starts", "_tuples")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int],
                 values: dict[int, object], comments: list[tuple[int, int, str]],
                 line_starts: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.values = values  # code token index -> decoded INT or STRING value
        self.comments = comments  # (index of the next code token, start, text)
        self.line_starts = line_starts  # the offset of each line's first character
        self._tuples: list[Token] | None = None

    def _token(self, kind: str, text: str, value: object, start: int) -> Token:
        line, col = position(self.line_starts, start)
        end_line, end_col = (position(self.line_starts, start + len(text) - 1) if text
                             else (line, col))
        return Token(kind, text, value, line, col, end_line, end_col, start, start + len(text))

    def __len__(self) -> int:
        return len(self.kinds) + len(self.comments)

    def __iter__(self) -> Iterator[Token]:
        comments = iter(self.comments)
        comment = next(comments, None)
        for i, (kind, text, start) in enumerate(zip(self.kinds, self.texts, self.starts)):
            while comment is not None and comment[0] == i:
                yield self._token(COMMENT, comment[2], comment[2], comment[1])
                comment = next(comments, None)
            yield self._token(kind, text, self.values.get(i, None if kind == EOF else text),
                              start)

    def __getitem__(self, i):
        if self._tuples is None:
            self._tuples = list(self)
        return self._tuples[i]


def tokenize(text: str, file: str = "<input>") -> Tokens:
    """Lex `text` into tokens ending with an EOF token.

    Raises JavaSyntaxError on characters or literals outside the subset.
    """
    pieces = _TOKEN.findall(text)
    raw = list(map(str.lstrip, pieces, repeat(_WHITESPACE)))
    starts = list(map(sub, accumulate(map(len, pieces)), map(len, raw)))  # end - length
    kinds = list(map(_FIXED.get, raw, map(_LEAD.get, map(itemgetter(0), raw))))
    lines = text.split("\n")
    line_starts = [0, *map(add, accumulate(map(len, lines[:-1])), count(1))]
    values: dict[int, object] = {}
    comments: list[tuple[int, int, str]] = []

    def where(i: int) -> Span:  # the first character of token i
        line, col = position(line_starts, starts[i])
        return Span(file, line, col, line, col)

    def err(msg: str, i: int) -> JavaSyntaxError:
        return JavaSyntaxError(where(i), msg)

    for i in [i for i, kind in enumerate(kinds) if kind not in _SETTLED]:
        tok, kind = raw[i], kinds[i]
        at = i - len(comments)  # the index among code tokens
        if kind is INT:
            e = starts[i] + len(tok)
            if e < len(text) and (text[e].isalpha() or text[e] in "_."):
                raise err("only decimal integer literals are supported", i)
            if len(tok.lstrip("0")) > 10:
                # Out of range for any int; int() of a long one raises ValueError.
                raise err("integer literal out of 32-bit range", i)
            values[at] = int(tok)
        elif kind is STRING and len(tok) > 1:
            if "\\" in tok:
                for esc in _ESCAPE.finditer(tok, 1, len(tok) - 1):
                    if esc[1] not in _ESCAPES:
                        raise err(f"unsupported escape '\\{esc[1]}'", i)
                values[at] = _ESCAPE.sub(lambda esc: _ESCAPES[esc[1]], tok[1:-1])
            else:
                values[at] = tok[1:-1]
        elif kind is COMMENT:
            if tok == "/*":
                raise err("unterminated block comment", i)
            comments.append((at, starts[i], tok))
        elif tok[0].isalpha():
            kinds[i] = IDENT
        elif tok == '"':
            raise err(_string_error(text, starts[i]), i)
        elif tok == "'":
            raise UnsupportedConstruct(where(i), "char literal")
        else:
            raise err(f"unexpected character {tok[0]!r}", i)

    if comments:
        code = [True] * len(kinds)
        for k, (at, _, _) in enumerate(comments):
            code[at + k] = False
        kinds, raw, starts = (list(compress(xs, code)) for xs in (kinds, raw, starts))
    kinds.append(EOF)
    raw.append("")
    starts.append(len(text))
    return Tokens(kinds, raw, starts, values, comments, line_starts)


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
