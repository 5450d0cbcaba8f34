"""Tokenizer for the Java subset.

`tokenize` returns a `Tokens`: parallel arrays over the code tokens (every
token but the comments, ending with EOF), which the parser and patch
recovery read directly. They hold each token's kind, raw text and start
offset; a token ends at its start plus the length of its text. INT and
STRING tokens also have a decoded value, kept by index in `values`.
Comments are kept apart, each with the index of the code token it precedes,
so the parser never meets one.

Equal token texts of one file are one `str` object: `tokenize` passes the
texts through a dict of the spellings it has met. The parser fills node
fields (names, called methods, type names, operators, modifiers) straight
from `texts`, so a parsed file keeps one copy of each spelling, not one per
token: a project's files hold far fewer spellings than tokens. The dict is a
local, freed when `tokenize` returns; `sys.intern` would instead add every
spelling to one interpreter-wide table, which does not give its memory back.

Line and column are not stored per token. Only a span or an error message
needs them, and `position(line_starts, offset)` finds them by bisecting the
offsets at which lines start. Lines are counted by LF alone.

One compiled master regex matches a run of whitespace (space, tab, CR, LF
only), then one token; `findall` returns each token with the whitespace
before it, and a token's end offset is the running sum of their lengths
(the "Writing a Tokenizer" recipe of the Python `re` docs, without a match
object per token). Whitespace is the one thing no token alternative matches,
so the pieces cover the text up to its trailing whitespace. Input outside the
subset ends up in an alternative that raises: a word that does not start
with a letter, an unterminated comment, a char literal, any other character.
A string literal is one alternative whose closing quote is optional, with a
backslash and the character after it, a line end too, as one pair; the
literal raises at its opening quote for its first unsupported escape, else
when it did not close.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, count, repeat
from operator import add, itemgetter, sub

from .errors import JavaSyntaxError, UnsupportedConstruct
from .nodes import Span, position

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

# The escapes the subset supports: the character after the backslash -> the
# character it stands for. The printer writes strings with the same table.
ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
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
    r'"(?:[^"\\\n]|\\.)*"?',  # a literal that does not close raises
    r"\w[\w$]*",  # a non-ASCII word: an identifier if it starts with a letter
    r"[^ \t\r\n]",
)) + ")", re.DOTALL)
# `\0` and an octal digit is an octal escape (JLS 3.10.7), which ESCAPES lacks.
_ESCAPE = re.compile(r"\\(0[0-7]|.)", re.DOTALL)

# A keyword or operator is known by its text alone; any other token by its
# first character. A character missing from _LEAD starts a non-ASCII word or
# is outside the subset. Only tokens of a kind outside _SETTLED are looked at
# one by one: to decode a value, or to check or raise.
_FIXED = dict.fromkeys(KEYWORDS, KEYWORD) | dict.fromkeys(OPERATORS, OP)
_LEAD = (dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", IDENT)
         | dict.fromkeys("0123456789", INT) | {'"': STRING, "/": COMMENT})
_SETTLED = frozenset({IDENT, KEYWORD, OP})


class Tokens:
    """The tokens of one text as parallel arrays (see the module docstring)."""

    __slots__ = ("kinds", "texts", "starts", "values", "comments", "line_starts")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int],
                 values: dict[int, object], comments: list[tuple[int, int, str]],
                 line_starts: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.values = values  # code token index -> decoded INT or STRING value
        self.comments = comments  # (index of the next code token, start, text)
        self.line_starts = line_starts  # the offset of each line's first character

    def __len__(self) -> int:
        """The code tokens (EOF included) plus the comments."""
        return len(self.kinds) + len(self.comments)


def tokenize(text: str, file: str = "<input>") -> Tokens:
    """Lex `text` into tokens ending with an EOF token.

    Raises JavaSyntaxError on characters or literals outside the subset.
    """
    pieces = _TOKEN.findall(text)
    raw = list(map(str.lstrip, pieces, repeat(_WHITESPACE)))
    spelled: dict[str, str] = {}  # one str per spelling, see the module docstring
    raw = list(map(spelled.setdefault, raw, raw))
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
            # Java reads a leading 0 as octal: refuse where that is not int(tok).
            if tok[0] == "0" and (len(tok.lstrip("0")) > 1 or tok[-1] in "89"):
                raise err("only decimal integer literals are supported", i)
            values[at] = int(tok)
        elif kind is STRING:
            end = 1  # past the opening quote or the last escape
            if "\\" in tok:
                for esc in _ESCAPE.finditer(tok, 1):
                    if esc[1] not in ESCAPES:
                        raise err(f"unsupported escape '\\{esc[1]}'", i)
                    end = esc.end()
            if end == len(tok) or tok[-1] != '"':
                raise err("unterminated string literal", i)
            body = tok[1:-1]
            values[at] = body if end == 1 else _ESCAPE.sub(lambda esc: ESCAPES[esc[1]], body)
        elif kind is COMMENT:
            if tok == "/*":
                raise err("unterminated block comment", i)
            comments.append((at, starts[i], tok))
        elif tok[0].isalpha():
            kinds[i] = IDENT
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

