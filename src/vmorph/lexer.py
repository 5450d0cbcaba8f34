"""Tokenizer for the Java subset.

Produces a flat token stream with 1-based line/column positions plus absolute
character offsets (offsets let patch recovery splice replacements back into
the original text). Comments are emitted as ordinary tokens; the parser
collects and attaches them, other consumers may skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
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
    i = 0
    line = 1
    col = 1
    n = len(text)

    def err(msg: str, l: int, c: int) -> JavaSyntaxError:
        return JavaSyntaxError(Span(file, l, c, l, c), msg)

    def advance_pos(chunk: str, l: int, c: int) -> tuple[int, int]:
        nl = chunk.count("\n")
        if nl:
            return l + nl, len(chunk) - chunk.rfind("\n")
        return l, c + len(chunk)

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue

        start_line, start_col, start_off = line, col, i

        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            raw = text[i:j]
            tokens.append(Token(COMMENT, raw, raw, start_line, start_col,
                                start_line, start_col + len(raw) - 1, i, j))
            col += len(raw)
            i = j
            continue

        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                raise err("unterminated block comment", start_line, start_col)
            raw = text[i : j + 2]
            line, col = advance_pos(raw, line, col)
            tokens.append(Token(COMMENT, raw, raw, start_line, start_col,
                                line, col - 1, i, j + 2))
            i = j + 2
            continue

        if ch == '"':
            j = i + 1
            out: list[str] = []
            while True:
                if j >= n or text[j] == "\n":
                    raise err("unterminated string literal", start_line, start_col)
                c2 = text[j]
                if c2 == "\\":
                    if j + 1 >= n:
                        raise err("unterminated string literal", start_line, start_col)
                    esc = text[j + 1]
                    if esc not in _ESCAPES:
                        raise err(f"unsupported escape '\\{esc}'", line, col)
                    out.append(_ESCAPES[esc])
                    j += 2
                    continue
                if c2 == '"':
                    break
                out.append(c2)
                j += 1
            raw = text[i : j + 1]
            tokens.append(Token(STRING, raw, "".join(out), start_line, start_col,
                                start_line, start_col + len(raw) - 1, i, j + 1))
            col += len(raw)
            i = j + 1
            continue

        if ch == "'":
            raise UnsupportedConstruct(
                Span(file, start_line, start_col, start_line, start_col), "char literal"
            )

        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "_" or text[j] == "."):
                raise err("only decimal integer literals are supported",
                          start_line, start_col)
            raw = text[i:j]
            tokens.append(Token(INT, raw, int(raw), start_line, start_col,
                                start_line, start_col + len(raw) - 1, i, j))
            col += len(raw)
            i = j
            continue

        if ch.isalpha() or ch == "_" or ch == "$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            raw = text[i:j]
            kind = KEYWORD if raw in KEYWORDS else IDENT
            tokens.append(Token(kind, raw, raw, start_line, start_col,
                                start_line, start_col + len(raw) - 1, i, j))
            col += len(raw)
            i = j
            continue

        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(OP, op, op, start_line, start_col,
                                    start_line, start_col + len(op) - 1, i, i + len(op)))
                col += len(op)
                i += len(op)
                break
        else:
            raise err(f"unexpected character {ch!r}", start_line, start_col)

    tokens.append(Token(EOF, "", None, line, col, line, col, n, n))
    return tokens
