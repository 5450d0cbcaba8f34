"""The lexer's arrays.

Positions are checked against a naive recount from each token's offset, and
the count of tokens against what the benchmark's `lexer.tokens` has always
counted.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

import vmorph.parser
from vmorph.errors import JavaSyntaxError, VmorphError
from vmorph.lexer import COMMENT, EOF, IDENT, Tokens, position, tokenize
from vmorph.nodes import Binary, walk
from vmorph.parser import parse
from vmorph.printer import print_source

from javagen import generate_method_source
from test_parser import FRONT_END_EDGES, token_rows

FIXTURES = Path(__file__).parent / "fixtures"

# Line endings, tabs and comments over several lines, which the fixtures and
# the printer's output do not hold.
LAYOUT_TEXTS = [
    "class A {\r\n\tint f;\r\n\tvoid g() {\r\n\t\treturn;\r\n\t}\r\n}\r\n",
    "class A {\n\t/* one\n\t   two\r\n */ int f; // three\n  /** four\n\n */\n}\n// five",
    "/* a */ /* b\n*/class A { int f = 1 /* c */ + 2; }\t\t\n\n",
    "\n\n\t  class\tA\t{\t}",
    "class A { }",
    "",
    "   \n\t",
]


def _texts():
    for path in sorted(FIXTURES.rglob("*.java")):
        yield path.relative_to(FIXTURES).as_posix(), path.read_text()
    for i, edge in enumerate(FRONT_END_EDGES):
        yield f"edge {i}", edge
        yield f"edge {i} in a method", f"class E {{\n  void f() {{\n    {edge}\n  }}\n}}\n"
    for i, text in enumerate(LAYOUT_TEXTS):
        yield f"layout {i}", text
    for seed in range(160):
        yield f"javagen {seed}", print_source(parse(generate_method_source(seed)))


TEXTS = dict(_texts())


def _naive(text: str, offset: int) -> tuple[int, int]:
    """Line and column of the character at `offset`, counted from the start."""
    return text.count("\n", 0, offset) + 1, offset - (text.rfind("\n", 0, offset) + 1) + 1


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_token_positions_match_a_recount_from_their_offsets(name):
    text = TEXTS[name]
    try:
        tokens = tokenize(text, "T.java")
    except VmorphError:
        return
    code = list(zip(tokens.starts, tokens.texts))
    for at, start, _ in tokens.comments:  # the comment lies before code token `at`
        assert tokens.starts[at - 1] < start < tokens.starts[at] if at else start < code[0][0]
    previous_end = 0
    for start, tok in sorted(code + [(start, tok) for _, start, tok in tokens.comments]):
        end = start + len(tok)
        assert text[start:end] == tok
        assert text[previous_end:start].strip(" \t\r\n") == ""
        previous_end = end
        for offset in (start, end - 1 if tok else start):
            assert position(tokens.line_starts, offset) == _naive(text, offset), (tok, offset)
    assert tokens.kinds[-1] == EOF and tokens.starts[-1] == len(text)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_parsed_span_starts_and_ends_on_a_token(name):
    text = TEXTS[name]
    try:
        tree = parse(text, "T.java")
    except VmorphError:
        return
    rows = token_rows(tokenize(text, "T.java"))
    starts = {(line, col) for _, _, _, line, col, _, _, _, _ in rows}
    ends = {(end_line, end_col) for _, _, _, _, _, end_line, end_col, _, _ in rows}
    for node in walk(tree):
        span = node.span
        if span.is_synthetic():
            continue
        assert (span.start_line, span.start_col) in starts, node
        assert (span.end_line, span.end_col) in ends, node


def test_tokens_holds_code_tokens_in_arrays_and_comments_apart():
    text = "class A { // c\n  int f = 12; /* d */ String s = \"a\\tb\"; }"
    tokens = tokenize(text, "A.java")
    assert isinstance(tokens, Tokens)
    assert len(tokens) == len(tokens.kinds) + 2 == 17
    assert tokens.kinds.count(COMMENT) == 0
    assert tokens.comments == [(3, 10, "// c"), (8, 29, "/* d */")]
    assert [(tokens.kinds[i], v) for i, v in sorted(tokens.values.items())] == [
        ("int", 12), ("string", "a\tb")]
    assert [tokens.texts[i] for i, k in enumerate(tokens.kinds) if k == IDENT] == [
        "A", "int", "f", "String", "s"]
    assert (tokens.kinds[-1], tokens.texts[-1], tokens.starts[-1]) == (EOF, "", len(text))
    assert position(tokens.line_starts, tokens.starts[-1]) == (2, 43)


# `lexer.tokens` in perfbench counts `len()` of what `vmorph.parser.tokenize`
# returns, once per parsed file. These are the counts the lexer has always
# given (comments and EOF included), so the metric keeps its meaning.
CORPUS_TOKENS = 1780
COMMENTED = "class A {\r\n\t/* one\r\n two */ int f; // three\n  /** four */\n}\n// five"
COMMENTED_TOKENS = 12


def test_parse_tokenizes_once_and_the_count_keeps_its_meaning(monkeypatch):
    results = []
    tokenize_ = vmorph.parser.tokenize

    def counting(text, file):
        results.append(tokenize_(text, file))
        return results[-1]

    monkeypatch.setattr(vmorph.parser, "tokenize", counting)
    corpus = sorted((FIXTURES / "corpus").glob("*.java"))
    for i, path in enumerate(corpus):
        parse(path.read_text(), path.name)
        assert len(results) == i + 1
    assert sum(len(r) for r in results) == CORPUS_TOKENS
    results.clear()
    parse(COMMENTED)
    assert [len(r) for r in results] == [COMMENTED_TOKENS]
    assert len(results[0].kinds) + len(results[0].comments) == COMMENTED_TOKENS


# Java reads `\0` and the octal digits after it as one octal escape (JLS
# 3.10.7), which the subset does not support: "\01" is one character, U+0001.
@pytest.mark.parametrize("literal, escape", [
    (r'"\01"', r"\01"), (r'"a\07x"', r"\07"), (r'"\00"', r"\00"), (r'"\\\01"', r"\01"),
    (r'"\01', r"\01"),  # unterminated
    (r'"\n\01', r"\01"),  # unterminated, after a valid escape
])
def test_an_octal_escape_is_unsupported(literal, escape):
    with pytest.raises(VmorphError, match=re.escape(f"unsupported escape '{escape}'")):
        tokenize(f"x = {literal};")


@pytest.mark.parametrize("literal, value", [
    (r'"\0"', "\0"), (r'"\0x"', "\0x"), (r'"\08"', "\0" + "8"), (r'"\\01"', "\\01"),
])
def test_a_nul_escape_ends_before_a_character_that_is_not_octal(literal, value):
    tokens = tokenize(f"x = {literal};")
    assert list(tokens.values.values()) == [value]


# A string literal that does not close is reported at its opening quote: by
# its first unsupported escape (a backslash before a line end is one), else
# as unterminated.
@pytest.mark.parametrize("literal, message", [
    ('"', "unterminated string literal"),
    ('"abc\n', "unterminated string literal"),
    ('"ab\\"', "unterminated string literal"),
    ('"ab\\\n', "unsupported escape '\\\n'"),
    ('"ab\\', "unterminated string literal"),
    ('"a\\qb\n', "unsupported escape '\\q'"),
    ('"a /* c', "unterminated string literal"),
], ids=["lone-quote", "line-end", "escaped-quote-at-end", "backslash-line-end",
        "backslash-at-end", "bad-escape-then-line-end", "comment-opener"])
def test_an_unclosed_string_literal_names_its_reason_and_place(literal, message):
    with pytest.raises(JavaSyntaxError) as exc:
        tokenize(f"x = 1;\n  y = {literal}")
    assert str(exc.value) == f"<input>:2:7: {message}"


@pytest.mark.parametrize("literal, value", [(r'"ab\\"', "ab\\"), (r'"ab\""', 'ab"')],
                         ids=["backslash", "quote"])
def test_an_escape_just_before_the_closing_quote_decodes(literal, value):
    assert list(tokenize(f"x = {literal};").values.values()) == [value]


# Java reads an int literal that starts with 0 as octal (JLS 3.10.1): `010`
# is 8, and `08` does not compile. The subset reads decimal, so it refuses
# every such literal whose decimal reading is not its octal one.
@pytest.mark.parametrize("source", ["x = 010;", "x = 08;", "x = 0009;", "x = 0123;"])
def test_an_octal_int_literal_is_refused(source):
    with pytest.raises(VmorphError, match="only decimal integer literals are supported"):
        tokenize(source)


def test_an_octal_case_label_is_refused():
    with pytest.raises(VmorphError, match="only decimal integer literals are supported"):
        parse("class A { int f(int k) { switch (k) { case 010: return 1; } return 0; } }")


@pytest.mark.parametrize("literal, value", [("0", 0), ("00", 0), ("007", 7), ("10", 10)])
def test_an_int_literal_that_octal_reads_the_same_lexes(literal, value):
    assert list(tokenize(f"x = {literal};").values.values()) == [value]


# Fields the parser fills with one token's text. A dotted name is assembled
# from several tokens, so it is a new string each time and is left out.
SPELLED_FIELDS = ("id", "method", "name", "type_name", "return_type")


def _spellings(tree):
    """Every token text a parsed tree keeps in a node field: names, called
    methods, type names, Binary operators and modifiers."""
    for node in walk(tree):
        for field in SPELLED_FIELDS:
            value = getattr(node, field, None)
            if isinstance(value, str) and "." not in value:
                yield value
        if isinstance(node, Binary):
            yield node.op
        yield from getattr(node, "modifiers", ())


def test_equal_token_texts_of_one_file_are_one_string():
    repeated = 0  # spellings met more than once; Python shares 1-character ones anyway
    for path in sorted(FIXTURES.rglob("*.java")):
        text = path.read_text()
        for texts in (tokenize(text).texts, list(_spellings(parse(text)))):
            first: dict[str, str] = {}
            for spelling in texts:
                assert first.setdefault(spelling, spelling) is spelling, (path.name, spelling)
            repeated += sum(n > 1 for s, n in Counter(texts).items() if len(s) > 1)
    assert repeated > 100
