"""The lexer's arrays and the Token tuples they stand for.

Positions are checked against a naive recount from each token's offsets, and
the count of tokens against what the benchmark's `lexer.tokens` has always
counted.
"""

from pathlib import Path

import pytest

import vmorph.parser
from vmorph.errors import VmorphError
from vmorph.lexer import COMMENT, EOF, IDENT, Token, Tokens, tokenize
from vmorph.nodes import walk
from vmorph.parser import parse
from vmorph.printer import print_source

from javagen import generate_method_source
from test_parser import FRONT_END_EDGES

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
    previous_end = 0
    for tok in tokens:
        assert text[tok.start_off:tok.end_off] == tok.text
        assert text[previous_end:tok.start_off].strip(" \t\r\n") == ""
        previous_end = tok.end_off
        last = tok.end_off - 1 if tok.text else tok.start_off
        assert (tok.line, tok.col, tok.end_line, tok.end_col) == (
            *_naive(text, tok.start_off), *_naive(text, last)), tok
    assert tokens[-1].kind == EOF and tokens[-1].start_off == len(text)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_parsed_span_starts_and_ends_on_a_token(name):
    text = TEXTS[name]
    try:
        tree = parse(text, "T.java")
    except VmorphError:
        return
    tokens = list(tokenize(text, "T.java"))
    starts = {(t.line, t.col) for t in tokens}
    ends = {(t.end_line, t.end_col) for t in tokens}
    for node in walk(tree):
        span = node.span
        if span.is_synthetic():
            continue
        assert (span.start_line, span.start_col) in starts, node
        assert (span.end_line, span.end_col) in ends, node


def test_tokens_is_a_sequence_of_token_tuples():
    text = "class A { // c\n  int f = 12; /* d */ String s = \"a\\tb\"; }"
    tokens = tokenize(text, "A.java")
    assert isinstance(tokens, Tokens)
    listed = list(tokens)
    assert len(tokens) == len(listed) == 17
    assert [tokens[i] for i in range(len(tokens))] == listed
    assert tokens[-1] == listed[-1] and tokens[2:4] == listed[2:4]
    assert all(type(t) is Token for t in listed)
    assert [t.text for t in listed if t.kind == COMMENT] == ["// c", "/* d */"]
    assert [(t.kind, t.value) for t in listed if t.kind in ("int", "string")] == [
        ("int", 12), ("string", "a\tb")]
    assert listed[-1] == Token(EOF, "", None, 2, 43, 2, 43, len(text), len(text))
    # The arrays hold the code tokens only, comments apart.
    assert tokens.kinds.count(COMMENT) == 0 and len(tokens.comments) == 2
    assert [tokens.texts[i] for i, k in enumerate(tokens.kinds) if k == IDENT] == [
        "A", "int", "f", "String", "s"]


# `lexer.tokens` in perfbench counts `len()` of what `vmorph.parser.tokenize`
# returns, once per parsed file. These are the counts the Token-list lexer
# gave (comments and EOF included), so the metric keeps its meaning.
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
    assert len(list(results[0])) == COMMENTED_TOKENS
