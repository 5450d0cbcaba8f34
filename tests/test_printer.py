import pytest

from vmorph.nodes import Block, Break, For, Literal, Name, structurally_equal
from vmorph.parser import parse
from vmorph.printer import print_expr, print_source, print_stmt

from conftest import parse_stmts


def test_round_trip_whole_corpus(all_fixture_sources):
    for name, text in all_fixture_sources.items():
        ast = parse(text, name)
        reparsed = parse(print_source(ast), name)
        assert structurally_equal(ast, reparsed), name


def test_canonical_sources_round_trip_byte_identical(all_fixture_sources):
    for name, text in all_fixture_sources.items():
        assert print_source(parse(text, name)) == text, name


def test_printer_is_deterministic(all_fixture_sources):
    for name, text in all_fixture_sources.items():
        ast = parse(text, name)
        assert print_source(ast) == print_source(ast)


def test_negated_composite_condition_parenthesized():
    block = parse_stmts("if (!(x > 0)) { mark(x); }")
    assert print_stmt(block.stmts[0]).startswith("if (!(x > 0)) {")


def test_negated_simple_condition_bare():
    block = parse_stmts("if (!ready) { mark(x); }", params="boolean ready, int x")
    assert print_stmt(block.stmts[0]).startswith("if (!ready) {")


def test_nested_blocks_indent_per_level():
    text = print_stmt(parse_stmts("if (x > 0) { if (n > 0) { mark(x); } }").stmts[0])
    lines = text.splitlines()
    assert lines[0] == "if (x > 0) {"
    assert lines[1] == "    if (n > 0) {"
    assert lines[2] == "        mark(x);"


def test_precedence_parentheses():
    cases = [
        ("x = (a + b) * c;", "x = (a + b) * c;"),
        ("x = a + b * c;", "x = a + b * c;"),
        ("x = a - (b - c);", "x = a - (b - c);"),
        ("x = a - b - c;", "x = a - b - c;"),
        ("flagged = !(a > b);", "flagged = !(a > b);"),
        ("x = c ? a : b;", "x = c ? a : b;"),
        ("x = (c ? a : b) + 1;", "x = (c ? a : b) + 1;"),
    ]
    for source, expected in cases:
        block = parse_stmts(source, params="int x, int a, int b, int c, boolean flagged")
        assert print_stmt(block.stmts[0]).strip() == expected


def test_whitespace_insensitive_equality():
    a = parse("class A { int f(int x) { return x+1; } }")
    b = parse("class A { int f(int x) { return x + 1; } }")
    assert structurally_equal(a, b)


def test_no_algebraic_normalization():
    a = parse("class A { int f(int x) { return x + 1; } }")
    b = parse("class A { int f(int x) { return 1 + x; } }")
    assert not structurally_equal(a, b)


def test_self_equality():
    ast = parse("class A { int f(int x) { return x + 1; } }")
    assert structurally_equal(ast, ast)


def test_string_escapes_round_trip():
    source = 'class A { void f() { x = "a\\nb\\t\\"q\\\\"; } }'
    ast = parse(source)
    assert structurally_equal(parse(print_source(ast)), ast)


def test_a_nul_before_an_octal_digit_cannot_be_printed():
    with pytest.raises(ValueError, match=r"cannot print string 'a\\x001': NUL before an octal"):
        print_expr(Literal("a\x001", "string"))


@pytest.mark.parametrize("printer, node, message", [
    (print_stmt, Name("x"), "cannot print statement Name"),
    (print_stmt, For(Break(), None, None, Block(())), "cannot print for-init Break"),
    (print_expr, Block(()), "cannot print expression Block"),
    (print_expr, Literal(1, "char"), "unknown literal kind 'char'"),
], ids=["statement", "for-init", "expression", "literal"])
def test_a_node_of_no_printable_kind_is_refused(printer, node, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        printer(node)


def test_a_nul_before_a_letter_prints_and_parses_back():
    printed = print_expr(Literal("\x00a\x00", "string"))
    assert printed == '"\\0a\\0"'
    assert parse_stmts(f"x = {printed};").stmts[0].expr.value.value == "\x00a\x00"


def test_comments_survive_printing():
    source = (
        "class A {\n"
        "    void f() {\n"
        "        /* BUG: old(); FIXED: */\n"
        "        fresh();\n"
        "    }\n"
        "}\n"
    )
    assert print_source(parse(source)) == source


def test_unary_minus_stacking_stays_parseable():
    block = parse_stmts("x = - -n;")
    printed = print_stmt(block.stmts[0])
    assert structurally_equal(parse_stmts(printed).stmts[0], block.stmts[0])


@pytest.mark.parametrize("source", [
    "class A {\n    void f() {\n        return;\n    }\n}\n",
    "class A {\n    void f() {\n        throw new E();\n    }\n}\n",
    "class A {\n}\n\nclass B {\n    void g() {\n    }\n}\n",
], ids=["bare-return", "throw", "two-classes"])
def test_a_canonical_source_prints_back_to_itself(source):
    ast = parse(source)
    assert print_source(ast) == source
    assert structurally_equal(parse(print_source(ast)), ast)
