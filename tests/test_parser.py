import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vmorph.errors import JavaSyntaxError, UnsupportedConstruct, VmorphError
from vmorph.lexer import tokenize
from vmorph.nodes import Block, If, LocalVarDecl, Literal, Switch, walk
from vmorph.parser import MAX_NESTING, parse
from vmorph.printer import print_source

FIXTURES = Path(__file__).parent / "fixtures"


def test_minimal_program():
    ast = parse("class A { void f() {} }")
    assert len(ast.types) == 1
    cls = ast.types[0]
    assert cls.name == "A"
    assert len(cls.methods) == 1
    assert cls.methods[0].name == "f"
    assert cls.methods[0].body.stmts == ()


def test_if_without_else():
    ast = parse("class A { void f(boolean x) { if (x) { a(); } } }")
    stmt = ast.types[0].methods[0].body.stmts[0]
    assert isinstance(stmt, If)
    assert stmt.orelse is None


def test_lambda_is_unsupported():
    with pytest.raises(UnsupportedConstruct) as exc:
        parse("class A { void f() { map(x -> x + 1); } }")
    assert "lambda" in exc.value.construct


@pytest.mark.parametrize(
    "source, construct",
    [
        ("class A { void f() { List<String> xs = y; } }", "generic"),
        ("class A { void f(Map<K, V> m) { } }", "generic"),
        ("class A { List<T> get() { return x; } }", "generic"),
        ("class A { void f() { here: a(); } }", "labeled"),
        ("class A { void f() { x = new Foo() { }; } }", "anonymous"),
        ("class A { @Override void f() { } }", "annotation"),
        ("class A { class Inner { } }", "inner"),
        ("class A { void f() { char c = 'x'; } }", "char"),
        ("interface A { }", "interface"),
        ("class A { void f() { Class k = Foo.class; } }", "class literal"),
    ],
)
def test_out_of_subset_constructs(source, construct):
    with pytest.raises(UnsupportedConstruct) as exc:
        parse(source)
    assert construct in exc.value.construct


@pytest.mark.parametrize(
    "source",
    [
        "class A { void f() { if (x) a(); } }",  # unbraced body
        "class A { void f() { int = 3; } }",
        "class A { void f(int x, int x) { } }",  # duplicate params
        "class { }",
        'class A { void f() { x = "unterminated; } }',
        "class A { void f() { var v; } }",  # var needs initializer
        "class A { void f() { int k = 2147483648; } }",  # out of range
    ],
)
def test_syntax_errors(source):
    with pytest.raises(JavaSyntaxError):
        parse(source)


@pytest.mark.parametrize("init", ["var i", "var i = 0, j"], ids=["bare", "second-declarator"])
def test_for_init_var_needs_an_initializer(init):
    # The loop's `var` would print as a statement that no longer parses.
    source = f"class A {{ int f(int n) {{ for ({init}; n > 0; n = n - 1) {{ }} return n; }} }}"
    with pytest.raises(JavaSyntaxError, match="'var' declarations require an initializer"):
        parse(source)


@pytest.mark.parametrize(
    "source, message",
    [
        ("class A { int", "<input>:1:14: expected member name, found end of input"),
        ("import", "<input>:1:7: expected identifier, found end of input"),
        ("class", "<input>:1:6: expected class name, found end of input"),
        ("public", "<input>:1:7: expected 'class', found end of input"),
        ("class A { int f() { return", "<input>:1:27: unexpected end of input"),
        ("class A { int f() { return 1", "<input>:1:29: expected ';', found end of input"),
    ],
)
def test_an_error_at_the_end_names_the_end_of_input(source, message):
    with pytest.raises(JavaSyntaxError) as exc:
        parse(source)
    assert str(exc.value) == message


def test_syntax_error_carries_span():
    with pytest.raises(JavaSyntaxError) as exc:
        parse("class A {\n  void f() {\n    if (x) a();\n  }\n}")
    assert exc.value.span.start_line == 3


def test_int_literal_boundaries():
    ast = parse("class A { void f() { int lo = -2147483648; int hi = 2147483647; } }")
    lo, hi = ast.types[0].methods[0].body.stmts
    assert lo.init.value == -(2**31)
    assert hi.init.value == 2**31 - 1


@pytest.mark.parametrize("digits", ["1" * 11, "1" * 5000, "0" * 30 + "1" * 11],
                         ids=["11-digits", "5000-digits", "zeros-then-11-digits"])
def test_huge_int_literal_is_a_syntax_error(digits):
    # Past 4,300 digits int() itself raises a plain ValueError.
    with pytest.raises(JavaSyntaxError, match="integer literal out of 32-bit range") as exc:
        parse("class A { int f() { return " + digits + "; } }")
    assert len(str(exc.value)) < 200


def test_leading_zeros_do_not_count_against_an_int_literal():
    ast = parse("class A { int f() { return " + "0" * 20 + "7; } }")
    assert ast.types[0].methods[0].body.stmts[0].value.value == 7


def test_switch_labels_distinct():
    with pytest.raises(JavaSyntaxError):
        parse("class A { void f(int k) { switch (k) { case 1: break; case 1: break; } } }")


def test_switch_shape_and_termination():
    ast = parse(
        """class A { void f(int k) {
               switch (k) {
                   case 1:
                   case 2:
                       a();
                       break;
                   default:
                       b();
               }
           } }"""
    )
    sw = ast.types[0].methods[0].body.stmts[0]
    assert isinstance(sw, Switch)
    assert len(sw.cases) == 2
    assert len(sw.cases[0].labels) == 2
    assert sw.cases[0].terminated
    assert not sw.cases[1].terminated


def test_multi_declarator_locals():
    ast = parse("class A { void f() { int i = 0, j = 1; } }")
    decl = ast.types[0].methods[0].body.stmts[0]
    assert isinstance(decl, LocalVarDecl)
    assert [d.name for d in decl.declarators] == ["i", "j"]


def test_constructor_parsed():
    ast = parse("class A { A(int x) { } void f() { } }")
    ctor = ast.types[0].methods[0]
    assert ctor.is_constructor()
    assert ctor.name == "A"


def test_comments_attach_to_statements():
    ast = parse(
        "class A { void f() {\n"
        "    // leading note\n"
        "    a();\n"
        "    /* BUG: b(); FIXED: */\n"
        "    c();\n"
        "} }"
    )
    stmts = ast.types[0].methods[0].body.stmts
    assert stmts[0].comments == ("// leading note",)
    assert stmts[1].comments == ("/* BUG: b(); FIXED: */",)


def test_span_coverage(all_fixture_sources):
    """Every node's span sits inside its parent's span."""
    from vmorph.nodes import children

    for name, text in all_fixture_sources.items():
        ast = parse(text, name)
        stack = [ast]
        while stack:
            node = stack.pop()
            for child in children(node):
                span = getattr(child, "span", None)
                if span is not None and not span.is_synthetic():
                    assert node.span.contains(span), (name, node.span, span)
                stack.append(child)


def test_dotted_type_and_expression_disambiguation():
    ast = parse(
        "class A { void f() { java.nio.Path p = q; a.b.c = 5; x = a < b; } }"
    )
    stmts = ast.types[0].methods[0].body.stmts
    assert isinstance(stmts[0], LocalVarDecl)
    assert stmts[0].type_name == "java.nio.Path"
    assert not isinstance(stmts[1], LocalVarDecl)
    assert not isinstance(stmts[2], LocalVarDecl)


@pytest.mark.parametrize("digit", ["٣", "²"])  # Arabic-Indic three, superscript two
def test_only_ascii_digits_start_a_number(digit):
    with pytest.raises(JavaSyntaxError):
        parse(f"class A {{ static int f() {{ return {digit}; }} }}")


def test_expression_deeper_than_the_bound_is_unsupported():
    chain = " + ".join(["a"] * 500)
    with pytest.raises(UnsupportedConstruct) as exc:
        parse(f"class A {{ static int f(int a) {{ return {chain}; }} }}")
    assert "nested deeper" in exc.value.construct
    parse(f"class A {{ static int f(int a) {{ return {' + '.join(['a'] * 256)}; }} }}")


@pytest.mark.parametrize("body", [
    "return " + "(" * 80 + "n" + ")" * 80 + ";",
    "if (n > 0) {" * 400 + " n = 1; " + "}" * 400 + " return n;",
    " else ".join(f"if (n == {i}) {{ n = {i}; }}" for i in range(1000)) + " return n;",
], ids=["80-parentheses", "400-ifs", "1000-else-ifs"])
def test_nesting_past_the_bound_is_unsupported_before_the_recursion_limit(body):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # as in a fresh process
    try:
        with pytest.raises(UnsupportedConstruct) as exc:
            parse(f"class A {{ static int f(int n) {{ {body} }} }}")
    finally:
        sys.setrecursionlimit(old)
    assert "nesting deeper than" in exc.value.construct


def test_else_if_chain_within_the_bound_parses():
    chain = " else ".join(f"if (n == {i}) {{ n = {i}; }}" for i in range(MAX_NESTING - 10))
    tree = parse(f"class A {{ static int f(int n) {{ {chain} return n; }} }}")
    assert parse(print_source(tree)) == tree


# ---------------------------------------------------------------------------
# Front-end golden snapshot
# ---------------------------------------------------------------------------

GOLDEN_FRONT_END = FIXTURES / "golden" / "front_end_corpus.txt"

# Inputs at the lexer's and parser's edges: non-ASCII digits and letters,
# whitespace outside the subset, malformed literals, strings and comments.
FRONT_END_EDGES = [
    "return \u0663;",  # Arabic-Indic three
    "return \u00b2;",  # superscript two
    "int a\u00b2b = 1;",
    "\u00e9 = 1;",
    "int x =\f1;",
    "int x =\u00a01;",
    "x = \u216b;",  # roman numeral twelve: numeric, not alphabetic
    "int y = 1.5;",
    "int y = 12abc;",
    "int y = 12_000;",
    "int y = 1\u0663;",
    "int y = 1$;",
    "int $x = _1 + a$b;",
    "char c = 'a';",
    'String s = "a\\qb";',
    'String s = "\\n\\t\\"\\\\\\0" + "\\n\\q";',
    'String s = "unterminated;',
    'String s = "broken\nline";',
    'String s = "ends in a backslash\\',
    'String s = "\\\n";',
    "int z = 1; /* unterminated",
    "int z = 1; /* one */ // two",
    "int z = a / b /*/ c */ - c;",
    "boolean b = a & c | d;",
    "int w = 2147483648;",
    "int w = -2147483648 - - 1;",
    "x -> x;",
    "\r\n\tint v = 1;\r\n",
    "/",
    '"',
]


def _front_end_lines(text: str, file: str) -> list[str]:
    """Every token tuple, then the repr of the parse (spans included), or the
    type, message and span of the error each raises."""
    lines = []
    try:
        for t in tokenize(text, file):
            lines.append(repr((t.kind, t.text, t.value, t.line, t.col, t.end_line,
                               t.end_col, t.start_off, t.end_off)))
    except VmorphError as e:
        lines.append(f"tokenize: {type(e).__name__}: {str(e)!r} {e.span!r}")
    try:
        lines.append(repr(parse(text, file)))
    except VmorphError as e:
        lines.append(f"parse: {type(e).__name__}: {str(e)!r} {e.span!r}")
    return lines


def front_end_snapshot() -> str:
    """Tokens and trees of every fixture, and of each edge above both on its
    own and inside a method.

    Regenerate the golden file (only when an output change is intended) with
    `PYTHONPATH=src:tests python -c "import test_parser as t;
    t.GOLDEN_FRONT_END.write_text(t.front_end_snapshot(), encoding='utf-8')"`.
    """
    parts = []
    for path in sorted(FIXTURES.rglob("*.java")):
        rel = path.relative_to(FIXTURES).as_posix()
        parts.append(f"// {rel}")
        parts.extend(_front_end_lines(path.read_text(), rel))
    for i, edge in enumerate(FRONT_END_EDGES):
        parts.append(f"// edge {i}: {edge!r}")
        parts.extend(_front_end_lines(edge, f"E{i}.java"))
        text = f"class E {{\n  void f() {{\n    {edge}\n  }}\n}}\n"
        parts.extend(_front_end_lines(text, f"E{i}.java"))
    return "\n".join(parts) + "\n"


def test_front_end_matches_golden():
    assert front_end_snapshot().encode("utf-8") == GOLDEN_FRONT_END.read_bytes()


# ---------------------------------------------------------------------------
# Mutation fuzz
# ---------------------------------------------------------------------------

MUTATION_PIECES = ["\u0663", "\u00b2", "\f", "'", '"', "\\", "/*", "(", ")", "{", "}",
                   ";", ".", "0", "9", "_", "$", "\u00e9"]
FIXTURE_TEXTS = [p.read_text() for p in sorted(FIXTURES.rglob("*.java"))]


@st.composite
def mutated_fixture(draw) -> str:
    """A fixture with a few characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(MUTATION_PIECES))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:i] + piece + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutated_fixture())
def test_mutated_fixture_parses_and_reprints_or_raises_a_vmorph_error(text):
    try:
        tree = parse(text, "M.java")
    except VmorphError:
        return
    assert parse(print_source(tree), "M.java") == tree
