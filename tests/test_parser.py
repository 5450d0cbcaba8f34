import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vmorph.errors import JavaSyntaxError, UnsupportedConstruct, VmorphError
from vmorph.interp import Threw, evaluate
from vmorph.lexer import COMMENT, EOF, Tokens, position, tokenize
from vmorph.nodes import Block, If, LocalVarDecl, Literal, Switch, ends_case, walk
from vmorph.parser import MAX_NESTING, parse
from vmorph.printer import print_source

from javagen import generate_method_source

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


@pytest.mark.parametrize("expr", ["null.concat(s)", "(null).length()", "null.f"])
def test_a_member_access_on_null_is_a_syntax_error(expr):
    source = f"class A {{ String f(String s) {{ return {expr}; }} }}"
    with pytest.raises(JavaSyntaxError) as exc:  # javac's message
        parse(source)
    assert str(exc.value) == f"<input>:1:{source.index('.') + 1}: <null> cannot be dereferenced"


def test_null_as_an_argument_parses_and_throws_when_run():
    ast = parse("class A { static String f(String s) { return s.concat(null); } }")
    m = ast.types[0].methods[0]
    assert evaluate(m, ["a"], context=ast) == Threw("NullPointerException")


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


# javac takes only an assignment, a call or an instance creation as a
# statement, a for-init or a for-update (JLS 14.8, 14.14.1).
@pytest.mark.parametrize("code, expr", [
    ("i < n;", "i < n"),
    ("x;", "x;"),
    ("a + b;", "a + b"),
    ("a.f;", "a.f"),
    ("(x);", "x)"),
    ("(x = 1);", "x = 1"),
    ("(g());", "g()"),
    ("-x;", "-x"),
    ("for (i < n; ; ) { }", "i < n"),
    ("for (; ; i + 1) { }", "i + 1"),
    ("for (; ; (i = i + 1)) { }", "i = i + 1"),
], ids=["comparison", "name", "sum", "field", "parenthesised", "parenthesised-assignment",
        "parenthesised-call", "negation", "for-init", "for-update", "parenthesised-for-update"])
def test_an_expression_that_is_not_a_statement_is_a_syntax_error(code, expr):
    source = f"class A {{ void f(int i, int n, int x, int a, int b) {{ {code} }} }}"
    with pytest.raises(JavaSyntaxError) as exc:
        parse(source)
    assert str(exc.value) == f"<input>:1:{source.index(expr) + 1}: not a statement"


@pytest.mark.parametrize("code", ["(a).f();", "(a) = 1;", "((a)).f = g(1);"])
def test_a_statement_expression_that_starts_with_a_parenthesis_parses(code):
    tree = parse(f"class A {{ void f(A a) {{ {code} }} }}")
    assert parse(print_source(tree)) == tree


# The front end's rejections that no other test reaches, with the class,
# the message and the place of each.
@pytest.mark.parametrize("source, error, message", [
    ("public public class A {}", JavaSyntaxError, "1:8: duplicate modifier 'public'"),
    ("class A<T> {}", UnsupportedConstruct,
     "1:8: unsupported construct: generic type declaration"),
    ("class A extends B {}", UnsupportedConstruct, "1:9: unsupported construct: 'extends' clause"),
    ("class A { void f(void p) {} }", JavaSyntaxError,
     "1:18: 'void' is only valid as a return type"),
    ("class A { void f(var p) {} }", JavaSyntaxError,
     "1:18: 'var' is only valid for initialized local variables"),
    ("class A { void f() { @Foo g(); } }", UnsupportedConstruct,
     "1:22: unsupported construct: annotation"),
    ("class A { void f() { x = @Foo y; } }", UnsupportedConstruct,
     "1:26: unsupported construct: annotation"),
    ("class A { void f() { x = (a) -> b; } }", UnsupportedConstruct,
     "1:30: unsupported construct: lambda expression"),
    ("class A { void f() { x = y -> z; } }", UnsupportedConstruct,
     "1:28: unsupported construct: lambda expression"),
    ("class A { void f() { x = new ArrayList<String>(); } }", UnsupportedConstruct,
     "1:39: unsupported construct: generic type"),
    ("class A { void f(int x) { switch (x) { default: break; default: break; } } }",
     JavaSyntaxError, "1:63: duplicate default label"),
    ("class A { void f(int x) { switch (x) { case 1: break; case 1: break; } } }",
     JavaSyntaxError, "1:55: duplicate case label 1"),
    ('class A { void f(String s) { switch (s) { case "a": break; case "a": break; } } }',
     JavaSyntaxError, "1:60: duplicate case label 'a'"),
    ("class A { void f(int x) { switch (x) { g(); } } }", JavaSyntaxError,
     "1:40: expected 'case' or 'default'"),
    ("class A { void f(int x, int y) { switch (x) { case y: break; } } }", JavaSyntaxError,
     "1:52: case labels must be integer or string literals"),
    ("class A { void f(int x) { switch (x) { case (2 + 3): break; } } }", UnsupportedConstruct,
     "1:45: unsupported construct: constant-expression case label"),
    ("class A { void f(int x) { switch (x) { case 2 + 3: break; } } }", UnsupportedConstruct,
     "1:45: unsupported construct: constant-expression case label"),
    ("class A { void f(int x) { switch (x) { case -(-2147483648): break; } } }",
     UnsupportedConstruct, "1:45: unsupported construct: constant-expression case label"),
    ("class A { void f(int x) { switch (x) { case f(): break; } } }", JavaSyntaxError,
     "1:45: case labels must be integer or string literals"),
    ("class A { void f(int x) { switch (x) { case true: break; } } }", JavaSyntaxError,
     "1:45: case labels must be integer or string literals"),
    ("class A { void f(int x) { switch (x) { case " + " + ".join(["1"] * 1000) + ": break; } } }",
     UnsupportedConstruct, "1:45: unsupported construct: expression nested deeper than 256"),
    ("class A { void f(int x) { switch (x) {", JavaSyntaxError, "1:39: unterminated switch"),
    ("class A { void f(int x) { switch (x) { case 1: g();", JavaSyntaxError,
     "1:52: unterminated switch"),
    ("class A { void f() { g() = 1; } }", JavaSyntaxError, "1:26: invalid assignment target"),
    # a `>` that closes an inner `<` only, and a `<` that nothing closes
    ("class A { void f() { Map<K, List<V> > m; } }", UnsupportedConstruct,
     "1:22: unsupported construct: generic type"),
    ("class A { void f() { Map<K, V", JavaSyntaxError, "1:22: not a statement"),
], ids=["duplicate-modifier", "generic-class", "extends", "void-parameter", "var-parameter",
        "annotated-statement", "annotated-expression", "lambda", "name-lambda", "generic-new",
        "duplicate-default", "duplicate-int-case", "duplicate-string-case", "no-label", "name-label",
        "parenthesized-sum-label", "sum-label", "negated-min-int-label", "call-label",
        "true-label", "long-sum-label", "switch-cut-before-a-case",
        "switch-cut-in-a-case", "call-target", "nested-generic", "unclosed-generic"])
def test_a_front_end_rejection_names_its_reason_and_place(source, error, message):
    with pytest.raises(VmorphError) as exc:
        parse(source)
    assert (type(exc.value), str(exc.value)) == (error, f"<input>:{message}")


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


def test_a_parenthesized_or_negated_case_label_is_the_literal_it_spells():
    """javac 17 compiles each of these labels."""
    tree = parse("class A { int f(int k, String s) { switch (k) { case (1): return 1; "
                 "case -(2): return 2; case (-3): return 3; } "
                 "switch (s) { case (\"a\"): return 4; } return 0; } }")
    assert [(label.kind, label.value) for sw in walk(tree) if isinstance(sw, Switch)
            for case in sw.cases for label in case.labels] == [
        ("int", 1), ("int", -2), ("int", -3), ("string", "a")]
    assert parse(print_source(tree)) == tree


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
    assert ends_case(sw.cases[0].body)
    assert not ends_case(sw.cases[1].body)


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


def token_rows(tokens: Tokens) -> list[tuple]:
    """Every token in text order, comments included, as (kind, text, value,
    line, col, end_line, end_col, start, end): the value is the decoded INT or
    STRING value, None for EOF and the text otherwise; the end is exclusive
    and the end line and column are those of the last character."""
    rows = [(start, kind, text, tokens.values.get(i, None if kind == EOF else text))
            for i, (kind, text, start)
            in enumerate(zip(tokens.kinds, tokens.texts, tokens.starts))]
    rows += [(start, COMMENT, text, text) for _, start, text in tokens.comments]
    result = []
    for start, kind, text, value in sorted(rows):
        last = start + len(text) - 1 if text else start
        result.append((kind, text, value, *position(tokens.line_starts, start),
                       *position(tokens.line_starts, last), start, start + len(text)))
    return result


def _front_end_lines(text: str, file: str) -> list[str]:
    """Every token row, then the repr of the parse (spans included), or the
    type, message and span of the error each raises."""
    lines = []
    try:
        lines.extend(map(repr, token_rows(tokenize(text, file))))
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


@pytest.mark.parametrize("text", ["-(-2147483648)", "- -2147483648", "-(- 2147483648)"])
def test_negating_the_least_int_parses_as_a_unary_minus(text):
    from vmorph.nodes import Unary, structurally_equal
    from vmorph.printer import print_expr

    m = parse(f"class A {{ static int f() {{ return {text}; }} }}").types[0].methods[0]
    value = m.body.stmts[0].value
    assert isinstance(value, Unary) and value.op == "-"
    assert isinstance(value.operand, Literal) and value.operand.value == -2147483648
    assert print_expr(value) == "-(-2147483648)"
    again = parse(f"class A {{ static int f() {{ return {print_expr(value)}; }} }}")
    assert structurally_equal(again.types[0].methods[0], m)
    assert evaluate(m, []).value == -2147483648


def test_negating_a_parenthesised_literal_in_range_still_folds():
    m = parse("class A { static int f() { return -(2147483647); } }").types[0].methods[0]
    value = m.body.stmts[0].value
    assert isinstance(value, Literal) and value.value == -2147483647


# The class and span of every node, in preorder, of project2 and of javagen
# seeds 0-39, taken when every node still held a Span built by the parser.
SPAN_DIGEST = (2219, "489ce1f456150fa570c957b83814f332b389ae066d1c77eafbd7c70d9d13ab88")


def test_decoded_spans_match_the_spans_the_parser_built(fixtures_dir):
    sources = [(p.name, p.read_text()) for p in sorted((fixtures_dir / "project2").glob("*.java"))]
    sources += [(f"Fuzzed{seed}.java", generate_method_source(seed)) for seed in range(40)]
    digest, count = hashlib.sha256(), 0
    for name, text in sources:
        for node in walk(parse(text, name)):
            digest.update(f"{type(node).__name__} {tuple(node.span)}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == SPAN_DIGEST
