import pytest

from vmorph.errors import JavaSyntaxError, UnsupportedConstruct
from vmorph.nodes import Block, If, LocalVarDecl, Literal, Switch, walk
from vmorph.parser import parse


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


def test_syntax_error_carries_span():
    with pytest.raises(JavaSyntaxError) as exc:
        parse("class A {\n  void f() {\n    if (x) a();\n  }\n}")
    assert exc.value.span.start_line == 3


def test_int_literal_boundaries():
    ast = parse("class A { void f() { int lo = -2147483648; int hi = 2147483647; } }")
    lo, hi = ast.types[0].methods[0].body.stmts
    assert lo.init.value == -(2**31)
    assert hi.init.value == 2**31 - 1


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
