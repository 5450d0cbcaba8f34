import hashlib
import json
import random
from dataclasses import replace

import pytest

from vmorph.errors import NotApplicable
from vmorph.interp import EQUIVALENT, Returned, check_equivalence, evaluate, is_supported
from vmorph.nodes import (Block, Break, Declarator, If, LocalVarDecl, Switch, SwitchCase, Ternary,
                          While, jumps, structurally_equal, walk)
from vmorph.parser import parse
from vmorph.printer import print_expr, print_method, print_source, print_stmt
from vmorph.transforms import (
    EXTRACT,
    INLINE,
    MERGE,
    SPLIT,
    TransformRule,
    apply_all,
    apply_rule,
    argument_pass,
    chain_functions,
    convert_conditional,
    convert_loop,
    flip_if,
    reorder_statements,
    _evaluation_order,
)

from conftest import (
    FIXTURES,
    gen_call_arg_stmt,
    gen_chain_stmt,
    gen_if_else,
    gen_straightline_block,
    parse_stmts,
)
from javagen import LEAF_SEEDS, generate_method_source


def stmt_of(code, params="int x, int n, String s"):
    return parse_stmts(code, params).stmts[0]


def block_of(code, params="int x, int n, String s"):
    return parse_stmts(code, params)


# ---------------------------------------------------------------------------
# flip_if
# ---------------------------------------------------------------------------


def test_flip_swaps_and_negates():
    flipped = flip_if(stmt_of("if (x > 0) { a(); } else { b(); }"))
    expected = stmt_of("if (!(x > 0)) { b(); } else { a(); }")
    assert structurally_equal(flipped, expected)


def test_flip_eliminates_double_negation():
    flipped = flip_if(stmt_of("if (!done) { a(); } else { b(); }", params="boolean done"))
    expected = stmt_of("if (done) { b(); } else { a(); }", params="boolean done")
    assert structurally_equal(flipped, expected)


def test_flip_requires_else():
    with pytest.raises(NotApplicable) as exc:
        flip_if(stmt_of("if (x > 0) { a(); }"))
    assert exc.value.reason == "no-else"
    with pytest.raises(NotApplicable):
        flip_if(stmt_of("if (x > 0) { a(); } else { }"))


def test_flip_skips_else_if_chains():
    with pytest.raises(NotApplicable) as exc:
        flip_if(stmt_of("if (x == 1) { a(); } else if (x == 2) { b(); } else { c(); }"))
    assert exc.value.reason == "else-if-chain"


def test_flip_involution_generated():
    rng = random.Random(0xF11)
    for _ in range(150):
        original = gen_if_else(rng)
        assert structurally_equal(flip_if(flip_if(original)), original)


# ---------------------------------------------------------------------------
# convert_loop
# ---------------------------------------------------------------------------


def test_for_to_while_schema():
    converted = convert_loop(stmt_of(
        "for (int i = 0; i < n; i = i + 1) { total = total + i; }"))
    expected = stmt_of(
        "{ int i = 0; while (i < n) { total = total + i; i = i + 1; } }")
    assert structurally_equal(converted, expected)


def test_while_to_for_schema():
    converted = convert_loop(stmt_of("while (it.hasNext()) { use(it.next()); }"))
    expected = stmt_of("for (; it.hasNext(); ) { use(it.next()); }")
    assert structurally_equal(converted, expected)


def test_convert_loop_refuses_a_statement_that_is_not_a_loop():
    with pytest.raises(TypeError, match="convert_loop expects a loop, got ExprStmt"):
        convert_loop(stmt_of("mark(x);"))


def test_continue_blocks_for_conversion():
    loop = stmt_of(
        "for (int i = 0; i < n; i = i + 1) { if (i == 2) { continue; } mark(i); }")
    with pytest.raises(NotApplicable) as exc:
        convert_loop(loop)
    assert exc.value.reason == "continue-in-body"


def test_a_continue_of_a_nested_loop_does_not_block_for_conversion():
    loop = stmt_of("for (int i = 0; i < 3; i = i + 1) "
                   "{ int j = 0; while (j < 3) { j = j + 1; if (j == 2) { continue; } mark(j); } }")
    converted = convert_loop(loop)
    assert isinstance(converted, Block) and isinstance(converted.stmts[1], While)


def test_a_continue_inside_a_nested_switch_blocks_for_conversion():
    # A continue inside a switch still targets the loop around the switch.
    loop = stmt_of("for (int i = 0; i < 3; i = i + 1) "
                   "{ switch (x) { case 1: continue; default: mark(i); } }")
    with pytest.raises(NotApplicable) as exc:
        convert_loop(loop)
    assert exc.value.reason == "continue-in-body"


def test_multi_declaration_init_blocks_conversion():
    loop = stmt_of("for (int i = 0, j = 1; i < n; i = i + 1) { mark(i); }")
    with pytest.raises(NotApplicable) as exc:
        convert_loop(loop)
    assert exc.value.reason == "multi-declaration-init"


def test_while_for_while_round_trip():
    loop = stmt_of("while (x > 0) { x = x - 1; }")
    assert structurally_equal(convert_loop(convert_loop(loop)), loop)


def test_omitted_for_condition_becomes_true():
    converted = convert_loop(stmt_of("for (; ; ) { break; }"))
    expected = stmt_of("while (true) { break; }")
    assert structurally_equal(converted, expected)


def test_for_while_for_round_trip_modulo_scoping_block():
    loop = stmt_of("for (int i = 0; i < n; i = i + 1) { mark(i); }")
    wrapper = convert_loop(loop)
    assert isinstance(wrapper, Block)
    init, inner_while = wrapper.stmts
    back = convert_loop(inner_while)
    # The loop itself converts back to a for; init and update stay hoisted
    # into the scoping block introduced by the first conversion.
    expected = stmt_of("for (; i < n; ) { mark(i); i = i + 1; }")
    assert structurally_equal(back, expected)
    assert structurally_equal(init, stmt_of("int i = 0;"))


def test_an_expression_for_init_and_a_final_parameter_pass_print_loop_convert_and_the_oracle():
    ast = parse("class W { static int f(final int n) { int s = 0; int i; "
                "for (i = 0; i < 3; i = i + 1) { s = s + n; } return s + i; } }")
    printed = print_source(ast)
    assert "static int f(final int n) {" in printed
    assert "for (i = 0; i < 3; i = i + 1) {" in printed
    assert structurally_equal(parse(printed), ast)
    m = ast.types[0].methods[0]
    out, report = apply_rule(m, TransformRule.LOOP_CONVERT, context=ast)
    assert [d for _, _, d in report.applied] == ["for-to-while"]
    text = "class W {\n" + print_method(out, 1) + "}\n"
    assert structurally_equal(parse(text).types[0].methods[0], out)
    assert "        {\n            i = 0;\n            while (i < 3) {\n" in text
    assert evaluate(out, [2], context=ast) == Returned(9)
    assert check_equivalence(m, out, context1=ast, context2=ast).verdict == EQUIVALENT


# ---------------------------------------------------------------------------
# convert_conditional
# ---------------------------------------------------------------------------


def test_ternary_assignment_schema():
    out = convert_conditional(stmt_of("v = cond ? hi : lo;",
                                      params="int v, boolean cond, int hi, int lo"))
    expected = stmt_of("if (cond) { v = hi; } else { v = lo; }",
                       params="int v, boolean cond, int hi, int lo")
    assert len(out) == 1
    assert structurally_equal(out[0], expected)


def test_ternary_initializer_splits_declaration():
    out = convert_conditional(stmt_of("int v = cond ? hi : lo;",
                                      params="boolean cond, int hi, int lo"))
    assert len(out) == 2
    assert isinstance(out[0], LocalVarDecl) and out[0].init is None
    expected_if = stmt_of("if (cond) { v = hi; } else { v = lo; }",
                          params="int v, boolean cond, int hi, int lo")
    assert structurally_equal(out[1], expected_if)


def test_switch_to_if_chain_schema():
    out = convert_conditional(stmt_of(
        "switch (k) { case 1: a(); break; default: b(); }", params="int k"))
    expected = stmt_of("if (k == 1) { a(); } else { b(); }", params="int k")
    assert structurally_equal(out[0], expected)


def test_fallthrough_switch_not_convertible():
    sw = stmt_of("switch (k) { case 1: a(); case 2: b(); break; }", params="int k")
    with pytest.raises(NotApplicable) as exc:
        convert_conditional(sw)
    assert exc.value.reason == "fallthrough"


def unreachable(node) -> list:
    """The statements under `node` that follow, in their block or case body,
    one that cannot complete normally: javac rejects each one."""
    out = []
    for n in walk(node):
        body = n.stmts if isinstance(n, Block) else n.body if isinstance(n, SwitchCase) else ()
        out += [s for before, s in zip(body, body[1:]) if jumps(before)]
    return out


def convert_in_loop(code: str, detail: str):
    """`f(int k, boolean c)`, which runs `code` in a counted loop, after
    CondConvert: the one conversion, with `detail`, must give a method that
    compiles, holds no unreachable statement and is equivalent."""
    ast = parse("class W { static int f(int k, boolean c) { int r = 0; "
                f"for (int i = 0; i < 4; i = i + 1) {{ {code} r = r + 10; }} return r; }} }}")
    m = ast.types[0].methods[0]
    out, report = apply_rule(m, TransformRule.COND_CONVERT, context=ast)
    assert [d for _, _, d in report.applied] == [detail]
    assert unreachable(out) == []
    assert is_supported(out, ast)
    assert check_equivalence(m, out, context1=ast, context2=ast).verdict == EQUIVALENT
    return out


@pytest.mark.parametrize("code, breaks", [
    ("if (k == 1) { r = r + 1; continue; } else if (k == 2) { r = r + 2; } else { r = r + i; }",
     [False, True, False]),
    ("if (k == 1) { r = r + 1; } else if (k == 2) { if (c) { return 1; } else { return 2; } } "
     "else { r = r + i; }", [True, False, False]),
    ("if (k == 1) { r = r + 1; } else if (k == 2) { r = r + 2; continue; }", [True, False]),
    ("if (k == 1) { while (true) { r = r + 1; return r; } } else if (k == 2) { r = r + 2; } "
     "else { r = r + i; }", [False, True, False]),
    # `k + i` keeps CondConvert from rewriting the inner switch itself
    ("if (k == 1) { r = r + 1; } else if (k == 2) { switch (k + i) { case 3: return 1; "
     "default: return 2; } } else { r = r + i; }", [True, False, False]),
], ids=["continue", "if-else-returns", "no-final-else", "while-true-returns",
        "switch-with-default-returns"])
def test_an_if_chain_branch_that_jumps_gets_no_break(code, breaks):
    out = convert_in_loop(code, "if-chain-to-switch")
    switch = next(n for n in walk(out) if isinstance(n, Switch))
    assert [isinstance(case.body[-1], Break) for case in switch.cases] == breaks


def test_a_switch_case_that_ends_in_continue_does_not_fall_through():
    out = convert_in_loop("switch (k) { case 1: r = r + 1; continue; case 2: r = r + 2; break; "
                          "default: r = r + i; }", "switch-to-if-chain")
    chain = next(n for n in walk(out) if isinstance(n, If))
    assert print_stmt(chain) == ("if (k == 1) {\n    r = r + 1;\n    continue;\n"
                                 "} else if (k == 2) {\n    r = r + 2;\n"
                                 "} else {\n    r = r + i;\n}\n")


def test_string_switch_uses_equals():
    out = convert_conditional(stmt_of(
        'switch (s) { case "a": a(); break; default: b(); }'))
    expected = stmt_of('if (s.equals("a")) { a(); } else { b(); }')
    assert structurally_equal(out[0], expected)


def test_if_chain_to_switch():
    chain = stmt_of(
        "if (k == 1) { a(); } else if (k == 2) { b(); } else { c(); }", params="int k")
    out = convert_conditional(chain)
    expected = stmt_of(
        "switch (k) { case 1: a(); break; case 2: b(); break; default: c(); }",
        params="int k")
    assert structurally_equal(out[0], expected)


def test_an_or_of_equalities_becomes_one_case_with_two_labels():
    source = ("class W { static int f(int k) { int r = 0; if (k == 1 || 2 == k) { r = 10; } "
              "else if (k == 3) { r = 20; } else { r = 30; } return r; } }")
    ast = parse(source)
    m = ast.types[0].methods[0]
    out, report = apply_rule(m, TransformRule.COND_CONVERT)
    assert [detail for _, _, detail in report.applied] == ["if-chain-to-switch"]
    expected = stmt_of("switch (k) { case 1: case 2: r = 10; break; case 3: r = 20; break; "
                       "default: r = 30; }", params="int k, int r")
    assert structurally_equal(out.body.stmts[1], expected)
    assert [evaluate(out, [k], context=ast) for k in range(5)] == [
        Returned(r) for r in (30, 10, 10, 20, 30)]


def test_plain_if_else_is_not_a_chain():
    with pytest.raises(NotApplicable):
        convert_conditional(stmt_of("if (k == 1) { a(); } else { b(); }", params="int k"))


def test_effectful_scrutinee_refused():
    sw = stmt_of("switch (roll()) { case 1: a(); break; default: b(); }")
    with pytest.raises(NotApplicable) as exc:
        convert_conditional(sw)
    assert exc.value.reason == "effectful-scrutinee"


SCOPED_SWITCH = ("switch (k) { case 1: int x = 1; r = x; break; "
                 "case 2: x = 2; r = x + 1; break; default: r = 0; }")
SCOPED_CHAIN = ("if (k == 1) { int x = 1; r = x; } else if (k == 2) { int x = 2; r = x + 1; } "
                "else { r = 0; }")


# A switch block is one scope and each if branch its own: the switch's case 2
# would use an undeclared `x` as an if branch, and the chain's two `int x`
# would be declared twice in one switch block.
@pytest.mark.parametrize("code", [SCOPED_SWITCH, SCOPED_CHAIN], ids=["switch", "if-chain"])
def test_a_local_shared_between_cases_blocks_conversion(code):
    source = f"class W {{ static int f(int k) {{ int r = 0; {code} return r; }} }}"
    m = parse(source).types[0].methods[0]
    site = m.body.stmts[1]
    with pytest.raises(NotApplicable) as exc:
        convert_conditional(site)
    assert exc.value.reason == "case-scoped-local"
    out, report = apply_rule(m, TransformRule.COND_CONVERT)
    assert structurally_equal(out, m)
    assert report.applied == []
    assert report.skipped == [(TransformRule.COND_CONVERT, site.span, "case-scoped-local")]


def test_a_misplaced_ternary_is_reported_once():
    source = ("class W { static int f(int k) { int r = 0; "
              "if (k > 0) { if (k > 3) { r = mix(k > 1 ? 1 : 2); } } return r; } "
              "static int mix(int v) { return v; } }")
    m = parse(source).types[0].methods[0]
    ternary = next(n for n in walk(m) if isinstance(n, Ternary))
    _, report = apply_rule(m, TransformRule.COND_CONVERT)
    assert report.skipped == [
        (TransformRule.COND_CONVERT, ternary.span, "nested-ternary-position")]


@pytest.mark.parametrize("code", [
    "switch (k) { case 1: int x = 1; r = x; break; default: int y = 2; r = y; }",
    "if (k == 1) { int x = 1; r = x; } else if (k == 2) { { int y = 2; r = y; } } else { r = 0; }",
], ids=["switch", "if-chain"])
def test_a_local_kept_to_one_case_converts(code):
    out = convert_conditional(stmt_of(code, params="int k, int r"))
    assert len(out) == 1


def test_inner_break_refused():
    sw = stmt_of(
        "switch (k) { case 1: if (x > 0) { break; } a(); break; default: b(); }",
        params="int k, int x")
    with pytest.raises(NotApplicable) as exc:
        convert_conditional(sw)
    assert exc.value.reason == "inner-break"


@pytest.mark.parametrize("code, reason", [
    ("var v = k > 0 ? 1 : 2;", "var-requires-initializer"),
    ("if (k == 1) { a(); } else if (k == 1) { b(); }", "duplicate-labels"),
    ("if (k == 1) { a(); } else if (k == 2) { b(); } else { if (k > 3) { break; } c(); }",
     "inner-break"),
    ("mark(k);", "not-a-conditional-site"),
], ids=["var-ternary", "duplicate-labels", "break-in-final-else", "not-a-conditional"])
def test_a_conditional_site_is_refused(code, reason):
    with pytest.raises(NotApplicable) as exc:
        convert_conditional(stmt_of(code, params="int k"))
    assert exc.value.reason == reason


@pytest.mark.parametrize("code, reason", [
    ("switch (k) { }", "empty-switch"),
    ("switch (k) { case 1: default: r = 1; }", "mixed-default-labels"),
    ('switch (k) { case 1: r = 1; break; case "a": r = 2; }', "mixed-label-types"),
    ("switch (k) { default: r = 1; }", "no-value-cases"),
    ("switch (k) { default: }", "no-value-cases"),
    ("if (k == 1) { r = 1; } else if (k > 2) { r = 2; }", "non-literal-guards"),
    ("if (k == 1) { r = 1; } else if (r == 2) { r = 2; }", "non-literal-guards"),
    ("if (k == 1) { r = 1; } else if (k == 2 || r == 3) { r = 2; }", "non-literal-guards"),
    ("switch (g().k) { case 1: r = 1; break; default: r = 2; }", "effectful-scrutinee"),
    # a whole initializer is not also reported as a nested ternary
    ("var v = k > 0 ? 1 : 2; r = v;", "var-requires-initializer"),
    ("if (k == 1) { r = 1; } else if (k == r) { r = 2; }", "non-literal-guards"),
], ids=["empty-switch", "mixed-default-labels", "mixed-label-types", "no-value-cases",
        "empty-default", "comparison-guard", "other-scrutinee", "other-scrutinee-in-an-or",
        "field-of-a-call", "var-ternary", "name-guard"])
def test_a_refused_conditional_is_reported_at_its_site(code, reason):
    ast = parse(f"class W {{ static int f(int k) {{ int r = 0; {code} return r; }} }}")
    m = ast.types[0].methods[0]
    out, report = apply_rule(m, TransformRule.COND_CONVERT, ast)
    assert structurally_equal(out, m)
    assert report.applied == []
    assert report.skipped == [(TransformRule.COND_CONVERT, m.body.stmts[1].span, reason)]


def test_evaluation_order():
    """Operands in field order, before the step that uses them; a field
    target's receiver but not the field itself; every operand after the
    first of `&&`, `||` and `?:` conditional."""
    stmt = stmt_of("int a = this.total = s.substring(x, n).length() + new Box(-x).size(), "
                   "b = p && !q || r ? a : -n;",
                   params="int x, int n, String s, boolean p, boolean q, boolean r")
    assert [(type(node).__name__,
             node.name if isinstance(node, Declarator) else print_expr(node), conditional)
            for node, conditional in _evaluation_order(stmt)] == [
        ("Name", "this", False), ("Name", "s", False), ("Name", "x", False),
        ("Name", "n", False), ("Call", "s.substring(x, n)", False),
        ("Call", "s.substring(x, n).length()", False), ("Name", "x", False),
        ("Unary", "-x", False), ("New", "new Box(-x)", False),
        ("Call", "new Box(-x).size()", False),
        ("Binary", "s.substring(x, n).length() + new Box(-x).size()", False),
        ("Assign", "this.total = s.substring(x, n).length() + new Box(-x).size()", False),
        ("Declarator", "a", False), ("Name", "p", False), ("Name", "q", True),
        ("Unary", "!q", True), ("Binary", "p && !q", False), ("Name", "r", True),
        ("Binary", "p && !q || r", False), ("Name", "a", True), ("Name", "n", True),
        ("Unary", "-n", True), ("Ternary", "p && !q || r ? a : -n", False),
        ("Declarator", "b", False)]


# ---------------------------------------------------------------------------
# chain_functions
# ---------------------------------------------------------------------------


def test_split_matches_paper_shape():
    block = block_of("value.getClass().equals(expected);",
                     params="Object value, Object expected")
    split = chain_functions(block, SPLIT)
    expected = block_of(
        "Class value_class = value.getClass(); value_class.equals(expected);",
        params="Object value, Object expected")
    assert structurally_equal(split, expected)


def test_merge_inverts_split_generated():
    rng = random.Random(0xC4A1)
    for _ in range(150):
        block = gen_chain_stmt(rng)
        split = chain_functions(block, SPLIT)
        assert len(split.stmts) == 2
        merged = chain_functions(split, MERGE)
        assert structurally_equal(merged, block)


def test_merge_requires_single_use():
    block = block_of(
        "String piece = s.concat(\"x\"); piece.length(); mark(piece);")
    merged = chain_functions(block, MERGE)
    assert structurally_equal(merged, block)


def test_split_names_a_field_receiver_by_its_field():
    split = chain_functions(block_of("this.path.normalize().toString();"), SPLIT)
    assert split.stmts[0].declarators[0].name == "path_normalize"


@pytest.mark.parametrize("rewrite", [chain_functions, argument_pass])
def test_an_unknown_direction_is_refused(rewrite):
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        rewrite(block_of("f(g(x));"), "sideways")


def test_split_skips_when_preceding_effect():
    # g() runs before the chain's inner call; hoisting would reorder them.
    block = block_of("mark(g(), value.getClass().equals(x));", params="Object value, int x")
    with pytest.raises(NotApplicable):
        chain_functions(block, SPLIT)


# ---------------------------------------------------------------------------
# argument_pass
# ---------------------------------------------------------------------------


def test_extract_matches_paper_shape():
    block = block_of("checkDirTraversal(parentPath.normalize());", params="Path parentPath")
    out = argument_pass(block, EXTRACT)
    expected = block_of(
        "var normalizedParentPath = parentPath.normalize();\n"
        "checkDirTraversal(normalizedParentPath);",
        params="Path parentPath")
    assert structurally_equal(out, expected)


def test_inline_inverts_extract_generated():
    rng = random.Random(0xA26)
    for _ in range(150):
        block = gen_call_arg_stmt(rng)
        extracted = argument_pass(block, EXTRACT)
        assert len(extracted.stmts) == 2
        inlined = argument_pass(extracted, INLINE)
        assert structurally_equal(inlined, block)


def test_inline_example():
    block = block_of("var t = g(x); f(t);")
    out = argument_pass(block, INLINE)
    assert structurally_equal(out, block_of("f(g(x));"))


def test_inline_into_a_throw():
    out = argument_pass(block_of("var t = g(x); throw new E(t);"), INLINE)
    assert structurally_equal(out, block_of("throw new E(g(x));"))


def test_inline_requires_single_use():
    block = block_of("var t = g(x); f(t); mark(t);")
    assert structurally_equal(argument_pass(block, INLINE), block)


def test_inline_blocked_by_interfering_write():
    block = block_of("int t = x + 1; x = 9; f(t);")
    assert structurally_equal(argument_pass(block, INLINE), block)


def test_inline_keeps_a_throwing_initializer_before_a_field_write():
    # If b == 0 the field must stay unwritten when the exception escapes.
    block = block_of("int t = a / b; p.x = 1; f(t);", params="int a, int b, Point p")
    assert structurally_equal(argument_pass(block, INLINE), block)


# Each way a sink refuses, through merge and through inline: the use is not
# in an expression statement, is not of the rule's shape, runs conditionally,
# or comes after code that conflicts with the initializer; merge also needs a
# call to sink, and inline passes only straight-line statements. Merge never
# passes a statement; inline's pass is test_inline_blocked_by_interfering_write.
@pytest.mark.parametrize("direction, code", [
    (MERGE, "String t = s.trim(); if (t.isEmpty()) { mark(x); }"),
    (MERGE, "String t = s.trim(); mark(t);"),
    (MERGE, "String t = s.trim(); boolean b = x > 0 && t.isEmpty();"),
    (MERGE, "String t = s.trim(); int k = g() + t.length();"),
    (INLINE, "var t = g(x); if (f(t)) { mark(x); }"),
    (INLINE, "var t = g(x); f(t + 1);"),
    (INLINE, "var t = g(x); boolean b = x > 0 && f(t);"),
    (INLINE, "var t = g(x); f(h(n), t);"),
    (MERGE, "String t = s; mark(t.trim());"),
    (INLINE, "var t = g(x); if (n > 0) { mark(x); } f(t);"),
], ids=[*(f"{d}-{why}" for d in (MERGE, INLINE)
          for why in ("no-holder", "no-use", "conditional", "conflict")),
        f"{MERGE}-not-a-call", f"{INLINE}-passes-a-branch"])
def test_a_sink_is_refused(direction, code):
    block = block_of(code)
    rewrite = chain_functions if direction == MERGE else argument_pass
    assert structurally_equal(rewrite(block, direction), block)


def test_extract_fresh_name_avoids_collisions():
    block = block_of("int normalizedParentPath = 3; f(parentPath.normalize());",
                     params="Path parentPath")
    out = argument_pass(block, EXTRACT)
    names = [d.name for st in out.stmts if isinstance(st, LocalVarDecl)
             for d in st.declarators]
    assert "normalizedParentPath" in names
    assert "normalizedParentPath2" in names


@pytest.mark.parametrize("source", [
    "class A { void f(int n) { getInt().foo(); } }",
    "class A { void f() { int k = 0; getInt().foo(); } }",
    "class A { void f() { getTrue().foo(); } }",
])
def test_split_fresh_name_is_never_a_reserved_word(source):
    ast = parse(source)
    out, report = apply_rule(ast.types[0].methods[0], TransformRule.FUNCTION_CHAIN, context=ast)
    assert report.applied
    decl = out.body.stmts[-2]
    assert decl.name in ("int2", "true2")
    parse("class W {\n" + print_method(out, 1) + "}\n")


def test_extract_keeps_argument_order():
    block = block_of("f(g(x), h(n));")
    out = argument_pass(block, EXTRACT)
    decls = [s for s in out.stmts if isinstance(s, LocalVarDecl)]
    assert len(decls) == 2
    # g's result is hoisted before h's, preserving evaluation order.
    assert "g(x)" in print_stmt(decls[0])
    assert "h(n)" in print_stmt(decls[1])


# Hoisted code takes its own operands along, so only what is evaluated before
# its first operand stays behind it: (rule, method, the hoisted declaration).
HOISTED_WITH_OPERANDS = {
    "field operand": (TransformRule.ARGUMENT_PASS,
                      "String base; void f() { send(normalize(base)); }",
                      "var normalized = normalize(base);"),
    "throwing operand": (TransformRule.ARGUMENT_PASS,
                         "static int f(int n) { return Math.min(Math.abs(n % 50), 40); }",
                         "var tmp = Math.abs(n % 50);"),
    "throwing chain operand": (TransformRule.FUNCTION_CHAIN,
                               "static int f(String a, int c, int d) {"
                               " int n = a.substring(c / d).length(); return n; }",
                               "String a_substring = a.substring(c / d);"),
    "allocation": (TransformRule.ARGUMENT_PASS,
                   "void f(Point p) { send(new File(p.y)); }",
                   "File file = new File(p.y);"),
}


@pytest.mark.parametrize("name", HOISTED_WITH_OPERANDS)
def test_a_hoist_is_not_checked_against_its_own_operands(name):
    rule, members, decl = HOISTED_WITH_OPERANDS[name]
    ast = parse(f"class A {{ {members} }}")
    m = ast.types[0].methods[0]
    out, report = apply_rule(m, rule, context=ast)
    assert report.skipped == []
    assert len(report.applied) == 1
    assert print_stmt(out.body.stmts[0]) == decl + "\n"


# ---------------------------------------------------------------------------
# reorder_statements
# ---------------------------------------------------------------------------


def test_reorder_paper_example():
    block = block_of("funcA(); int n2 = 0;")
    out = reorder_statements(block)
    expected = block_of("int n2 = 0; funcA();")
    assert structurally_equal(out, expected)


def test_reorder_blocks_two_impure_calls():
    block = block_of("int a = f(); int b = g();")
    assert structurally_equal(reorder_statements(block), block)


def test_reorder_blocks_dependency():
    block = block_of("int a = 1; int b = a + 1;")
    assert structurally_equal(reorder_statements(block), block)


def test_reorder_never_moves_control_flow():
    block = block_of("int a = 1; return;")
    assert structurally_equal(reorder_statements(block), block)


# A field read through a receiver other than `this` may throw, so it keeps
# its place before other code that may throw.
@pytest.mark.parametrize("code, swapped", [
    ("int a = p.x; int b = 1 / n;", False),
    ("int a = this.x; int b = 1 / n;", True),
], ids=["receiver", "this"])
def test_a_field_read_through_a_receiver_may_throw(code, swapped):
    block = block_of(code, params="Point p, int n")
    assert structurally_equal(reorder_statements(block), block) is not swapped


def test_reorder_is_permutation_generated():
    rng = random.Random(0x02D)
    for _ in range(150):
        block = gen_straightline_block(rng)
        out = reorder_statements(block)
        assert sorted(map(repr, out.stmts)) == sorted(map(repr, block.stmts))


# ---------------------------------------------------------------------------
# apply_all
# ---------------------------------------------------------------------------


def test_apply_all_reports_rules():
    src = """class W {
        static int work(int k, int n) {
            if (k > 0) { k = k + 1; } else { k = k - 1; }
            for (int i = 0; i < n; i = i + 1) { k = k + i; }
            return k;
        }
    }"""
    m = parse(src).types[0].methods[0]
    out, report = apply_all(m)
    rules = {rule for rule, _, _ in report.applied}
    assert TransformRule.IF_FLIP in rules
    assert TransformRule.LOOP_CONVERT in rules


def test_apply_all_identity_when_nothing_applies():
    m = parse("class W { static int idle(int x) { return x; } }").types[0].methods[0]
    out, report = apply_all(m)
    assert structurally_equal(out, m)
    assert report.applied == []


def test_apply_all_deterministic(corpus_files):
    for name, ast in corpus_files.items():
        for m in ast.types[0].methods:
            out1, rep1 = apply_all(m, context=ast)
            out2, rep2 = apply_all(m, context=ast)
            assert structurally_equal(out1, out2)
            assert rep1.to_json_dict() == rep2.to_json_dict()


def test_apply_all_output_reparses(corpus_files):
    from vmorph.printer import print_method

    for name, ast in corpus_files.items():
        for m in ast.types[0].methods:
            out, _ = apply_all(m, context=ast)
            text = "class W {\n" + print_method(out, 1) + "}\n"
            reparsed = parse(text).types[0].methods[0]
            assert structurally_equal(reparsed, out), (name, m.name)


def test_apply_all_skip_reasons_recorded():
    src = """class W {
        static int caution(int n) {
            if (n > 0) { mark(n); }
            for (int i = 0; i < n; i = i + 1) { if (i == 1) { continue; } mark(i); }
            return n;
        }
    }"""
    m = parse(src).types[0].methods[0]
    _, report = apply_all(m)
    reasons = {reason for _, _, reason in report.skipped}
    assert "no-else" in reasons
    assert "continue-in-body" in reasons


def test_report_spans_inside_method(corpus_files):
    for name, ast in corpus_files.items():
        for m in ast.types[0].methods:
            _, report = apply_all(m, context=ast)
            for _, span, _ in report.applied + report.skipped:
                if not span.is_synthetic():
                    assert m.span.contains(span), (name, m.name, span)


# ---------------------------------------------------------------------------
# The order each rule visits its sites in: it decides fresh names and report order
# ---------------------------------------------------------------------------

NESTED_SITES = """class W {
    static int order(int k, String s) {
        int r = 0;
        if (k > 0) {
            if (k > 1) {
                r = s.trim().length();
                r = mix(pick(r), 1);
            } else {
                r = k < 3 ? 1 : 2;
            }
            for (int i = 0; i < k; i = i + 1) {
                while (r > 9) {
                    r = r - 1;
                }
            }
        } else {
            switch (k) {
                case 1:
                    r = k > 5 ? 3 : 4;
                    break;
                default:
                    r = 5;
            }
        }
        if (k > 5) {
            r = s.trim().length();
            r = mix(pick(k), 1);
            int a = k;
            int b = k;
        } else {
            r = 2;
        }
        r = mix(pick(r), s.trim().length());
        r = mix(pick(r), k > 2 && flag(pick(k)));
        r = r + s.trim().length();
        int u = k;
        int v = k;
        return r;
    }
}
"""

APPLIED, SKIPPED = "applied", "skipped"

# Per rule: every report entry as (list, line, detail), in the order written,
# and the line of each introduced local -> its fresh name.
NESTED_SITES_ORDER = {
    # Outer-first, per statement; the flipped if's else (its old then) first.
    TransformRule.IF_FLIP: ([(APPLIED, 4, "condition negated, branches swapped"),
                             (APPLIED, 5, "condition negated, branches swapped"),
                             (APPLIED, 25, "condition negated, branches swapped")], {}),
    # Inner-first.
    TransformRule.LOOP_CONVERT: ([(APPLIED, 12, "while-to-for"),
                                  (APPLIED, 11, "for-to-while")], {}),
    TransformRule.COND_CONVERT: ([(APPLIED, 19, "ternary-to-if-else"),
                                  (APPLIED, 17, "switch-to-if-chain"),
                                  (APPLIED, 9, "ternary-to-if-else")], {}),
    # Block by block: all of a block's sites, then the blocks nested in it.
    TransformRule.FUNCTION_CHAIN: ([(SKIPPED, 33, "interference"),
                                    (APPLIED, 35, "chain link hoisted into local"),
                                    (APPLIED, 6, "chain link hoisted into local"),
                                    (APPLIED, 26, "chain link hoisted into local")],
                                   {35: "s_trim", 6: "s_trim2", 26: "s_trim3"}),
    # A statement's per-argument skips come before its applied entry.
    TransformRule.ARGUMENT_PASS: ([(APPLIED, 33, "2 argument(s) extracted into locals"),
                                   (SKIPPED, 34, "conditional-context"),
                                   (APPLIED, 34, "1 argument(s) extracted into locals"),
                                   (APPLIED, 7, "1 argument(s) extracted into locals"),
                                   (APPLIED, 27, "1 argument(s) extracted into locals")],
                                  {33: "tmp2", 34: "tmp3", 7: "tmp4", 27: "tmp5"}),
    TransformRule.CODE_ORDER: ([(APPLIED, 35, "independent adjacent statements swapped"),
                                (APPLIED, 27, "independent adjacent statements swapped")], {}),
}


class _Logged(list):
    """A report list that also logs each entry into one shared list, so the
    order of applied and skipped entries relative to each other shows."""

    def __init__(self, log, kind):
        super().__init__()
        self.log, self.kind = log, kind

    def append(self, entry):
        super().append(entry)
        rule, span, detail = entry
        self.log.append((rule, self.kind, span.start_line, detail))


@pytest.mark.parametrize("rule", list(TransformRule), ids=lambda r: r.value)
def test_site_order_over_nested_blocks(rule, monkeypatch):
    import vmorph.transforms as transforms

    log = []
    report = transforms.TransformReport
    monkeypatch.setattr(transforms, "TransformReport", lambda: report(
        applied=_Logged(log, APPLIED), skipped=_Logged(log, SKIPPED)))
    ast = parse(NESTED_SITES)
    m = ast.types[0].methods[0]
    out, _ = apply_rule(m, rule)
    entries, fresh = NESTED_SITES_ORDER[rule]
    assert log == [(rule, *e) for e in entries]
    assert {n.declarators[0].span.start_line: n.declarators[0].name
            for n in walk(out.body) if isinstance(n, LocalVarDecl)
            and n.declarators[0].name not in {"r", "i", "a", "b", "u", "v"}} == fresh


# ---------------------------------------------------------------------------
# Fields: an impure call may read or write any field
# ---------------------------------------------------------------------------

FIELD_CLASS = """class Counter {
    static int count;
    static int bump() {
        count = count + 1;
        return count;
    }
    static int sum(int a, int b) {
        return a + b;
    }
    static String mk() {
        count = count + 1;
        return "x";
    }
    static int subject(int n) {
%s
    }
}
"""


@pytest.mark.parametrize("rule, body", [
    (TransformRule.CODE_ORDER, "int a = bump();\ncount = n;\nreturn a;"),
    (TransformRule.CODE_ORDER, "int a = count;\nint b = bump();\nreturn a + b;"),
    (TransformRule.ARGUMENT_PASS, "return sum(count, bump());"),
    (TransformRule.FUNCTION_CHAIN, "int r = sum(count, mk().length());\nreturn r;"),
    (TransformRule.CODE_ORDER,
     # The `continue` keeps apply_all's LoopConvert off the loop.
     "int a = bump();\ncount = n;\nfor (int count = 0; count < 1; count = count + 1) {\n"
     "continue;\n}\nreturn a;"),
    (TransformRule.CODE_ORDER, "int a = bump();\ncount = n;\nint count = 2;\nreturn a + count;"),
    (TransformRule.CODE_ORDER, "int a = 10 / n;\ncount = n;\nreturn a;"),
    (TransformRule.ARGUMENT_PASS, "return sum(count = n, Math.abs(n));"),
], ids=["order-write", "order-read", "extract", "split", "order-shadowed-later-in-loop",
        "order-shadowed-later-in-block", "order-throw", "extract-throw"])
def test_impure_call_keeps_its_place_around_fields(rule, body):
    ast = parse(FIELD_CLASS % body, "Counter.java")
    m = next(m for m in ast.types[0].methods if m.name == "subject")
    site_line = m.body.stmts[0].span.start_line
    out, report = apply_rule(m, rule, context=ast)
    assert structurally_equal(out, m)
    assert [r for r, span, _ in report.skipped
            if r is rule and span.start_line == site_line], report.skipped
    if rule is TransformRule.CODE_ORDER:
        out, _ = apply_all(m, context=ast)
        assert structurally_equal(out, m)


def test_a_project_method_named_like_a_pure_library_method_is_impure():
    """The file's own `length()` writes the field `n`, so it may not swap
    with a read of `n`: g() returns 0 as written and 1 with the two swapped."""
    ast = parse("class A { static int n; static int length() { n = n + 1; return n; } "
                "static int g() { int a = length(); int b = n; return a - b; } }")
    g = ast.types[0].methods[1]
    out, report = apply_all(g, context=ast)
    assert structurally_equal(out, g)
    assert report.skipped == [(TransformRule.CODE_ORDER, g.body.stmts[0].span,
                               "heap-interference")]


GOLDEN_APPLY_ALL = FIXTURES / "golden" / "apply_all_corpus.txt"


def apply_all_corpus_snapshot() -> str:
    """The printed `apply_all` output and report of every corpus method.

    Regenerate the golden file (only when an output change is intended) with
    `PYTHONPATH=src:tests python -c "import test_transforms as t;
    t.GOLDEN_APPLY_ALL.write_text(t.apply_all_corpus_snapshot())"`.
    """
    parts = []
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        ast = parse(path.read_text(), path.name)
        for cls in ast.types:
            for m in cls.methods:
                out, report = apply_all(m, context=ast)
                parts.append(f"// {path.name} {cls.name}.{m.name}\n")
                parts.append(print_method(out))
                parts.append(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return "".join(parts)


def test_apply_all_corpus_matches_golden():
    assert apply_all_corpus_snapshot().encode("utf-8") == GOLDEN_APPLY_ALL.read_bytes()


def fuzz_sources():
    """(file name, parsed file) of the generated methods the differential
    fuzz suite runs: seeds 0-159, and 40 seeds whose methods call leaves."""
    for seed in [*range(160), *range(LEAF_SEEDS, LEAF_SEEDS + 40)]:
        name = f"Fuzzed{seed}.java"
        yield name, parse(generate_method_source(seed), name)


def test_no_rewrite_leaves_a_statement_after_a_jump(all_fixture_sources):
    """javac rejects a statement that follows, in its block or case, one
    that cannot complete normally (JLS 14.22). No rule and no apply_all
    output of a fixture or generated method holds one."""
    files = [(name, parse(text, name)) for name, text in all_fixture_sources.items()]
    for name, ast in files + list(fuzz_sources()):
        for cls in ast.types:
            for m in cls.methods:
                outputs = [apply_all(m, context=ast)[0]]
                outputs += [apply_rule(m, rule, context=ast)[0] for rule in TransformRule]
                for out in outputs:
                    assert unreachable(out) == [], (name, m.name, print_method(out))


# sha256 of the printed apply_all output and report JSON of every method of
# javagen seeds 0-159. Change it only when an output change is intended.
JAVAGEN_APPLY_ALL_DIGEST = "937211e663c7991877f69200126e3d6b414aab24093130c41989a5e807beea05"


def test_apply_all_on_generated_methods_matches_its_digest():
    h = hashlib.sha256()
    for seed in range(160):
        ast = parse(generate_method_source(seed), f"Fuzzed{seed}.java")
        for cls in ast.types:
            for m in cls.methods:
                out, report = apply_all(m, context=ast)
                h.update(print_method(out).encode())
                h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    assert h.hexdigest() == JAVAGEN_APPLY_ALL_DIGEST
