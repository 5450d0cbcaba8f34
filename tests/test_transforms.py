import json
import random
from dataclasses import replace

import pytest

from vmorph.errors import NotApplicable
from vmorph.nodes import Block, Break, If, LocalVarDecl, Switch, structurally_equal, walk
from vmorph.parser import parse
from vmorph.printer import print_method, print_stmt
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
)

from conftest import (
    FIXTURES,
    gen_call_arg_stmt,
    gen_chain_stmt,
    gen_if_else,
    gen_straightline_block,
    parse_stmts,
)


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


def test_continue_blocks_for_conversion():
    loop = stmt_of(
        "for (int i = 0; i < n; i = i + 1) { if (i == 2) { continue; } mark(i); }")
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
    TransformRule.ARGUMENT_PASS: ([(SKIPPED, 33, "interference"),
                                   (APPLIED, 33, "1 argument(s) extracted into locals"),
                                   (SKIPPED, 34, "conditional-context"),
                                   (APPLIED, 34, "1 argument(s) extracted into locals"),
                                   (APPLIED, 7, "1 argument(s) extracted into locals"),
                                   (APPLIED, 27, "1 argument(s) extracted into locals")],
                                  {33: "tmp", 34: "tmp2", 7: "tmp3", 27: "tmp4"}),
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
