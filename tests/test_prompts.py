import pytest

from vmorph.errors import SpanOutsideMethod
from vmorph.nodes import Span
from vmorph.parser import parse
from vmorph.prompts import (
    CODEGEN_PREFIX,
    CODEX_INSERT,
    CODET5_MASK,
    FORMATS,
    INCODER_MASK,
    PLBART_MASK,
    TUNED_COMMENT,
    PromptSpec,
    build_prompt,
    find_method_at,
)


@pytest.fixture(scope="module")
def sample(fixtures_dir):
    text = (fixtures_dir / "golden" / "Sample.java").read_text()
    ast = parse(text, "Sample.java")
    method = find_method_at(ast, 6, 6)
    return text, ast, method


def _bundle(sample, fmt, lines=(6, 6), max_window=None):
    text, ast, method = sample
    span = Span("Sample.java", lines[0], 1, lines[1], 1)
    return build_prompt(PromptSpec(fmt, max_window), ast, method, span, source_text=text)


def test_codex_prefix_ends_with_bug_comment(sample):
    b = _bundle(sample, CODEX_INSERT)
    assert b.prefix.endswith("/* BUG: int bounded = value; FIXED: */")
    assert b.suffix.splitlines()[0].strip().startswith("if (bounded > ceiling)")


def test_codet5_contains_exactly_one_mask(sample):
    b = _bundle(sample, CODET5_MASK)
    assert b.text.count("<extra_id_0>") == 1


@pytest.mark.parametrize("fmt", [CODET5_MASK, PLBART_MASK, INCODER_MASK])
def test_mask_reversibility_byte_for_byte(sample, fmt):
    text, ast, method = sample
    b = _bundle(sample, fmt)
    method_text = "\n".join(
        text.split("\n")[method.span.start_line - 1 : method.span.end_line])
    assert b.text.replace(b.mask_token, b.buggy_region) == method_text


def test_codegen_prefix_stops_before_buggy_lines(sample):
    b = _bundle(sample, CODEGEN_PREFIX)
    assert b.text.rstrip().endswith("}")
    assert "int bounded = value;" not in b.text


def test_codegen_prefix_whole_body_buggy(sample):
    text, ast, method = sample
    span = Span("Sample.java", 3, 1, 10, 1)  # entire body
    b = build_prompt(PromptSpec(CODEGEN_PREFIX), ast, method, span, source_text=text)
    assert b.text == "    static int clampPositive(int value, int ceiling) {"


def test_tuned_comment_marks_lines(sample):
    b = _bundle(sample, TUNED_COMMENT)
    lines = b.text.split("\n")
    assert "        // buggy line: int bounded = value;" in lines
    assert "        int bounded = value;" not in lines


def test_multi_line_region(sample):
    b = _bundle(sample, TUNED_COMMENT, lines=(7, 9))
    assert b.text.count("// buggy line:") == 3


def test_span_outside_method_rejected(sample):
    with pytest.raises(SpanOutsideMethod):
        _bundle(sample, CODET5_MASK, lines=(1, 1))


def test_window_truncation_symmetric(sample):
    b = _bundle(sample, CODET5_MASK, max_window=5)
    lines = b.text.split("\n")
    assert len(lines) <= 5
    assert "<extra_id_0>" in lines


def test_prompts_match_golden_files(sample, fixtures_dir):
    golden = fixtures_dir / "golden"
    for fmt in FORMATS:
        b = _bundle(sample, fmt)
        name = fmt.replace("-", "_")
        if fmt == CODEX_INSERT:
            assert b.prefix == (golden / f"{name}.prefix.txt").read_text()
            assert b.suffix == (golden / f"{name}.suffix.txt").read_text()
        else:
            assert b.text == (golden / f"{name}.txt").read_text()


def test_canonical_rendering_path():
    # Without source_text the file is rendered canonically and the method
    # re-located, so a scruffy input still produces well-formed prompts.
    scruffy = "class A { static int f(int x) {\n  if (x < 0) { return 0; }\n  return x; } }"
    ast = parse(scruffy, "A.java")
    method = ast.types[0].methods[0]
    b = build_prompt(PromptSpec(CODET5_MASK), ast, method, Span("A.java", 3, 1, 3, 1))
    assert "<extra_id_0>" in b.text


OVERLOADS = """class C {
    void f(int a) {
        int x = a;
    }

    void f(String a) {
        String y = a;
    }
}
"""


def test_canonical_rendering_finds_the_overload_by_position():
    # Both overloads share a name and parameter names; the prompt is for the
    # second, whose buggy line is line 7 of the rendering.
    ast = parse(OVERLOADS, "C.java")
    method = ast.types[0].methods[1]
    b = build_prompt(PromptSpec(CODET5_MASK), ast, method, Span("C.java", 7, 1, 7, 1))
    assert b.buggy_region == "        String y = a;"
    assert b.text == "    void f(String a) {\n<extra_id_0>\n    }"


def test_canonical_rendering_rejects_a_method_of_another_file():
    ast = parse(OVERLOADS, "C.java")
    other = parse("class D {\n    void g() {\n    }\n}\n", "D.java").types[0].methods[0]
    with pytest.raises(SpanOutsideMethod):
        build_prompt(PromptSpec(CODET5_MASK), ast, other, Span("C.java", 2, 1, 2, 1))
