import gc
import hashlib
import io
import itertools
import json
import re
import sys
import tokenize
import warnings
import weakref
from pathlib import Path

import pytest

from vmorph import interp
from vmorph.errors import UnsupportedForEvaluation
from vmorph.interp import (
    DEFAULT_FUEL,
    EQUIVALENT,
    DIVERGED,
    OutOfFuel,
    Returned,
    Threw,
    VOID,
    check_equivalence,
    ensure_supported,
    evaluate,
    generate_args,
    is_supported,
    outcome_to_json,
)
from vmorph.nodes import INT_MAX, Binary, Call, evolve, walk
from vmorph.parser import parse
from vmorph.printer import print_stmt
from vmorph.transforms import TransformRule, apply_all, apply_rule

from javagen import generate_method_source


def method_named(src, name):
    ast = parse(src)
    for m in ast.types[0].methods:
        if m.name == name:
            return m, ast
    raise AssertionError(name)


SRC = """class Probe {
    static int absValue(int x) {
        if (x < 0) {
            return -x;
        }
        return x;
    }

    static int divide(int x) {
        return 1 / x;
    }

    static int modulo(int x) {
        return 7 % x;
    }

    static void spin() {
        while (true) {
        }
    }

    static int callHelper(int x) {
        return absValue(x) + 1;
    }

    static int lengthOf(String s) {
        return s.length();
    }

    static boolean sameText(String a, String b) {
        return a.equals(b);
    }

    static int wrapAround(int x) {
        return x + 1;
    }

    static String voidLike(int x) {
        return "" + x + true;
    }
}"""


def test_abs_example():
    m, ast = method_named(SRC, "absValue")
    assert evaluate(m, [-3]) == Returned(3)


def test_division_by_zero():
    m, ast = method_named(SRC, "divide")
    assert evaluate(m, [0]) == Threw("ArithmeticException")
    assert evaluate(m, [2]) == Returned(0)


def test_modulo_by_zero_and_sign():
    m, ast = method_named(SRC, "modulo")
    assert evaluate(m, [0]) == Threw("ArithmeticException")
    assert evaluate(m, [-2]) == Returned(1)  # Java: 7 % -2 == 1


def test_fuel_exhaustion():
    m, ast = method_named(SRC, "spin")
    assert evaluate(m, [], fuel=1000) == OutOfFuel()


def test_same_file_static_call():
    m, ast = method_named(SRC, "callHelper")
    assert evaluate(m, [-5], context=ast) == Returned(6)


TWO_CLASSES_SRC = """class A {
    static int f() { return 1; }
}
class B {
    static int f() { return 2; }
    static int qualified() { return B.f(); }
    static int unqualified() { return f(); }
    static int other() { return A.f(); }
}"""


@pytest.mark.parametrize("name, value", [("qualified", 2), ("unqualified", 2), ("other", 1)])
def test_static_call_resolves_in_its_class(name, value):
    ast = parse(TWO_CLASSES_SRC)
    m = next(m for m in ast.types[1].methods if m.name == name)
    assert evaluate(m, [], context=ast) == Returned(value)


def test_static_call_chooses_the_overload_by_arity():
    src = """class A {
        static int run(int n) { return n; }
        static int run(int n, int m) { return n * m; }
        static int go(int a) { return run(a, 3) + run(a); }
    }"""
    m, ast = method_named(src, "go")
    assert evaluate(m, [5], context=ast) == Returned(20)


def test_overloads_of_one_arity_are_rejected_not_guessed():
    src = """class A {
        static int run(int n) { return n; }
        static int run(String s) { return 0; }
        static int go(int a) { return run(a); }
    }"""
    m, ast = method_named(src, "go")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert "ambiguous call 'run'" in str(exc.value)


def test_null_receiver_throws():
    m, ast = method_named(SRC, "lengthOf")
    assert evaluate(m, [None]) == Threw("NullPointerException")
    assert evaluate(m, ["abc"]) == Returned(3)


def test_string_equality_builtin():
    m, ast = method_named(SRC, "sameText")
    assert evaluate(m, ["a", "a"]) == Returned(True)
    assert evaluate(m, ["a", "b"]) == Returned(False)
    assert evaluate(m, ["a", None]) == Returned(False)


NPE = {"threw": "NullPointerException"}


def _wrong(found, declared):
    return {"unsupported": f"argument of type {found} for parameter type {declared}"}


# (builtin, argument count) -> parameters, return type, the call, and
# (arguments, outcome as in the oracle golden) pairs; a list, as True == 1
# would merge dict keys. An argument of another type than its parameter's is
# rejected before the method runs.
BUILTIN_CALLS = {
    ("length", 0): ("String s", "int", "s.length()",
                    [(("abc",), {"returned": 3}), ((None,), NPE), ((1,), _wrong("int", "String"))]),
    ("substring", 1): ("String s, int a", "String", "s.substring(a)",
                       [(("abc", 1), {"returned": "bc"}), ((None, 0), NPE),
                        (("abc", 4), {"unsupported": "string index out of range"}),
                        (("abc", True), _wrong("bool", "int"))]),
    ("substring", 2): ("String s, int a, int b", "String", "s.substring(a, b)",
                       [(("abc", 1, 2), {"returned": "b"}), (("abc", 0, 3), {"returned": "abc"}),
                        (("abc", 2, 1), {"unsupported": "string index out of range"})]),
    ("startsWith", 1): ("String s, String t", "boolean", "s.startsWith(t)",
                        [(("abc", "ab"), {"returned": True}), (("abc", "b"), {"returned": False}),
                         (("abc", None), NPE), ((None, "a"), NPE),
                         (("abc", 1), _wrong("int", "String"))]),
    ("equals", 1): ("String s, String t", "boolean", "s.equals(t)",
                    [(("ab", "ab"), {"returned": True}), (("ab", None), {"returned": False}),
                     ((None, "ab"), NPE)]),
    ("concat", 1): ("String s, String t", "String", "s.concat(t)",
                    [(("a", "b"), {"returned": "ab"}), (("a", None), NPE), ((None, "b"), NPE),
                     (("a", 1), _wrong("int", "String"))]),
    ("min", 2): ("int a, int b", "int", "Math.min(a, b)",
                 [((3, -2), {"returned": -2}), ((True, 1), _wrong("bool", "int"))]),
    ("max", 2): ("int a, int b", "int", "Math.max(a, b)",
                 [((3, -2), {"returned": 3}), ((1, None), _wrong("NoneType", "int"))]),
    ("abs", 1): ("int a", "int", "Math.abs(a)",
                 [((-5,), {"returned": 5}), ((-(2**31),), {"returned": -(2**31)}),
                  (("a",), _wrong("str", "int"))]),
}


def test_each_builtin_at_each_arity_keeps_its_outcomes():
    assert set(BUILTIN_CALLS) == {(name, n) for table in (interp.STRING_BUILTINS,
                                                          interp.MATH_BUILTINS)
                                  for name, (counts, _, _) in table.items() for n in counts}
    ast = parse("class B {\n" + "".join(
        f"static {result} b{i}({params}) {{ return {call}; }}\n"
        for i, (params, result, call, _) in enumerate(BUILTIN_CALLS.values())) + "}\n")
    for m, (_, _, call, outcomes) in zip(ast.types[0].methods, BUILTIN_CALLS.values()):
        for args, expected in outcomes:
            assert _outcome_json(m, list(args), DEFAULT_FUEL, ast) == expected, (call, args)


def test_int_wraps_at_32_bits():
    m, ast = method_named(SRC, "wrapAround")
    assert evaluate(m, [2**31 - 1]) == Returned(-(2**31))


def test_string_concatenation_conversions():
    m, ast = method_named(SRC, "voidLike")
    assert evaluate(m, [7]) == Returned("7true")


def test_void_return():
    m, ast = method_named("class A { static void noop(int x) { x = x + 1; } }", "noop")
    out = evaluate(m, [1])
    assert isinstance(out, Returned) and out.value is VOID


def test_a_void_outcome_prints_as_void():
    m, ast = method_named("class A { static void noop(int x) { x = x + 1; } }", "noop")
    assert repr(evaluate(m, [1])) == "Returned(value=void)"


@pytest.mark.parametrize(
    "src, reason",
    [
        ("class A { static void f() { throw x; } }", "throw"),
        ("class A { static void f() { x = new Foo(); } }", "allocation"),
        ("class A { static int f(Path p) { return 1; } }", "parameter"),
        ("class A { static int f() { return other.thing; } }", "field"),
        ("class A { static int f() { return missing(); } }", "unresolved"),
        ("class A { static int f(String s) { return s.trim().length(); } }", "trim"),
    ],
)
def test_unsupported_methods_detected(src, reason):
    ast = parse(src)
    m = ast.types[0].methods[0]
    assert not is_supported(m, ast)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert reason in str(exc.value)


STATIC_FIELD_SRC = """class A {
    static int count;
    static int run(int n) {
        if (n > 100) {
            return count;
        }
        return n;
    }
}"""


def test_static_field_read_is_unsupported_on_every_path():
    m, ast = method_named(STATIC_FIELD_SRC, "run")
    assert not is_supported(m, ast)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert "unbound name" in str(exc.value)


def test_call_depth_bound_leaves_the_recursion_limit_alone():
    src = "class A { static int g(int n) { if (n > 0) { return g(n - 1) + 1; } return 0; } }"
    m, ast = method_named(src, "g")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # as in a fresh process
    try:
        assert evaluate(m, [199], context=ast) == Returned(199)
        assert evaluate(m, [200], context=ast) == OutOfFuel()
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def test_deep_recursion_runs_at_the_default_recursion_limit(monkeypatch):
    src = ("class A { static int g(int n) { if (n > 0) { return g(n - 1) + 1; } "
           "return Math.abs(n); } }")
    m, ast = method_named(src, "g")
    limits, math_abs = [], interp._abs
    monkeypatch.setattr(interp, "_abs", lambda a: limits.append(sys.getrecursionlimit())
                        or math_abs(a))
    monkeypatch.setattr(interp, "_COMPILED", {})  # compile against the patched _abs
    monkeypatch.setattr(interp, "_CODE", weakref.WeakValueDictionary())
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # as in a fresh process
    try:
        assert evaluate(m, [199], context=ast) == Returned(199)
    finally:
        sys.setrecursionlimit(old)
    assert limits == [1000]  # read 200 calls deep


SAFETY_SRC = r"""class exec {
    static String __import__(String os, int exec) {
        String s = "\"); import os; (\"";
        if (exec > 0) {
            return __import__(os.concat(s), exec - 1);
        }
        return os + exec;
    }
}"""


def test_emitted_text_holds_no_java_name_and_literals_only_as_repr():
    m, ast = method_named(SAFETY_SRC, "__import__")
    text = interp._compile(m, ast).text
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    names = {t.string for t in tokens if t.type == tokenize.NAME}
    assert not names & {"os", "__import__", "exec", "s"}
    literal = '"); import os; ("'
    assert [t.string for t in tokens if t.type == tokenize.STRING] == [repr(literal)]
    assert text.count(literal) == text.count(repr(literal)) == 1
    assert evaluate(m, ["a", 2], context=ast) == Returned(f"a{literal}{literal}0")
    assert evaluate(m, ["x", -1], context=ast) == Returned("x-1")
    assert evaluate(m, [None, 1], context=ast) == Threw("NullPointerException")


def test_a_switch_local_assigned_after_a_jump_past_its_declaration_holds_the_value():
    # Its scope is the rest of the switch block (JLS 6.3), and a simple
    # assignment needs no earlier one (JLS ch. 16): javac accepts this.
    src = """class A {
        static int f(int k) {
            switch (k) {
                case 0:
                    int x = 1;
                case 1:
                    x = 2;
                    return x;
            }
            return 0;
        }
    }"""
    m, ast = method_named(src, "f")
    assert is_supported(m, ast)
    assert evaluate(m, [0], context=ast) == Returned(2)
    assert evaluate(m, [5], context=ast) == Returned(0)
    assert evaluate(m, [1], context=ast) == Returned(2)


REDECLARATIONS = {
    "same block": ("int n", "int x = 1; int x = 2; return x;", "x"),
    "nested block": ("int n", "int x = 1; { int x = 2; } return x;", "x"),
    "parameter": ("int x", "int x = 2; return x;", "x"),
    "for init": ("int n", "int i = 0; for (int i = 0; i < n; i = i + 1) { } return i;", "i"),
}


@pytest.mark.parametrize("name", REDECLARATIONS)
def test_a_local_that_redeclares_a_name_in_scope_is_rejected(name):
    """javac rejects each of these (JLS 6.4); the oracle must not run them."""
    params, body, local = REDECLARATIONS[name]
    src = f"class A {{ static int f({params}) {{ {body} }} }}"
    m, ast = method_named(src, "f")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert exc.value.detail == f"variable '{local}' is already defined"
    assert exc.value.span.start_col == src.rindex(f"int {local} = ") + len("int ") + 1


@pytest.mark.parametrize("body, value", [
    ("int r = 0; { int x = 1; r = r + x; } { int x = 2; r = r + x; } return r;", 3),
    ("int r = 0; for (int i = 0; i < 3; i = i + 1) { r = r + i; } int i = 5; return r + i;", 8),
])
def test_a_local_may_reuse_the_name_of_a_closed_scope(body, value):
    m, ast = method_named(f"class A {{ static int f(int n) {{ {body} }} }}", "f")
    assert evaluate(m, [0], context=ast) == Returned(value)


@pytest.mark.parametrize("grow", ["t = t.concat(t);", "t = t + t;"])
def test_string_growth_stops_at_the_length_bound(grow):
    src = ("class A { static int f(int n) { String t = \"a\"; "
           f"for (int i = 0; i < n; i = i + 1) {{ {grow} }} return t.length(); }} }}")
    m, ast = method_named(src, "f")
    assert evaluate(m, [16], context=ast) == Returned(2**16)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [17], context=ast)  # 131,072 characters
    assert "string longer than" in str(exc.value)


def test_supported_methods_pass_scan(corpus_files):
    for name, ast in corpus_files.items():
        for m in ast.types[0].methods:
            ensure_supported(m, ast)


def test_switch_fall_through_execution():
    src = """class A {
        static int f(int k) {
            int hits = 0;
            switch (k) {
                case 0:
                    hits = hits + 1;
                case 1:
                    hits = hits + 10;
                    break;
                default:
                    hits = 100;
            }
            return hits;
        }
    }"""
    m, ast = method_named(src, "f")
    assert evaluate(m, [0]) == Returned(11)  # falls through into case 1
    assert evaluate(m, [1]) == Returned(10)
    assert evaluate(m, [5]) == Returned(100)


def test_check_equivalence_reflexive(corpus_files):
    ast = corpus_files["CorpusIfFlip.java"]
    for m in ast.types[0].methods:
        verdict = check_equivalence(m, m, trials=50, seed=9, context1=ast, context2=ast)
        assert verdict.verdict == EQUIVALENT


def test_check_equivalence_detects_divergence():
    src = """class A {
        static int f(int x) { int a = 1; int b = a + 1; return b; }
        static int g(int x) { int a = 1; int b = a + 2; return b; }
    }"""
    ast = parse(src)
    f, g = ast.types[0].methods
    verdict = check_equivalence(f, g, trials=20, seed=1, context1=ast, context2=ast)
    assert verdict.verdict == DIVERGED
    assert verdict.counterexample is not None
    # Soundness: the counterexample replays to unequal outcomes.
    args = list(verdict.counterexample.args)
    assert evaluate(f, args, context=ast) != evaluate(g, args, context=ast)


def test_check_equivalence_deterministic(corpus_files):
    ast = corpus_files["CorpusLoops.java"]
    m = ast.types[0].methods[0]
    a = check_equivalence(m, m, trials=40, seed=77, context1=ast, context2=ast)
    b = check_equivalence(m, m, trials=40, seed=77, context1=ast, context2=ast)
    assert a == b


def test_fuel_makes_trial_inconclusive():
    src = """class A {
        static int f(int x) {
            int i = 0;
            while (i < 1000000) { i = i + 1; }
            return i;
        }
    }"""
    ast = parse(src)
    m = ast.types[0].methods[0]
    verdict = check_equivalence(m, m, trials=3, seed=0, fuel=100, context1=ast, context2=ast)
    assert verdict.verdict == "inconclusive"


@pytest.mark.parametrize("bool_first", [False, True])
def test_outcome_memo_keeps_int_and_boolean_apart(bool_first):
    # 1 == True and hash(1) == hash(True), but only 1 is an int argument.
    m, ast = method_named("class A { static int f(int x) { return x + 1; } }", "f")
    for arg in [True, 1] if bool_first else [1, True]:
        if arg is True:
            with pytest.raises(UnsupportedForEvaluation, match="argument of type bool"):
                evaluate(m, [arg], context=ast)
        else:
            assert evaluate(m, [arg], context=ast) == Returned(2)


def test_an_argument_is_checked_against_its_own_parameter_types():
    """f and g differ only in a parameter type that nothing reads: a vector
    g ran and memoised is still of the wrong type for f."""
    ast = parse("class A { static int f(int x) { return 1; } "
                "static int g(boolean x) { return 1; } }")
    f, g = ast.types[0].methods
    assert evaluate(g, [True], context=ast) == Returned(1)
    with pytest.raises(UnsupportedForEvaluation, match="argument of type bool"):
        evaluate(f, [True], context=ast)


def test_memoised_runtime_rejection_raises_on_every_call():
    src = "class A { static int f(String s) { String t = s.substring(1); return t.length(); } }"
    m, ast = method_named(src, "f")
    raised = []
    for _ in range(3):
        with pytest.raises(UnsupportedForEvaluation, match="string index out of range") as exc:
            evaluate(m, [""], context=ast)
        raised.append(exc.value)
    assert len({id(e) for e in raised}) == 3  # a fresh exception each time
    assert evaluate(m, ["ab"], context=ast) == Returned(1)


def _spy_on_evaluate(monkeypatch) -> list:
    """Wrap interp.evaluate, as perfbench's tracer does; returns the
    (method, arguments) of every call made through the module attribute."""
    calls, real = [], interp.evaluate
    monkeypatch.setattr(interp, "evaluate",
                        lambda m, args, *rest: calls.append((m, args)) or real(m, args, *rest))
    return calls


def test_variant_not_run_where_the_original_runs_out_of_fuel(monkeypatch):
    src = """class A {
        static int f(int n) {
            int i = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
    }"""
    m1, ast1 = method_named(src, "f")
    m2, ast2 = method_named(src, "f")
    real = interp.evaluate
    calls = _spy_on_evaluate(monkeypatch)
    verdict = check_equivalence(m1, m2, trials=40, seed=0, fuel=1000,
                                context1=ast1, context2=ast2)
    assert verdict.verdict == "inconclusive"
    first = [args for m, args in calls if m is m1]
    starved = [args for args in first if real(m1, args, 1000, ast1) == OutOfFuel()]
    assert 0 < len(starved) < len(first)
    assert [args for m, args in calls if m is m2] == [a for a in first if a not in starved]


@pytest.mark.parametrize("trials", [0, -1])
def test_no_compared_trial_is_inconclusive(trials):
    f, ast1 = method_named("class A { static int f(int n) { return n; } }", "f")
    g, ast2 = method_named("class A { static int f(int n) { return n + 1; } }", "f")
    verdict = check_equivalence(f, g, trials=trials, context1=ast1, context2=ast2)
    assert verdict.verdict == "inconclusive"


def _top_runs(monkeypatch):
    """Counts the runs of each compiled program, from empty compile caches,
    so no earlier test's memo is shared."""
    runs, run = {}, interp._run
    monkeypatch.setattr(interp, "_COMPILED", {})
    monkeypatch.setattr(interp, "_CODE", weakref.WeakValueDictionary())

    def counting_run(program, args, fuel):
        runs[program] = runs.get(program, 0) + 1
        return run(program, args, fuel)
    monkeypatch.setattr(interp, "_run", counting_run)
    return runs


ALPHA_ORIGINAL = """class A {
    static int f(int a, int b) {
        int c = a - b;
        for (int i = 0; i < 3; i = i + 1) { c = c + twice(i); }
        return c;
    }
    static int twice(int x) { return x * 2; }
}"""


def test_consistently_renamed_method_shares_outcomes(monkeypatch):
    renamed = """class Z {

      static int go(int left, int right) {
          int gap = left - right;
          for (int k = 0; k < 3; k = k + 1) { gap = gap + dbl(k); }
          return gap;
      }
      static int dbl(int y) { return y * 2; }
    }"""
    m1, ast1 = method_named(ALPHA_ORIGINAL, "f")
    m2, ast2 = method_named(renamed, "go")
    runs = _top_runs(monkeypatch)
    verdict = check_equivalence(m1, m2, trials=20, context1=ast1, context2=ast2)
    assert verdict.verdict == EQUIVALENT
    first, second = interp._compile(m1, ast1), interp._compile(m2, ast2)
    assert first.text == second.text
    assert first.outcomes is second.outcomes
    assert runs[first] == 20 and second not in runs


@pytest.mark.parametrize("variant", [
    # a use swap: b - a reads the parameters in the other order
    ALPHA_ORIGINAL.replace("int c = a - b;", "int c = b - a;")
    .replace("c = c + twice(i);", "c = c + twice(i) + a;"),
    # a capture: the read of the parameter a now reads the loop variable
    # (renaming i to a would do this, but Java rejects a local that shadows
    # a parameter, and so does the oracle)
    ALPHA_ORIGINAL.replace("c = c + twice(i);", "c = c + twice(i) + i;"),
])
def test_methods_equal_up_to_names_with_other_slots_run_alone(monkeypatch, variant):
    original = ALPHA_ORIGINAL.replace("c = c + twice(i);", "c = c + twice(i) + a;")
    m1, ast1 = method_named(original, "f")
    m2, ast2 = method_named(variant, "f")
    runs = _top_runs(monkeypatch)
    verdict = check_equivalence(m1, m2, trials=20, context1=ast1, context2=ast2)
    assert verdict.verdict == DIVERGED
    first, second = interp._compile(m1, ast1), interp._compile(m2, ast2)
    assert first.text != second.text
    assert first.outcomes is not second.outcomes
    assert runs[first] > 0 and runs[second] > 0


def test_runtime_rejection_names_the_variant_not_the_original():
    m1, ast1 = method_named(
        "class A { static int f(String s) { String t = s.substring(1); return t.length(); } }",
        "f")
    ast2 = parse("class B {\n"
                 "    static int g(String word) {\n"
                 "        String rest = word.substring(1);\n"
                 "        return rest.length();\n"
                 "    }\n"
                 "}\n", "B.java")
    m2 = ast2.types[0].methods[0]
    assert interp._compile(m1, ast1).text == interp._compile(m2, ast2).text
    with pytest.raises(UnsupportedForEvaluation) as first:
        evaluate(m1, [""], context=ast1)
    with pytest.raises(UnsupportedForEvaluation) as second:
        evaluate(m2, [""], context=ast2)
    assert first.value.span.file != "B.java"
    assert (second.value.span.file, second.value.span.start_line) == ("B.java", 3)
    assert second.value.detail == first.value.detail == "string index out of range"


def test_generate_args_deterministic():
    src = "class A { static int f(int a, boolean b, String s) { return a; } }"
    m = parse(src).types[0].methods[0]
    assert generate_args(m.params, 5, 3) == generate_args(m.params, 5, 3)
    assert generate_args(m.params, 5, 3) != generate_args(m.params, 5, 4)


def test_a_wrapped_evaluate_sees_every_trial(monkeypatch):
    m1, ast1 = method_named(ALPHA_ORIGINAL, "f")
    m2, ast2 = method_named(ALPHA_ORIGINAL, "f")
    calls = _spy_on_evaluate(monkeypatch)
    verdict = check_equivalence(m1, m2, trials=10, seed=3, context1=ast1, context2=ast2)
    assert verdict.verdict == EQUIVALENT
    expected = [tuple(generate_args(m1.params, 3, t)) for t in range(10)]
    assert [m for m, _ in calls] == [m1, m2] * 10
    assert [args for _, args in calls] == [a for a in expected for _ in (m1, m2)]


def test_trial_arguments_are_the_draws_of_generate_args(monkeypatch):
    interp._trial_args.cache_clear()
    m, ast = method_named(
        "class A { static int f(int a, boolean b, String s) { return a; } }", "f")
    calls = _spy_on_evaluate(monkeypatch)
    check_equivalence(m, m, trials=60, seed=9, context1=ast, context2=ast)
    drawn = [args for _, args in calls[::2]]
    assert len(drawn) == 60
    for t, args in enumerate(drawn):
        assert type(args) is tuple
        assert [(type(v), v) for v in args] == [(type(v), v) for v in generate_args(m.params, 9, t)]


COUNT_UP = "int i = 0; while (i < a && i < 1000) { i = i + 1; }"
ORDER_SRC = f"""class A {{
    static int f(int a, int b) {{ {COUNT_UP} return i + b; }}
    static int same(int a, int b) {{ {COUNT_UP} return b + i; }}
    static int off(int a, int b) {{ {COUNT_UP} return i + b + a / 7; }}
}}"""


def test_verdicts_do_not_depend_on_check_order_or_the_argument_cache():
    """Checks sharing one draw (equivalent, diverged, inconclusive under a
    small fuel) give the same verdicts in every order, from a cold or a warm
    argument cache; a counterexample handed out does not alter a later check."""
    ast = parse(ORDER_SRC)
    f, same, off = ast.types[0].methods
    checks = {"equivalent": (f, same, 40, 0, DEFAULT_FUEL),
              "diverged": (f, off, 40, 0, DEFAULT_FUEL),
              "inconclusive": (f, same, 40, 0, 300),
              "other seed": (f, off, 40, 1, DEFAULT_FUEL)}

    def verdicts(order) -> dict:
        out = {}
        for name in order:
            m1, m2, trials, seed, fuel = checks[name]
            verdict = check_equivalence(m1, m2, trials, seed, fuel, context1=ast, context2=ast)
            if verdict.counterexample is not None:
                assert type(verdict.counterexample.args) is tuple
                verdict.counterexample.to_json_dict()["args"].append("junk")
            out[name] = verdict.to_json_dict()
        return out

    interp._trial_args.cache_clear()
    reference = verdicts(list(checks))
    assert [v["verdict"] for v in reference.values()] == [
        "equivalent", "diverged", "inconclusive", "diverged"]
    for order in itertools.permutations(checks):
        interp._trial_args.cache_clear()
        assert verdicts(order) == reference  # cold
        assert verdicts(order) == reference  # warm


def test_arity_mismatch_rejected():
    src = "class A { static int f(int a) { return a; } static int g(int a, int b) { return a; } }"
    ast = parse(src)
    f, g = ast.types[0].methods
    with pytest.raises(UnsupportedForEvaluation):
        check_equivalence(f, g, trials=5, seed=0, context1=ast, context2=ast)


# ---------------------------------------------------------------------------
# Every compiled form of an operator, call and assignment agrees
# ---------------------------------------------------------------------------

BINARY_OPS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=")
OPERAND_POOL = (0, 1, -1, 7, interp.INT_MAX, interp.INT_MIN, True, "ab", None)


def _java_literal(value) -> str:
    return "null" if value is None else json.dumps(value)  # true, "ab", -1


def _shape_outcome(m, args, ast) -> str:
    """The outcome's repr (so 1 and true differ), or the rejection's detail."""
    try:
        return repr(evaluate(m, list(args), context=ast))
    except UnsupportedForEvaluation as exc:
        return f"rejected: {exc.detail}"


@pytest.mark.parametrize("op", BINARY_OPS)
def test_every_operand_shape_gives_the_same_outcome(op):
    """x OP y with parameters, with an int, boolean, String or null literal
    on either side, as an assignment statement, and through ternaries that
    no compiled form special-cases: on every pair of int pool values the
    outcome is the same, and a pair holding another value is rejected, as
    an argument of the wrong type or as an ill-typed method."""
    literals = [_java_literal(v) for v in OPERAND_POOL]
    t = "boolean" if op in ("<", "<=", ">", ">=", "==", "!=") else "int"
    methods = [f"static {t} p(int x, int y) {{ return x {op} y; }}",
               f"static {t} g(int x, int y) {{ return (true ? x : x) {op} (true ? y : y); }}"]
    for j, lit in enumerate(literals):
        methods += [f"static {t} r{j}(int x, int y) {{ return x {op} {lit}; }}",
                    f"static {t} l{j}(int x, int y) {{ return {lit} {op} y; }}",
                    f"static {t} s{j}(int x, int y) {{ {t} r = {'0' if t == 'int' else 'false'}; "
                    f"r = x {op} {lit}; return r; }}"]
    ast = parse("class Ops {\n" + "\n".join(methods) + "\n}\n")
    by_name = {m.name: m for m in ast.types[0].methods}
    for i, a in enumerate(OPERAND_POOL):
        for j, b in enumerate(OPERAND_POOL):
            shapes = {name: _shape_outcome(by_name[name], (a, b), ast)
                      for name in ("p", "g", f"r{j}", f"l{i}", f"s{j}")}
            if type(a) is int and type(b) is int:
                assert len(set(shapes.values())) == 1, (a, b, shapes)
            else:
                assert all(v.startswith("rejected: ") for v in shapes.values()), (a, b, shapes)


@pytest.mark.parametrize("tail, from_0, from_1", [
    ("x = 2; return x;", Returned(2), Returned(2)),
    ("return x = 2;", Returned(2), Returned(2)),
    ("return x;", Returned(1), "unbound name 'x'"),  # javac: not definitely assigned
], ids=["assigned", "assigned-in-return", "read"])
def test_a_switch_local_whose_case_was_jumped_over_may_be_assigned_not_read(tail, from_0,
                                                                             from_1):
    src = f"""class A {{
        static int f(int k) {{
            switch (k) {{
                case 0:
                    int x = 1;
                case 1:
                    {tail}
            }}
            return 0;
        }}
    }}"""
    m, ast = method_named(src, "f")
    assert evaluate(m, [0], context=ast) == from_0
    if isinstance(from_1, Returned):
        assert evaluate(m, [1], context=ast) == from_1
    else:
        with pytest.raises(UnsupportedForEvaluation) as exc:
            evaluate(m, [1], context=ast)
        assert exc.value.detail == from_1


NESTED_CALLS_SRC = """class A {
    static int id(int v) { return v; }
    static int outer(int n) { if (n > 0) { return outer(id(n - 1)) + 1; } return 0; }
    static int inner(int n) { if (n > 0) { return id(inner(n - 1)) + 1; } return 0; }
    static int pair(int n, int k) { if (n > 0) { return pair(id(n - 1), k) + 1; } return 0; }
}"""


@pytest.mark.parametrize("name", ["outer", "inner", "pair"])
def test_a_call_argument_runs_before_the_call_depth_rises(name):
    """outer(199) nests 200 calls of outer, and its innermost id(0) runs at
    depth 200 too: the arguments are evaluated at the caller's depth."""
    m, ast = method_named(NESTED_CALLS_SRC, name)
    rest = [0] * (len(m.params) - 1)
    assert evaluate(m, [199, *rest], context=ast) == Returned(199)
    assert evaluate(m, [200, *rest], context=ast) == OutOfFuel()


# ---------------------------------------------------------------------------
# Programs nested deeper than CPython compiles in one function: more than 200
# nested parentheses, 100 indentation levels or 20 nested loops
# ---------------------------------------------------------------------------


def _nest(depth: int, wrap) -> str:
    body = "r = r + 1;"
    for i in reversed(range(depth)):
        body = wrap(i, body)
    return f"int r = 0; {body} return r;"


def _switch_level(i, body):
    return (f"switch (n % 4) {{ case 1: r = r - 1; case 0: r = r + {i}; {body} break; "
            "default: r = r + 2; }")


def _while_level(i, body):
    return (f"int i{i} = 0; while (i{i} < 2) {{ i{i} = i{i} + 1; "
            f"if (i{i} + n == 1) {{ continue; }} {body} }}")


DEEP_ARGS = (0, 1, 2, 5, -1, -3, interp.INT_MAX)
STARVED = ({"out_of_fuel": True}, None)
# Each program's outcome and least fuel on DEEP_ARGS.
DEEP_PROGRAMS = {
    "250-term chain": (
        "return n" + "".join(f" + {i}" for i in range(1, 250)) + ";",
        [({"returned": 31125 + n if n < 100 else -2147452524}, 1) for n in DEEP_ARGS]),
    "250-term String chain": (
        "return (n" + ' + "a"' * 249 + ").length();",
        [({"returned": len(str(n)) + 249}, 1) for n in DEEP_ARGS]),
    "45 nested ifs": (
        _nest(45, lambda i, body: f"r = r + {i}; if (n > {i}) {{ {body} }}"),
        [({"returned": r}, fuel) for r, fuel in
         [(0, 4), (1, 6), (3, 8), (15, 14), (0, 4), (0, 4), (991, 93)]]),
    "30 nested switches": (
        _nest(30, _switch_level),
        [({"returned": r}, fuel) for r, fuel in
         [(436, 93), (406, 123), (2, 4), (406, 123), (2, 4), (2, 4), (2, 4)]]),
    "45 nested switches": (
        _nest(45, _switch_level),
        [({"returned": r}, fuel) for r, fuel in
         [(991, 138), (946, 183), (2, 4), (946, 183), (2, 4), (2, 4), (2, 4)]]),
    "25 nested whiles with continue": (
        _nest(25, _while_level),
        [({"returned": 1}, 253), STARVED, STARVED, STARVED, ({"returned": 1}, 253), STARVED,
         STARVED]),
}


@pytest.mark.parametrize("name", DEEP_PROGRAMS)
def test_deep_programs_keep_their_outcomes_and_fuel(name):
    body, expected = DEEP_PROGRAMS[name]
    m, ast = method_named(f"class A {{ static int f(int n) {{ {body} }} }}", "f")
    assert [(_outcome_json(m, [n], DEFAULT_FUEL, ast), _least_fuel(m, [n], ast))
            for n in DEEP_ARGS] == expected


def _nesting(text: str) -> int:
    """The most brackets open at once in a Python expression's text."""
    depth = most = 0
    for t in tokenize.generate_tokens(io.StringIO(text).readline):
        if t.type == tokenize.OP and t.string in "([{)]}":
            depth += 1 if t.string in "([{" else -1
            most = max(most, depth)
    return most


def test_no_compiled_expression_nests_deeper_than_its_count(monkeypatch):
    """The compiler moves an expression into a helper by the depth it counts,
    so each expression's count must cover the brackets its text nests."""
    seen = []
    expr = interp._Compiler.expr

    def spy(self, e):
        x = expr(self, e)
        seen.append((_nesting(x.text), x.depth, type(e).__name__))
        return x

    monkeypatch.setattr(interp._Compiler, "expr", spy)
    methods = [method_named(f"class A {{ static int f(int n) {{ {body} }} }}", "f")
               for body, _ in DEEP_PROGRAMS.values()]
    for m, ast in [*methods, *_survey_methods()]:
        try:
            interp._Compiler(ast).compile(m)
        except UnsupportedForEvaluation:
            pass
    assert {kind for _, _, kind in seen} == {"Assign", "Binary", "Call", "Literal", "Name",
                                             "Ternary", "Unary"}
    assert [x for x in seen if x[0] > x[1]] == []


# ---------------------------------------------------------------------------
# Calls of a leaf, a method whose body is one `return e;` calling no
# same-file method, are written in place. Each outcome and least fuel below
# is the one of a real call, recorded before the inliner existed.
# ---------------------------------------------------------------------------

LEAF_SRC = """class A {
    static int h(int x, int y) { return x * 7 + y; }
    static int slots(int a, int b) { return h(a, b); }
    static int lits(int a, int b) { return h(3, b) + h(a, -2); }
    static int bump(int a, int b) { return h((a = a + 1), a) + a; }
    static int late(int a, int b) { return h(a, (a = a + 1)) + a; }
    static int nested(int a, int b) { return h(h(a, 1), b); }
    static int local(int a, int b) {
        switch (a) { case 0: int x = b + 2; case 1: return h(x, b); }
        return 0;
    }
    static int loop(int a, int b) {
        int r = b;
        for (int i = 0; i < a; i = i + 1) { r = r + h(i, r); }
        return r;
    }
    static int r(int n) { if (n > 0) { return r(n - 1); } return h(n, 1); }
    static int g(int x, int y) { return (x = x + y) * x + y; }
    static int own(int a, int b) { return g(a, b) + a + g(b, a) + b; }
    static int inner(int a, int b) { return h(a, Math.max(0, (a = a + 1))) + a; }
    static int other(int a, int b) { return h(a, (b = b + 1)) + b; }
}"""
LEAF_ARGS = ((0, 0), (1, 2), (-3, 5), (5, -1), (interp.INT_MAX, 1), (interp.INT_MIN, -1))
# (outcome, least fuel) on LEAF_ARGS, or on n = 197...201 for r
LEAF_CALLS = {
    "lits": [({"returned": r}, 3) for r in (19, 28, 3, 53, -2147483635, -2147483630)],
    "bump": [({"returned": r}, 2) for r in (9, 18, -18, 54, -2147483648, -2147483639)],
    "late": [({"returned": r}, 2) for r in (2, 11, -25, 47, 2147483641, -2147483646)],
    "nested": [({"returned": r}, 3) for r in (7, 58, -135, 251, 2147483607, -2147483642)],
    "local": [({"returned": 14}, 4), ({"unsupported": "unbound name 'x'"}, 2),
              *[({"returned": 0}, 2)] * 4],
    "loop": [({"returned": 0}, 5), ({"returned": 4}, 8), ({"returned": 5}, 5),
             ({"returned": 150}, 20), STARVED, ({"returned": -1}, 5)],
    "r": [({"returned": 1}, 397), ({"returned": 1}, 399), STARVED, STARVED, STARVED],
    # g assigns its parameter x, which must not be the caller's a or b
    "own": [({"returned": r}, 3) for r in (0, 24, 12, 40, 0, 0)],
    # the later argument assigns a inside a nested call
    "inner": [({"returned": r}, 2) for r in (2, 11, -23, 47, -7, 1)],
    # the later argument assigns b, not a
    "other": [({"returned": r}, 2) for r in (2, 13, -9, 35, 2147483645, -2147483648)],
}


@pytest.mark.parametrize("name", LEAF_CALLS)
def test_a_leaf_call_keeps_its_outcome_and_fuel(name):
    m, ast = method_named(LEAF_SRC, name)
    args = [(n,) for n in range(197, 202)] if name == "r" else LEAF_ARGS
    assert [(_outcome_json(m, list(a), DEFAULT_FUEL, ast), _least_fuel(m, list(a), ast))
            for a in args] == LEAF_CALLS[name]
    assert "def m1" not in interp._compile(m, ast).text  # h is written in place


@pytest.mark.parametrize("name", ["slots", "lits", "late", "other"])
def test_every_argument_of_an_inlined_leaf_call_is_stored_in_a_fresh_slot(name):
    """`(v<k> := <arg>) is v<k>` for each argument of each call of h, a slot
    read or a literal alike, with a k of its own."""
    m, ast = method_named(LEAF_SRC, name)
    text = interp._compile(m, ast).text
    stored = re.findall(r"\) is v(\d+) and ", text)
    assert all(f"(v{k} := " in text for k in stored)
    assert len(set(stored)) == len(stored) == sum(
        len(c.args) for c in walk(m) if isinstance(c, Call) and c.method == "h")


def test_a_switch_local_argument_is_checked_where_the_caller_reads_it():
    m, ast = method_named(LEAF_SRC, "local")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [1, 0], context=ast)
    assert (exc.value.span.start_line, exc.value.span.start_col) == (9, 62)


REJECTED = "rejected"
# h(a, b) for a (rows) and b (columns) in OPERAND_POOL: the value returned,
# at the least fuel 2, or REJECTED where a or b is no int: then the argument
# or the literal has the wrong type (see _wrong_operand).
H_ON_THE_POOL = [
    (0, 1, -1, 7, 2147483647, -2147483648, *[REJECTED] * 3),
    (7, 8, 6, 14, -2147483642, -2147483641, *[REJECTED] * 3),
    (-7, -6, -8, 0, 2147483640, 2147483641, *[REJECTED] * 3),
    (49, 50, 48, 56, -2147483600, -2147483599, *[REJECTED] * 3),
    (2147483641, 2147483642, 2147483640, -2147483648, -8, -7, *[REJECTED] * 3),
    (-2147483648, -2147483647, 2147483647, -2147483641, -1, 0, *[REJECTED] * 3),
    *[(REJECTED,) * 9] * 3,
]


_JAVA_TYPES = {bool: "boolean", str: "String", type(None): "<null>"}


def _wrong_operand(m, args):
    """The span and detail of m's rejection, a method of one call h(x, y)
    whose arguments are int parameters or a literal, on args with a value
    that is no int: a literal that is no int is rejected at compile time,
    else the first argument that is no int."""
    call = m.body.stmts[0].value
    for node in call.args:
        if type(node).__name__ == "Literal" and type(node.value) is not int:
            return node.span, f"incompatible types: {_JAVA_TYPES[type(node.value)]} " \
                              "cannot be converted to int"
    p, a = next((p, a) for p, a in zip(m.params, args) if type(a) is not int)
    return p.span, f"argument of type {type(a).__name__} for parameter type int"


def test_a_leaf_call_on_every_operand_shape_keeps_its_outcome_and_fuel():
    """h(a, b) with slot arguments and with each pool value as a literal on
    either side: the outcome and the least fuel, or the rejection's span and
    detail."""
    literals = [_java_literal(v) for v in OPERAND_POOL]
    methods = [f"static int x{j}(int a, int b) {{ return h({lit}, b); }}\n"
               f"static int y{j}(int a, int b) {{ return h(a, {lit}); }}"
               for j, lit in enumerate(literals)]
    src = LEAF_SRC.replace("\n}", "\n" + "\n".join(methods) + "\n}")
    ast = parse(src)
    by_name = {m.name: m for m in ast.types[0].methods}
    for i, a in enumerate(OPERAND_POOL):
        for j, b in enumerate(OPERAND_POOL):
            expected = H_ON_THE_POOL[i][j]
            for name in ("slots", f"x{i}", f"y{j}"):
                m = by_name[name]
                if expected == REJECTED:
                    with pytest.raises(UnsupportedForEvaluation) as exc:
                        evaluate(m, [a, b], context=ast)
                    assert (exc.value.span, exc.value.detail) == _wrong_operand(m, [a, b]), (
                        a, b, name)
                    continue
                got = evaluate(m, [a, b], context=ast).value
                assert (type(got), got) == (type(expected), expected), (a, b, name)
                assert _least_fuel(m, [a, b], ast) == 2, (a, b, name)


def test_a_deep_leaf_inside_a_deep_expression_keeps_its_outcome_and_fuel():
    """A leaf whose e nests 120 levels, called at the bottom of a 90-level
    expression: the written-in-place text stays inside CPython's limits."""
    leaf = "x" + "".join(f" + {i}" for i in range(1, 120))
    caller = "d(n * 3)" + "".join(f" - {i}" for i in range(1, 90))
    m, ast = method_named(f"class A {{ static int d(int x) {{ return {leaf}; }} "
                          f"static int f(int n) {{ return {caller}; }} }}", "f")
    assert [(_outcome_json(m, [n], DEFAULT_FUEL, ast), _least_fuel(m, [n], ast))
            for n in DEEP_ARGS] == [({"returned": r}, 2) for r in
                                    (3135, 3138, 3141, 3150, 3132, 3126, -2147480516)]


UNSUPPORTED_LEAF_SRC = """class A {
    static int leaf(int x) { return x + A.missing; }
    static int after(int n) { int r = leaf(n); return r + new A(); }
    static int before(int n) { int r = n; return leaf(r); }
    static int peek(int x) { return x + a; }
    static int peeks(int a) { return peek(a); }
}"""


@pytest.mark.parametrize("name, where, detail", [
    ("after", (3, 59), "object allocation"),
    ("before", (2, 41), "field access"),
    ("peeks", (5, 41), "unbound name 'a'"),
])
def test_a_leaf_that_does_not_compile_rejects_where_it_did(name, where, detail):
    """The caller's own rejection still comes first, a leaf's is still
    reported at the leaf, and a leaf never sees its caller's names."""
    m, ast = method_named(UNSUPPORTED_LEAF_SRC, name)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert ((exc.value.span.start_line, exc.value.span.start_col), exc.value.detail) == (
        where, detail)


@pytest.mark.parametrize("body, where, detail", [
    ("A.x = 1; return 0;", (36, 42), "field access"),
    ("this.x = 1; return 0;", (36, 45), "field access"),
    ("s.x = 1; return 0;", (36, 42), "field access"),
    ("break;", (36, 41), "break/continue escaped the method"),
    ("continue;", (36, 44), "break/continue escaped the method"),
    ("switch (0) { default: continue; }", (58, 66), "break/continue escaped the method"),
], ids=["static-field", "this-field", "receiver-field", "break", "continue",
        "continue-in-a-switch"])
def test_a_statement_outside_the_subset_is_rejected_at_its_span(body, where, detail):
    m, ast = method_named(f"class A {{ static int f(String s) {{ {body} }} }}", "f")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    span = exc.value.span
    assert ((span.start_line, span.start_col, span.end_line, span.end_col), exc.value.detail) == (
        (1, where[0], 1, where[1]), detail)


def test_a_hot_loop_does_not_call_its_leaf():
    """The benchmark's target shape: a loop calls a one-return helper, which
    is written in place; the helper with an if stays a Python function."""
    src = """class A {
        static int ha(int x, int y) { return x * 7 + y; }
        static int hb(int u, int v) { if (u > v) { return u - v; } return v - u; }
        static int t(int a, int b, boolean flag, String text) {
            int acc = a + 3;
            int other = b * 3;
            for (int i = 0; i < a; i = i + 1) { acc = acc + ha(i, other); }
            acc = A.hb(Math.max(acc, b), 5);
            return acc + other;
        }
    }"""
    m, ast = method_named(src, "t")
    text = interp._compile(m, ast).text
    assert [line.split("(")[0] for line in text.splitlines() if line.startswith("def ")] == [
        "def m0", "def m1"]
    assert text.count("D + 1") == 1  # the one call, of hb
    assert evaluate(m, [3, 1, True, "s"], context=ast) == Returned(34)


# ---------------------------------------------------------------------------
# Counted loops: one fuel test on entry
# ---------------------------------------------------------------------------

ENTRY_TEST = re.compile(r" *if \(.*\) \* \d+ >= F: _oof\(\)")

COUNTED_SRC = """class A {
    static int leaf(int x) { return x * 3 + 1; }
    static int up(int n) {
        int acc = 0; for (int i = 0; i < n; i = i + 1) { acc = acc + leaf(i); } return acc; }
    static int loop(int n) {
        int acc = 0; int i = 0; while (i < n) { acc = acc + i; i = i + 1; } return acc; }
    static int down(int n) {
        int acc = 0; while (n > 0) { acc = acc + n; n = n - 1; } return acc; }
    static int upto(int n) {
        int acc = 0; for (int i = 1; i <= n; i = i + 1) { acc = acc + i; } return acc; }
    static int divide(int n) {
        int x = 0; for (int i = 0; i < n; i = i + 1) { x = x + 10 / (i - 5); } return x; }
    static int fixed(int n) {
        int acc = 0; for (int i = 0; i < 100; i = i + 1) { acc = acc + n; } return acc; }
    static int spin(int n) {
        int acc = n; int i = 0; while (i < 5000) { acc = acc + i; i = i + 1; } return acc; }
    static int forDown(int n) {
        int acc = 0; for (; n > 0; ) { acc = acc + n; n = n - 1; } return acc; }
    static int forUp(int n) {
        int acc = 0; for (int i = 0; i < n; ) { acc = acc + i; i = i + 1; } return acc; }
}"""
COUNTED_NS = (0, 1, 2, 3332, 3333, 3334, INT_MAX)


def _entry_tests(m, ast) -> int:
    lines = interp._compile(m, ast).text.splitlines()
    return sum(bool(ENTRY_TEST.fullmatch(line)) for line in lines)


@pytest.mark.parametrize("name, entry_tests", [
    ("up", 1), ("loop", 1), ("down", 1), ("upto", 1), ("divide", 0), ("fixed", 1), ("spin", 1),
    ("forDown", 1), ("forUp", 1)])
def test_a_counted_loop_gets_one_entry_test(name, entry_tests):
    assert _entry_tests(*method_named(COUNTED_SRC, name)) == entry_tests


@pytest.mark.parametrize("head, body", [
    ("", "x = x + 10 / n;"),
    ("", "x = x + i % 0;"),
    ("", "x = x + -5 / (i - 5);"),
    ("", "x = x + hb(i, n);"),
    ("String s = \"\";", "s = s + i;"),
    ("", "if (i > 5) { break; }"),
    ("", "x = x + 1; n = n - 1;"),
    ("", "x = x + 1; if (i > n) { return x; }"),
    ("int y;", "y = x; x = x + y;"),
], ids=["divides-by-a-slot", "divides-by-zero", "divides-a-negative-literal",
        "calls-a-non-leaf", "concatenates", "breaks", "assigns-its-bound",
        "returns", "reads-a-slot-that-may-be-unset"])
def test_no_entry_test_where_the_run_can_end_otherwise_or_the_trip_count_is_fixed(head, body):
    """Each body can end the run otherwise than by fuel. A fixed trip count
    keeps no entry test out: `fixed` and `spin` in COUNTED_SRC get theirs."""
    src = ("class A { static int hb(int u, int v) { if (u > v) { return u - v; } return v - u; }"
           f" static int f(int n) {{ int x = 0; {head} for (int i = 0; i < n; i = i + 1) "
           f"{{ {body} }} return x; }} }}")
    assert _entry_tests(*method_named(src, "f")) == 0


OOF = {"out_of_fuel": True}
ARITH = {"threw": "ArithmeticException"}


# Outcome at the default fuel and least fuel (up to 20,000) at each n of
# COUNTED_NS, as the oracle gave them before it tested fuel on loop entry.
COUNTED_PINS = {
    "up": [({"returned": 0}, 5), ({"returned": 1}, 8), ({"returned": 5}, 11), (OOF, 10001),
           (OOF, 10004), (OOF, 10007), (OOF, None)],
    "loop": [({"returned": 0}, 5), ({"returned": 0}, 8), ({"returned": 1}, 11), (OOF, 10001),
             (OOF, 10004), (OOF, 10007), (OOF, None)],
    "down": [({"returned": 0}, 4), ({"returned": 1}, 7), ({"returned": 3}, 10),
             ({"returned": 5552778}, 10000), (OOF, 10003), (OOF, 10006), (OOF, None)],
    "upto": [({"returned": 0}, 5), ({"returned": 1}, 7), ({"returned": 3}, 9),
             ({"returned": 5552778}, 6669), ({"returned": 5556111}, 6671),
             ({"returned": 5559445}, 6673), (OOF, None)],
    "divide": [({"returned": 0}, 5), ({"returned": -2}, 7), ({"returned": -4}, 9),
               *[(ARITH, 15)] * 4],
    "fixed": [({"returned": r}, 205) for r in (0, 100, 200, 333200, 333300, 333400, -100)],
    "spin": [(OOF, 15005)] * 7,
    "forDown": [({"returned": 0}, 4), ({"returned": 1}, 7), ({"returned": 3}, 10),
                ({"returned": 5552778}, 10000), (OOF, 10003), (OOF, 10006), (OOF, None)],
    "forUp": [({"returned": 0}, 5), ({"returned": 0}, 8), ({"returned": 1}, 11), (OOF, 10001),
              (OOF, 10004), (OOF, 10007), (OOF, None)],
}


@pytest.mark.parametrize("name", COUNTED_PINS)
def test_a_counted_loop_keeps_its_outcome_and_least_fuel(name):
    m, ast = method_named(COUNTED_SRC, name)
    assert [(_outcome_json(m, [n], DEFAULT_FUEL, ast), _least_fuel(m, [n], ast, 20_000))
            for n in COUNTED_NS] == COUNTED_PINS[name]


def test_a_counted_loop_whose_bound_may_be_unset_gets_no_entry_test():
    """The bound is a local declared without an initializer, so it is read
    with a check; the loop runs and charges as any other."""
    m, ast = method_named("class A { static int f(int n) { int x = 0; int b; b = n; "
                          "for (int i = 0; i < b; i = i + 1) { x = x + 1; } return x; } }", "f")
    assert _entry_tests(m, ast) == 0
    assert [evaluate(m, [n], context=ast) for n in (5, 10**6)] == [Returned(5), OutOfFuel()]


@pytest.mark.parametrize("name", ["up", "loop", "down", "upto", "forDown", "forUp"])
def test_a_counted_loop_agrees_at_every_fuel_with_its_uncounted_twin(name):
    """The twin bounds the loop by `n + 0`, which gets no entry test and
    charges the same; both must agree at every fuel near each end."""
    m, ast = method_named(COUNTED_SRC, name)
    twin_src = (COUNTED_SRC.replace("< n;", "< n + 0;").replace("<= n;", "<= n + 0;")
                .replace("(i < n)", "(i < n + 0)").replace("(n > 0)", "(n > 0 + 0)")
                .replace("; n > 0;", "; n > 0 + 0;"))
    twin, twin_ast = method_named(twin_src, name)
    assert _entry_tests(twin, twin_ast) == 0
    for n, fuels in ((3, range(20)), (3333, range(9990, 10012)), (INT_MAX, (0, 5, 9999))):
        for fuel in fuels:
            assert evaluate(m, [n], fuel, ast) == evaluate(twin, [n], fuel, twin_ast), (n, fuel)


@pytest.mark.parametrize("name, least", [("fixed", 205), ("spin", 15005)])
def test_a_constant_bound_loop_agrees_at_every_fuel_with_its_uncounted_twin(name, least):
    """The twin bounds the loop by `100 + 0` or `5000 + 0`, which gets no
    entry test and charges the same; both agree at every fuel near each end."""
    m, ast = method_named(COUNTED_SRC, name)
    twin_src = COUNTED_SRC.replace("< 100;", "< 100 + 0;").replace("(i < 5000)",
                                                                   "(i < 5000 + 0)")
    twin, twin_ast = method_named(twin_src, name)
    assert _entry_tests(twin, twin_ast) == 0
    for fuel in (*range(12), *range(least - 12, least + 12), DEFAULT_FUEL):
        assert evaluate(m, [7], fuel, ast) == evaluate(twin, [7], fuel, twin_ast), fuel


# ---------------------------------------------------------------------------
# Oracle golden snapshot
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_ORACLE = FIXTURES / "golden" / "oracle_outcomes.txt"
GOLDEN_TRIALS = 10
GOLDEN_FUZZ_SEEDS = range(160)


def _outcome_json(m, args, fuel, context):
    try:
        return outcome_to_json(evaluate(m, args, fuel, context))
    except UnsupportedForEvaluation as exc:
        return {"unsupported": exc.detail}


def _least_fuel(m, args, context, most=DEFAULT_FUEL):
    """The least fuel, up to `most`, at which the outcome is not OutOfFuel,
    or None."""
    if _outcome_json(m, args, most, context) == {"out_of_fuel": True}:
        return None
    lo, hi = 0, most
    while lo < hi:
        mid = (lo + hi) // 2
        if _outcome_json(m, args, mid, context) == {"out_of_fuel": True}:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _method_outcomes(label, m, context) -> str:
    lines = [f"// {label}\n"]
    for trial in range(GOLDEN_TRIALS):
        args = generate_args(m.params, 0, trial)
        outcome = _outcome_json(m, args, DEFAULT_FUEL, context)
        lines.append(f"{json.dumps(args)} {json.dumps(outcome, sort_keys=True)} "
                     f"fuel={_least_fuel(m, args, context)}\n")
    return "".join(lines)


def oracle_outcomes_snapshot() -> str:
    """Outcomes, least sufficient fuel and apply_all verdicts of the oracle.

    Covers every corpus method and the `subject` method of the fuzz generator's
    seeds. Regenerate the golden file (only when an outcome change is intended)
    with `PYTHONPATH=src:tests python -c "import test_interp as t;
    t.GOLDEN_ORACLE.write_text(t.oracle_outcomes_snapshot())"`.
    """
    parts = []
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        ast = parse(path.read_text(), path.name)
        for cls in ast.types:
            for m in cls.methods:
                parts.append(_method_outcomes(f"{path.name} {cls.name}.{m.name}", m, ast))
                variant = apply_all(m, context=ast)[0]
                verdict = check_equivalence(m, variant, 100, 0, context1=ast, context2=ast)
                parts.append(f"apply_all {json.dumps(verdict.to_json_dict(), sort_keys=True)}\n")
    for seed in GOLDEN_FUZZ_SEEDS:
        ast = parse(generate_method_source(seed), f"Fuzzed{seed}.java")
        m = next(m for m in ast.types[0].methods if m.name == "subject")
        parts.append(_method_outcomes(f"javagen seed {seed} subject", m, ast))
    return "".join(parts)


def test_oracle_outcomes_match_golden():
    assert oracle_outcomes_snapshot().encode("utf-8") == GOLDEN_ORACLE.read_bytes()


# ---------------------------------------------------------------------------
# Division and remainder, and the String operations that throw on null
# ---------------------------------------------------------------------------

NPE = {"threw": "NullPointerException"}
# (x, y) -> the outcome and least fuel of `int r = x / y; return r;`, then of
# the same with %. Java's / rounds toward zero, % takes the dividend's sign,
# INT_MIN / -1 wraps to INT_MIN, and a zero divisor throws (JLS 15.17.2-3).
DIVISION_PINS = {
    (7, 2): (({"returned": 3}, 2), ({"returned": 1}, 2)),
    (-7, 2): (({"returned": -3}, 2), ({"returned": -1}, 2)),
    (7, -2): (({"returned": -3}, 2), ({"returned": 1}, 2)),
    (-7, -2): (({"returned": 3}, 2), ({"returned": -1}, 2)),
    (interp.INT_MIN, -1): (({"returned": interp.INT_MIN}, 2), ({"returned": 0}, 2)),
    (interp.INT_MIN, 1): (({"returned": interp.INT_MIN}, 2), ({"returned": 0}, 2)),
    (7, 0): ((ARITH, 1), (ARITH, 1)),
    (-7, 0): ((ARITH, 1), (ARITH, 1)),
    (0, 0): ((ARITH, 1), (ARITH, 1)),
}


@pytest.mark.parametrize("op", ["/", "%"])
@pytest.mark.parametrize("shape", ["x {} y", "{x} {} y", "x {} {y}", "{x} {} {y}"],
                         ids=["slots", "literal-left", "literal-right", "literals"])
def test_division_and_remainder_keep_their_outcomes_and_least_fuel(op, shape):
    """Each operand a parameter or a literal, on every pair of DIVISION_PINS."""
    for (x, y), pins in DIVISION_PINS.items():
        expr = shape.replace("{x}", str(x)).replace("{y}", str(y)).format(op)
        m, ast = method_named(f"class A {{ static int f(int x, int y) {{ int r = {expr}; "
                              "return r; } }", "f")
        got = (_outcome_json(m, [x, y], DEFAULT_FUEL, ast), _least_fuel(m, [x, y], ast))
        assert got == pins["/%".index(op)], (expr, x, y)


@pytest.mark.parametrize("body, pins", [
    ("return s.length();", [(NPE, 1), ({"returned": 0}, 1), ({"returned": 2}, 1)]),
    ('int r = 0; switch (s) { case "ab": r = 1; break; default: r = 2; } return r;',
     [(NPE, 2), ({"returned": 2}, 4), ({"returned": 1}, 5)]),
], ids=["length", "switch"])
def test_length_and_a_string_switch_throw_on_null(body, pins):
    m, ast = method_named(f"class A {{ static int f(String s) {{ {body} }} }}", "f")
    assert [(_outcome_json(m, [s], DEFAULT_FUEL, ast), _least_fuel(m, [s], ast))
            for s in (None, "", "ab")] == pins


# ---------------------------------------------------------------------------
# Jumps the compiler writes on paths of their own: a continue that leaves a
# switch (a flag tested after it), and a break, continue or return that
# leaves a helper (a value its caller dispatches on). Each outcome is Java's,
# worked out by hand; each least fuel is pinned as first measured.
# ---------------------------------------------------------------------------


def _nested(depth: int, wrap, inner: str) -> str:
    for i in reversed(range(depth)):
        inner = wrap(i, inner)
    return inner


JUMP_PROGRAMS = {
    # i = 1..n: r adds i + 1 where i % 3 != 0
    "continue through a switch in a while": (
        "int r = 0; int i = 0; while (i < n) { i = i + 1; "
        "switch (i % 3) { case 0: continue; default: r = r + i; } r = r + 1; } return r;",
        " = True", [(0, 0, 5), (5, 16, 29), (10, 44, 52), (50, 901, 239)]),
    # i = 0..n-1 likewise; the continue must still run the update
    "continue through a switch in a for": (
        "int r = 0; for (int i = 0; i < n; i = i + 1) { "
        "switch (i % 3) { case 0: continue; default: r = r + i; } r = r + 1; } return r;",
        " = True", [(0, 0, 5), (5, 10, 23), (10, 33, 41), (50, 850, 188)]),
    # the n-th pass of the innermost loop returns; loops past 16 go to a helper
    "return out of 18 nested whiles": (
        "int r = 0; " + _nested(18, lambda i, body: f"int i{i} = 0; while (i{i} < 2) {{ "
                                f"i{i} = i{i} + 1; {body} }}",
                                "r = r + 1; if (r == n) { return r * 10; }") + " return r;",
        ",)\n", [(1, 10, 76), (5, 50, 107), (50, 500, 502)]),
    # statements nested past the indentation budget go to a helper
    "break out of 47 nested ifs": (
        "int r = 0; while (r < 100) { r = r + 1; "
        + _nested(47, lambda i, body: f"if (n > {i}) {{ {body} }}", "break;") + " } return r;",
        "_BREAK", [(0, 100, 304), (46, 100, 4904), (50, 1, 53)]),
    # n % 3 == 0 adds 1, then 4 unless n > 46, then falls through to add 8
    "break out of a switch from 47 nested ifs": (
        "int r = 0; switch (n % 3) { case 0: r = 1; "
        + _nested(47, lambda i, body: f"if (n > {i}) {{ {body} }}", "break;")
        + " r = r + 4; default: r = r + 8; } return r;",
        "_BREAK", [(0, 13, 7), (1, 8, 4), (45, 13, 52), (48, 1, 52)]),
    # i = 1..5: r adds i unless i + n > 48
    "continue out of 47 nested ifs": (
        "int r = 0; int i = 0; while (i < 5) { i = i + 1; "
        + _nested(47, lambda k, body: f"if (i + n > {k + 2}) {{ {body} }}", "continue;")
        + " r = r + i; } return r;",
        "_CONTINUE", [(0, 15, 31), (46, 3, 254), (50, 0, 255)]),
}


@pytest.mark.parametrize("name", JUMP_PROGRAMS)
def test_a_jump_out_of_a_switch_or_a_helper_keeps_its_outcome_and_fuel(name):
    body, mark, expected = JUMP_PROGRAMS[name]
    m, ast = method_named(f"class A {{ static int f(int n) {{ {body} }} }}", "f")
    assert mark in interp._compile(m, ast).text  # the path under test is taken
    assert [(n, _outcome_json(m, [n], DEFAULT_FUEL, ast), _least_fuel(m, [n], ast))
            for n, _, _ in expected] == [(n, {"returned": r}, fuel) for n, r, fuel in expected]


def test_a_bare_return_leaves_a_void_method():
    m, ast = method_named(
        "class A { static void f(int n) { int r = 0; if (n > 0) { return; } r = 10 / n; } }", "f")
    assert [(_outcome_json(m, [n], DEFAULT_FUEL, ast), _least_fuel(m, [n], ast))
            for n in (1, 0, -1)] == [({"returned": "void"}, 3),
                                     ({"threw": "ArithmeticException"}, 3),
                                     ({"returned": "void"}, 3)]


# ---------------------------------------------------------------------------
# Ill-typed methods. javac rejects all but the sixth, and so does the oracle:
# at compile time, at the first ill-typed expression or at the closing brace
# of a method that misses a return. The sixth passes an argument of the
# wrong type, which evaluate rejects before anything runs.
# ---------------------------------------------------------------------------

COMPILE, RUN = "compile", "run"
ILL_TYPED = {
    "null stored into an int local": (
        "static int f(int a) { int x = 0; x = null; return x + 1; }", [1],
        COMPILE, "incompatible types: <null> cannot be converted to int", (2, 38)),
    "a string stored into an int local": (
        "static int f(int a) { int x = 0; x = x + \"s\"; return x; }", [1],
        COMPILE, "incompatible types: String cannot be converted to int", (2, 38)),
    "a string passed to an int parameter": (
        "static int f(String s) { return g(s); }\n"
        "static int g(int k) { int r = k * 2; return r; }", ["ab"],
        COMPILE, "incompatible types: String cannot be converted to int", (2, 35)),
    "an int method that falls off its end": (
        "static int f(int a) { return g(a) + 1; }\n"
        "static int g(int k) { if (k > 0) { return 1; } }", [-1],
        COMPILE, "missing return statement", (3, 48)),
    "an int stored into a boolean local": (
        "static boolean f(int a) { boolean b = a > 0; b = a; return b; }", [3],
        COMPILE, "incompatible types: int cannot be converted to boolean", (2, 50)),
    "a boolean argument for an int parameter": (
        "static int f(int a) { return a + 1; }", [True],
        RUN, "argument of type bool for parameter type int", (2, 14)),
    "a string returned from an int method": (
        "static int f(int a) { return g(a) + 1; }\n"
        "static int g(int k) { if (k > 0) { return \"s\"; } return k; }", [2],
        COMPILE, "incompatible types: String cannot be converted to int", (3, 43)),
    "a bare return in an int method": (
        "static int f(int a) { return g(a) * 2; }\n"
        "static int g(int k) { if (k > 0) { return; } return k; }", [2],
        COMPILE, "missing return value", (3, 36)),
}


@pytest.mark.parametrize("name", ILL_TYPED)
def test_an_ill_typed_method_keeps_its_outcome(name):
    """The outcome each keeps is a rejection, with its detail and place."""
    methods, args, when, detail, where = ILL_TYPED[name]
    m, ast = method_named(f"class A {{\n{methods}\n}}", "f")
    assert is_supported(m, ast) == (when == RUN)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, args, context=ast)
    assert (exc.value.detail, (exc.value.span.start_line, exc.value.span.start_col)) == (
        detail, where)


@pytest.mark.parametrize("test, python", [("s == null", " is None"), ("null != s", " is not ")],
                         ids=["equal", "not equal"])
def test_a_null_comparison_is_an_identity_test(test, python):
    m, ast = method_named(f"class A {{ static boolean f(String s) {{ return {test}; }} }}", "f")
    text = interp._compile(m, ast).text
    assert python in text and "_eq(" not in text and "type(" not in text
    assert [evaluate(m, [v], context=ast) for v in ("", None)] == [
        Returned(test.startswith("null")), Returned(not test.startswith("null"))]


@pytest.mark.parametrize("test, expected", [('"ab" == null', False), ('null != "ab"', True)],
                         ids=["equal", "not equal"])
def test_a_string_literal_compared_with_null_compiles_without_a_warning(test, expected):
    """CPython warns of `is` with a str literal; the text compares by value."""
    m, ast = method_named(f"class A {{ static boolean f(int n) {{ return {test}; }} }}", "f")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(m, [0], context=ast) == Returned(expected)


def test_a_null_string_operand_of_plus_concatenates_as_null():
    """`s + n` is a concatenation by s's type, whatever s holds (JLS 15.18.1)."""
    m, ast = method_named("class A { static String f(String s, int n) { return s + n; } }", "f")
    assert [evaluate(m, [s, 1], context=ast) for s in ("a", None)] == [
        Returned("a1"), Returned("null1")]


def test_a_read_of_an_unassigned_local_is_rejected():
    """javac rejects the read, as x is not definitely assigned (JLS ch. 16);
    the oracle rejects it where it happens."""
    m, ast = method_named(
        "class A { static int f(boolean c) { int x; if (c) { x = 1; } return x; } }", "f")
    assert evaluate(m, [True], context=ast) == Returned(1)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [False], context=ast)
    assert exc.value.detail == "unbound name 'x'"


def test_an_int_method_that_reaches_its_end_is_rejected():
    """javac rejects the method: a return is missing (JLS 8.4.7). So does
    the oracle when it compiles the method, at its closing brace, even for
    arguments that take a return."""
    src = "class A { static int f(boolean c) { if (c) { return 1; } } }"
    m, ast = method_named(src, "f")
    assert not is_supported(m, ast)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [True], context=ast)
    brace = src.rindex("} }") + 1  # the method's closing brace, 1-based
    assert (exc.value.detail, exc.value.span.start_col) == ("missing return statement", brace)


@pytest.mark.parametrize("body, unreachable", [
    ("return 1; int y = 2;", "int y"),
    ("int x = 0; switch (n) { case 0: return 1; x = 3; default: x = 4; } return x;", "x = 3"),
    ("while (n > 0) { break; n = n - 1; } return n;", "n = n - 1"),
    ("for (int i = 0; i < n; i = i + 1) { continue; n = 1; } return n;", "n = 1"),
    ("if (n > 0) { return 1; return 2; } return 3;", "return 2"),
    ("if (n > 0) { return 1; } else { return 2; } return 3;", "return 3"),
    ("if (n > 0) { return 1; } else if (n < 0) { return 2; } else { return 0; } n = 4; return n;",
     "n = 4"),
    ("while (n > 0) { if (n > 1) { break; } else { continue; } n = n - 1; } return n;",
     "n = n - 1"),
    ("int x = 0; { x = 1; return x; } return 2;", "return 2"),
    ("int x = 0; { x = 1; { return x; } } x = 2; return x;", "x = 2"),
], ids=["return", "case", "break", "continue", "nested", "if-else", "else-if", "if-else-jumps",
        "block", "blocks"])
def test_a_statement_right_after_a_jump_is_unreachable(body, unreachable):
    """javac rejects it at compile time (JLS 14.22), and so does the oracle:
    after a jump, an if whose branches both end in a jump, or a block that
    ends in one."""
    src = f"class A {{ static int f(int n) {{ {body} }} }}"
    m, ast = method_named(src, "f")
    assert not is_supported(m, ast)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [0], context=ast)
    assert (exc.value.detail, exc.value.span.start_col) == (
        "unreachable statement", src.index(unreachable) + 1)


# `static int p(int k)` with each body: javac 17 compiles the first three
# and rejects the last three, and the oracle does the same. A loop on the
# literal `true` or on no condition, and a switch with a default whose last
# group jumps, complete normally only through a break that leaves them (JLS
# 14.22); a method body that can complete normally misses a return (JLS
# 8.4.7), reported at its closing brace.
JAVAC_PROBES = {
    "a": ("switch (k) { case 1: return 1; default: return 2; }", [2, 1]),
    "d": ("for (;;) { if (k > 0) { return 1; } k = k + 1; }", [1, 1]),
    "e": ("while (true) { switch (k) { case 1: break; default: return 2; } k = k + 1; }",
          [2, 2]),
    "b": ("switch (k) { case 1: return 1; default: return 2; } return 3;",
          ("unreachable statement", "return 3")),
    "c": ("while (true) { return 1; } return 2;", ("unreachable statement", "return 2")),
    "f": ("switch (k) { case 1: return 1; default: }", ("missing return statement", "} }")),
}


@pytest.mark.parametrize("probe", JAVAC_PROBES)
def test_the_oracle_compiles_what_javac_compiles(probe):
    body, expected = JAVAC_PROBES[probe]
    src = f"class A {{ static int p(int k) {{ {body} }} }}"
    m, ast = method_named(src, "p")
    if isinstance(expected, list):
        assert [evaluate(m, [k], context=ast) for k in (0, 1)] == [Returned(v) for v in expected]
        return
    detail, place = expected
    assert not is_supported(m, ast)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [1], context=ast)
    assert (exc.value.detail, exc.value.span.start_col) == (detail, src.rindex(place) + 1)


@pytest.mark.parametrize("body, expected", [
    ("if (n > 0) { return 1; } return 3;", [3, 1]),
    ("if (n > 0) { return 1; } else { n = 2; } return n;", [2, 1]),
    ("if (n > 0) { n = 2; } else { return 0; } return n;", [0, 2]),
    ("int x = 0; { x = 1; } return x;", [1, 1]),
    ("while (n > 0) { if (n > 1) { break; } n = n - 1; } return n;", [0, 0]),
], ids=["if", "then-completes", "else-completes", "block", "loop"])
def test_a_statement_after_one_that_can_complete_normally_is_reachable(body, expected):
    m, ast = method_named(f"class A {{ static int f(int n) {{ {body} }} }}", "f")
    assert [evaluate(m, [n], context=ast) for n in (0, 1)] == [Returned(v) for v in expected]


def test_a_case_after_a_jump_is_reachable():
    m, ast = method_named("class A { static int f(int n) { int x = 0; switch (n) { "
                          "case 0: return 1; case 1: x = 3; break; default: x = 4; } "
                          "return x; } }", "f")
    assert [evaluate(m, [n], context=ast) for n in (0, 1, 2)] == [
        Returned(1), Returned(3), Returned(4)]


# The oracle's compile-time rejections that no other test reaches: each with
# its detail and the column its span starts at.
@pytest.mark.parametrize("src, detail, at", [
    ("class A { static long f(int n) { return n; } }", "return type 'long'", "static long"),
    ("class A { static int f(int n) { return g(n, n); } static int g(int a) { return a; } }",
     "argument arity mismatch", "static int g"),
    ("class A { static int f(int n) { long x = n; return n; } }",
     "local variable type 'long'", "long x"),
    ("class A { static int f(int n) { var x = null; return n; } }",
     "cannot infer a type for 'x' from <null>", "null"),
    ("class A { static int f(int n) { var x = v(); return n; } static void v() { } }",
     "cannot infer a type for 'x' from void", "v()"),
    ("class A { static void f(int n) { return 1; } }",
     "incompatible types: unexpected return value", "1;"),
    ('class A { static int f(boolean c) { var s = c ? 1 : "a"; return 0; } }',
     "bad operand types for ?: int and String", "c ?"),
    ("class A { static int f(int n) { return Math.min(1); } }", "Math.min/1", "Math"),
    ("class A { static int f(int n) { return Math.floorMod(1, 2); } }", "Math.floorMod/2", "Math"),
    ("class A { static int f(int x) { return x.length(); } }", "int cannot be dereferenced",
     "x.length"),
    # The leaf is not inlined, so the callee's own compile rejects it.
    ("class A { static int f(int n) { return g(n); } static int g(int x) { return x > 0; } }",
     "incompatible types: boolean cannot be converted to int", "x > 0"),
    ("class A { static int g(long x) { return 1; } static int f(int n) { return g(n); } }",
     "parameter type 'long'", "long x"),
], ids=["return-type", "call-arity", "local-type", "var-null", "var-void", "void-return",
        "ternary", "min-arity", "floorMod", "int-receiver", "leaf-type", "leaf-parameter-type"])
def test_a_compile_rejection_names_its_reason_and_place(src, detail, at):
    m, ast = method_named(src, "f")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert (exc.value.detail, exc.value.span.start_col) == (detail, src.index(at) + 1)


def test_an_operator_outside_the_subset_is_rejected():
    """The parser makes no such Binary, but a caller of the API can build one."""
    m, ast = method_named("class A { static int f(int n) { return n + n; } }", "f")
    ret = m.body.stmts[0]
    xor = Binary("^", ret.value.left, ret.value.right, ret.value.span)
    m = evolve(m, body=evolve(m.body, stmts=(evolve(ret, value=xor),)))
    with pytest.raises(UnsupportedForEvaluation) as exc:
        ensure_supported(m, ast)
    assert (exc.value.detail, exc.value.span.start_col) == ("operator ^", 40)


def test_the_entry_points_reject_arguments_that_do_not_fit():
    m, ast = method_named("class A { static int f(int n) { return n; } }", "f")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [1, 2], context=ast)
    assert (exc.value.detail, exc.value.span.start_col) == ("argument arity mismatch", 11)
    other, other_ast = method_named("class A { static int f(boolean n) { return 1; } }", "f")
    with pytest.raises(UnsupportedForEvaluation) as exc:
        check_equivalence(m, other, context1=ast, context2=other_ast)
    assert (exc.value.detail, exc.value.span.start_col) == ("parameter type mismatch", 24)
    wide, _ = method_named("class A { static int f(long n) { return 1; } }", "f")
    with pytest.raises(ValueError, match="no argument generator for type 'long'"):
        generate_args(wide.params, 0, 0)


def test_a_program_is_freed_once_nothing_can_run_it(monkeypatch):
    """A loaded text's functions and the namespace that holds them are a
    reference cycle; once the last program of the text has left the compile
    cache, the cycle is broken, so the program is freed without the cyclic
    collector, and not before."""
    monkeypatch.setattr(interp, "_COMPILED", {})
    monkeypatch.setattr(interp, "_CODE", weakref.WeakValueDictionary())
    a, b, c, d, e = (method_named(
        f"class A {{ static int f(int n) {{ return Math.abs(n) + {k}; }} }}", "f") for k in range(5))
    gc.disable()
    try:
        top = weakref.ref(interp._compile(*a).top)
        ensure_supported(*b)
        ensure_supported(*a)  # a's entry is now the most recent
        ensure_supported(*c)  # b's entry leaves, a's stays
        assert evaluate(a[0], [-1], context=a[1]) == Returned(1)
        ensure_supported(*d)  # c's entry leaves
        assert top() is not None
        ensure_supported(*e)  # a's entry leaves too
        assert top() is None
    finally:
        gc.enable()


def test_a_held_program_runs_after_it_leaves_the_caches():
    """A program holds its loaded text, so one that a caller holds still
    runs after newer compiles push it out of the compile cache."""
    m, ast = method_named("class A { static int f(int n) { return Math.abs(n); } }", "f")
    program = interp._compile(m, ast)
    for k in range(1, 4):
        ensure_supported(*method_named(
            f"class A {{ static int f(int n) {{ return Math.abs(n) + {k}; }} }}", "f"))
    assert interp._run(program, [-1], DEFAULT_FUEL) == Returned(1)


@pytest.mark.parametrize("result, body, args, expected", [
    ("int", "return a / (a = 2);", [7, "s"], 3),
    ("int", "return a % (a = 4);", [7, "s"], 3),
    ("String", "return a + (s = \"x\");", [7, "s"], "7x"),
    ("int", "return a < (a = 9) ? a : 0;", [7, "s"], 9),
    ("int", "boolean b = a > 0; return (b == (b = false)) ? a : 0;", [7, "s"], 0),
], ids=["division", "remainder", "concatenation", "comparison", "boolean"])
def test_an_operand_is_read_before_a_later_operand_assigns_it(result, body, args, expected):
    m, ast = method_named(f"class A {{ static {result} f(int a, String s) {{ {body} }} }}", "f")
    assert evaluate(m, args, context=ast) == Returned(expected)


@pytest.mark.parametrize("call", ['s.concat("" + 1 / a)', "s.substring(1 / a)",
                                  's.equals("" + 1 / a)', 's.startsWith("" + 1 / a)'],
                         ids=["concat", "substring", "equals", "startsWith"])
def test_a_null_receiver_is_checked_after_the_arguments(call):
    """JLS 15.12.4: a method's arguments are evaluated before its receiver
    is checked for null."""
    m, ast = method_named(f'class A {{ static String f(String s, int a) {{ return "" + {call}; }} }}',
                          "f")
    assert evaluate(m, [None, 0], context=ast) == Threw("ArithmeticException")
    assert evaluate(m, [None, 1], context=ast) == Threw("NullPointerException")


def test_an_extracted_argument_that_throws_agrees_with_a_null_receiver():
    src = ('class A { static String f(String s, int a) { return s.concat(g(a)); } '
           'static String g(int a) { return "x" + (10 / a); } }')
    f, ast = method_named(src, "f")
    variant, _ = apply_rule(f, TransformRule.ARGUMENT_PASS, context=ast)
    assert print_stmt(variant.body.stmts[0]) == "var tmp = g(a);\n"
    assert evaluate(f, [None, 0], context=ast) == Threw("ArithmeticException")
    assert check_equivalence(f, variant, context1=ast, context2=ast).verdict == EQUIVALENT


def test_a_variant_alone_out_of_fuel_is_inconclusive():
    f, ast1 = method_named("class A { static int f(int n) { return n; } }", "f")
    g, ast2 = method_named("class A { static int f(int n) { int i = 0; "
                           "while (i < 1000) { i = i + 1; } return n; } }", "f")
    verdict = check_equivalence(f, g, trials=5, fuel=100, context1=ast1, context2=ast2)
    assert verdict.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# The survey: the corpus and javagen methods and their apply_all outputs
# ---------------------------------------------------------------------------

SURVEY_FUELS = (0, 1, 5, 25, DEFAULT_FUEL)


def _survey_methods():
    files = [parse(path.read_text(), path.name)
             for path in sorted((FIXTURES / "corpus").glob("*.java"))]
    files += [parse(generate_method_source(seed), f"Fuzzed{seed}.java")
              for seed in [*range(40), *range(2000, 2010)]]
    for ast in files:
        for cls in ast.types:
            for m in cls.methods:
                yield m, ast
                yield apply_all(m, context=ast)[0], ast


# The survey's outcomes, as the oracle gave them when it still kept an untyped
# program to compare the typed one with: for each method, its compile
# rejection, or on each declared-type vector at each fuel its outcome or its
# run-time rejection's span and detail.
SURVEY_DIGEST = "be8d2c0247ed9c17292481028d5b56f0a26a5c7cf858b67ac700033a43a63db6"


def _survey_lines():
    for m, ast in _survey_methods():
        yield f"{m.name} {tuple(m.span)}"
        try:
            ensure_supported(m, ast)
        except UnsupportedForEvaluation as exc:
            yield f"  compile: {tuple(exc.span)} {exc.detail}"
            continue
        for trial in range(10):
            args = generate_args(m.params, 0, trial)
            for fuel in SURVEY_FUELS:
                try:
                    outcome = repr(evaluate(m, args, fuel, ast))
                except UnsupportedForEvaluation as exc:
                    outcome = f"{tuple(exc.span)} {exc.detail}"
                yield f"  {args!r} {fuel}: {outcome}"


def test_the_survey_outcomes_match_their_digest():
    digest = hashlib.sha256("\n".join(_survey_lines()).encode("utf-8")).hexdigest()
    assert digest == SURVEY_DIGEST
