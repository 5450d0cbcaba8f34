import itertools
import json
import sys
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
from vmorph.parser import parse
from vmorph.transforms import apply_all

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


def test_switch_jump_past_a_declaration_stays_a_runtime_error():
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
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [1], context=ast)
    assert "unbound name 'x'" in str(exc.value)


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
    # 1 == True and hash(1) == hash(True), but only 1 is an int operand.
    m, ast = method_named("class A { static int f(int x) { return x + 1; } }", "f")
    for arg in [True, 1] if bool_first else [1, True]:
        if arg is True:
            with pytest.raises(UnsupportedForEvaluation, match="non-int"):
                evaluate(m, [arg], context=ast)
        else:
            assert evaluate(m, [arg], context=ast) == Returned(2)


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
    """Counts the runs each compiled method starts, not the calls it makes,
    from an empty compile cache, so no earlier test's memo is shared."""
    runs, invoke = {}, interp._invoke
    monkeypatch.setattr(interp, "_COMPILED", {})

    def counting_invoke(method, run, args):
        if run[1] == 0:
            runs[method] = runs.get(method, 0) + 1
        return invoke(method, run, args)
    monkeypatch.setattr(interp, "_invoke", counting_invoke)
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
    assert first.key == second.key
    assert first.outcomes is second.outcomes
    assert runs[first] == 20 and second not in runs


@pytest.mark.parametrize("variant", [
    # a use swap: b - a reads the parameters in the other order
    ALPHA_ORIGINAL.replace("int c = a - b;", "int c = b - a;")
    .replace("c = c + twice(i);", "c = c + twice(i) + a;"),
    # a capture: renamed i to a, the loop variable shadows the parameter a
    ALPHA_ORIGINAL.replace("for (int i = 0; i < 3; i = i + 1) { c = c + twice(i); }",
                           "for (int a = 0; a < 3; a = a + 1) { c = c + twice(a) + a; }"),
])
def test_methods_equal_up_to_names_with_other_slots_run_alone(monkeypatch, variant):
    original = ALPHA_ORIGINAL.replace("c = c + twice(i);", "c = c + twice(i) + a;")
    m1, ast1 = method_named(original, "f")
    m2, ast2 = method_named(variant, "f")
    runs = _top_runs(monkeypatch)
    verdict = check_equivalence(m1, m2, trials=20, context1=ast1, context2=ast2)
    assert verdict.verdict == DIVERGED
    first, second = interp._compile(m1, ast1), interp._compile(m2, ast2)
    assert first.key != second.key
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
    assert interp._compile(m1, ast1).key == interp._compile(m2, ast2).key
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
    monkeypatch.setattr(interp, "_TRIAL_ARGS", {})
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


def test_verdicts_do_not_depend_on_check_order_or_the_argument_cache(monkeypatch):
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

    monkeypatch.setattr(interp, "_TRIAL_ARGS", {})
    reference = verdicts(list(checks))
    assert [v["verdict"] for v in reference.values()] == [
        "equivalent", "diverged", "inconclusive", "diverged"]
    for order in itertools.permutations(checks):
        monkeypatch.setattr(interp, "_TRIAL_ARGS", {})
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
    no compiled form special-cases: on every pair of pool values the outcome
    or the rejection's detail is the same."""
    literals = [_java_literal(v) for v in OPERAND_POOL]
    methods = [f"static int p(int x, int y) {{ return x {op} y; }}",
               f"static int g(int x, int y) {{ return (true ? x : x) {op} (true ? y : y); }}"]
    for j, lit in enumerate(literals):
        methods += [f"static int r{j}(int x, int y) {{ return x {op} {lit}; }}",
                    f"static int l{j}(int x, int y) {{ return {lit} {op} y; }}",
                    f"static int s{j}(int x, int y) {{ int r = 0; r = x {op} {lit}; return r; }}"]
    ast = parse("class Ops {\n" + "\n".join(methods) + "\n}\n")
    by_name = {m.name: m for m in ast.types[0].methods}
    for i, a in enumerate(OPERAND_POOL):
        for j, b in enumerate(OPERAND_POOL):
            shapes = {name: _shape_outcome(by_name[name], (a, b), ast)
                      for name in ("p", "g", f"r{j}", f"l{i}", f"s{j}")}
            assert len(set(shapes.values())) == 1, (a, b, shapes)


@pytest.mark.parametrize("tail", ["x = 2; return x;", "return x = 2;"])
def test_assigning_a_switch_local_whose_case_was_jumped_over_is_rejected(tail):
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
    assert evaluate(m, [0], context=ast) == Returned(2)
    with pytest.raises(UnsupportedForEvaluation) as exc:
        evaluate(m, [1], context=ast)
    assert exc.value.detail == "unbound name 'x'"


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


def _least_fuel(m, args, context):
    """The least fuel at which the outcome is not OutOfFuel, or None."""
    if _outcome_json(m, args, DEFAULT_FUEL, context) == {"out_of_fuel": True}:
        return None
    lo, hi = 0, DEFAULT_FUEL
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
