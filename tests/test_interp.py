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
    calls, real = [], interp.evaluate
    monkeypatch.setattr(interp, "evaluate",
                        lambda m, args, *rest: calls.append((m, args)) or real(m, args, *rest))
    verdict = check_equivalence(m1, m2, trials=40, seed=0, fuel=1000,
                                context1=ast1, context2=ast2)
    assert verdict.verdict == "inconclusive"
    first = [args for m, args in calls if m is m1]
    starved = [args for args in first if real(m1, args, 1000, ast1) == OutOfFuel()]
    assert 0 < len(starved) < len(first)
    assert [args for m, args in calls if m is m2] == [a for a in first if a not in starved]


def test_generate_args_deterministic():
    src = "class A { static int f(int a, boolean b, String s) { return a; } }"
    m = parse(src).types[0].methods[0]
    assert generate_args(m.params, 5, 3) == generate_args(m.params, 5, 3)
    assert generate_args(m.params, 5, 3) != generate_args(m.params, 5, 4)


def test_arity_mismatch_rejected():
    src = "class A { static int f(int a) { return a; } static int g(int a, int b) { return a; } }"
    ast = parse(src)
    f, g = ast.types[0].methods
    with pytest.raises(UnsupportedForEvaluation):
        check_equivalence(f, g, trials=5, seed=0, context1=ast, context2=ast)


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
