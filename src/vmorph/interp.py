"""Deterministic interpreter and differential equivalence checker.

A desk-scale stand-in for running a project's test suite: evaluate a method
on concrete arguments under 32-bit Java integer semantics, then compare the
original and transformed methods over seeded random inputs.

Supported values are 32-bit ints, booleans, strings, and null. Calls are
limited to a small builtin set (string length/substring/startsWith/equals/
concat, Math.min/max/abs) plus static methods defined in the same file. The
outcome model knows exactly ArithmeticException and NullPointerException.

"Supported" means "compiles": a method and the same-file methods it calls
are compiled once into nested closures, names resolved to frame slots
(Feeley & Lapalme, "Using closures for code generation", 1987). Compiling
rejects, on every path: parameter types other than int/boolean/String,
throw, new, field access, assignment to a non-name, names that denote no
parameter or local (static fields among them), calls that resolve to no
builtin or same-file method or pass the wrong number of arguments, unknown
receivers, and break/continue outside a loop or switch. Running raises
UnsupportedForEvaluation only for type confusions, string index errors,
strings over MAX_STRING_LENGTH and a switch-case local whose case was
jumped over. Fuel is charged once per statement (an if's then block and a
loop body are not statements) and once per loop test; exhausting it, or
nesting over MAX_CALL_DEPTH calls, gives OutOfFuel.

Outcomes are memoised on the compiled method, keyed by fuel and by each
argument's type and value, so a method run again on the same inputs (the
original of a record, against each of its variants) is not re-executed; a
run-time rejection is stored and raised again. The memo lives and dies with
the compiled entry. check_equivalence does not run the second method on a
trial where the first ran out of fuel, as there is nothing to compare.
"""

from __future__ import annotations

import operator
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

from .errors import UnsupportedForEvaluation
from .nodes import DEFAULT_LABEL, Binary, Literal, MethodDecl, Name, SourceFile, Unary

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1

DEFAULT_FUEL = 10_000
MAX_CALL_DEPTH = 200
MAX_STRING_LENGTH = 100_000  # longer strings are outside the outcome model

# Builtin method -> the argument counts it takes.
STRING_BUILTINS = {"length": (0,), "substring": (1, 2), "startsWith": (1,), "equals": (1,),
                   "concat": (1,)}
MATH_BUILTINS = {"min": (2,), "max": (2,), "abs": (1,)}
SUPPORTED_PARAM_TYPES = frozenset({"int", "boolean", "String"})

ARITHMETIC = "ArithmeticException"
NULL_POINTER = "NullPointerException"


class _Void:
    def __repr__(self):
        return "void"


VOID = _Void()


@dataclass(frozen=True)
class Returned:
    value: object  # an int, bool, str or None, or VOID


@dataclass(frozen=True)
class Threw:
    kind: str  # ArithmeticException | NullPointerException


@dataclass(frozen=True)
class OutOfFuel:
    pass


Outcome = Union[Returned, Threw, OutOfFuel]


def outcome_to_json(outcome: Outcome) -> dict:
    if isinstance(outcome, Returned):
        value = "void" if outcome.value is VOID else outcome.value
        return {"returned": value}
    if isinstance(outcome, Threw):
        return {"threw": outcome.kind}
    return {"out_of_fuel": True}


@dataclass(frozen=True)
class Counterexample:
    args: tuple
    outcome1: Outcome
    outcome2: Outcome

    def to_json_dict(self) -> dict:
        return {
            "args": list(self.args),
            "outcome1": outcome_to_json(self.outcome1),
            "outcome2": outcome_to_json(self.outcome2),
        }


EQUIVALENT = "equivalent"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EquivalenceVerdict:
    verdict: str
    trials: int
    counterexample: Optional[Counterexample] = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "trials": self.trials}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json_dict()
        return out


# ---------------------------------------------------------------------------
# Compilation: a method is supported when it compiles
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Ends an evaluation: Threw(*args), or OutOfFuel when args is empty."""


# A compiled statement returns None to fall through, _BREAK, _CONTINUE, or a
# 1-tuple holding the value it returns. A frame is [run state, parameters...,
# locals...]; one evaluation's frames share the run state [fuel, call depth].
_BREAK, _CONTINUE = object(), object()
_UNSET = object()  # a local of a switch whose declaring case was jumped over


def _wrap32(v: int) -> int:
    return (v + 2**31) % 2**32 - 2**31


def _java_div(a: int, b: int) -> int:
    if b == 0:
        raise _Stop(ARITHMETIC)
    q = abs(a) // abs(b)
    return _wrap32(-q if (a < 0) != (b < 0) else q)


def _java_mod(a: int, b: int) -> int:
    return _wrap32(a - _java_div(a, b) * b)


def _to_java_string(v) -> str:
    return ("true" if v else "false") if isinstance(v, bool) else "null" if v is None else str(v)


_INT_OPS = {
    "+": lambda a, b: _wrap32(a + b), "-": lambda a, b: _wrap32(a - b),
    "*": lambda a, b: _wrap32(a * b), "/": _java_div, "%": _java_mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_REJECTED = {"Throw": "throw statement", "New": "object allocation", "FieldAccess": "field access"}
# Operators whose compiled form yields a bool or raises.
_BOOL_OPS = frozenset({"&&", "||", "==", "!=", "<", "<=", ">", ">="})


def _values_equal(left, right, span) -> bool:
    if left is None or right is None:
        if isinstance(left if right is None else right, (str, type(None))):
            return left is right
        raise UnsupportedForEvaluation(span, "null compared to a primitive")
    if type(left) is not type(right):
        raise UnsupportedForEvaluation(span, "comparison of unrelated types")
    # String == compares values here; the subset has no aliasing to observe.
    return left == right


def _math(method: str, span, args: list) -> int:
    if any(type(v) is not int for v in args):
        raise UnsupportedForEvaluation(span, "Math builtin on non-int")
    return _wrap32(abs(args[0])) if method == "abs" else (min if method == "min" else max)(args)


def _bounded(s: str, span) -> str:
    if len(s) > MAX_STRING_LENGTH:
        raise UnsupportedForEvaluation(span, f"string longer than {MAX_STRING_LENGTH}")
    return s


def _string_method(method: str, span, receiver: str, args: list):
    if method == "length":
        return len(receiver)
    if method == "substring":
        begin, end = args if len(args) == 2 else (args[0], len(receiver))
        if type(begin) is not int or type(end) is not int:
            raise UnsupportedForEvaluation(span, "substring on non-int index")
        if not (0 <= begin <= end <= len(receiver)):
            raise UnsupportedForEvaluation(span, "string index out of range")
        return receiver[begin:end]
    if method == "equals":
        return isinstance(args[0], str) and receiver == args[0]
    if not isinstance(args[0], str):  # startsWith, concat
        if args[0] is None:
            raise _Stop(NULL_POINTER)
        raise UnsupportedForEvaluation(span, f"{method} on non-string")
    if method == "startsWith":
        return receiver.startswith(args[0])
    return _bounded(receiver + args[0], span)


def _sequence(compiled: list):
    """Run compiled statements in order, charging one unit of fuel each."""

    def run(f):
        fuel = f[0]
        for s in compiled:
            fuel[0] -= 1
            if fuel[0] < 0:
                raise _Stop()
            r = s(f)
            if r is not None:
                return r
    return run


class _Method:
    body = None  # the compiled body, set once compiled
    locals: tuple = ()  # initial values of the slots after the parameters

    def __init__(self):
        # evaluate's memo for this method as the top of a run:
        # (fuel, (type, value) per argument) -> outcome or run-time rejection
        self.outcomes: dict[tuple, object] = {}


def _invoke(method: _Method, run: list, args: list):
    run[1] += 1
    if run[1] > MAX_CALL_DEPTH:  # exhaustion, never a Python RecursionError
        raise _Stop()
    returned = method.body([run, *args, *method.locals])
    run[1] -= 1
    return VOID if returned is None else returned[0]


class _Compiler:
    """Compiles a method and the same-file methods it calls into closures.
    Scopes mirror Java blocks and map names to frame slots; a switch's locals
    are read with a check, as their declaring case may have been jumped over."""

    def __init__(self, context: SourceFile | None):
        types = context.types if context is not None else ()
        self.classes = {cls.name for cls in types}
        methods = [m for cls in types for m in cls.methods if not m.is_constructor()]
        self.methods = {m.name: m for m in reversed(methods)}  # the first of each name
        self.compiled: dict[int, _Method] = {}
        self.pending: list[tuple[MethodDecl, _Method]] = []

    def callee(self, m: MethodDecl) -> _Method:
        """m's compiled form; it is filled in once the caller is compiled."""
        if id(m) not in self.compiled:
            self.compiled[id(m)] = _Method()
            self.pending.append((m, self.compiled[id(m)]))
        return self.compiled[id(m)]

    def compile(self, top: MethodDecl) -> _Method:
        out = self.callee(top)
        while self.pending:
            m, method = self.pending.pop()
            for p in m.params:
                if p.type_name not in SUPPORTED_PARAM_TYPES:
                    raise UnsupportedForEvaluation(p.span, f"parameter type {p.type_name!r}")
            self.scopes = [({p.name: i for i, p in enumerate(m.params, 1)}, False)]
            self.size, self.loops = 1 + len(m.params), 0
            method.body = self.block(m.body)
            method.locals = (None,) * (self.size - 1 - len(m.params))
        return out

    def resolve(self, node, name: str) -> tuple[int, bool]:
        """The slot `name` denotes here, and whether it may be unset."""
        for names, in_switch in reversed(self.scopes):
            if name in names:
                return names[name], in_switch
        raise UnsupportedForEvaluation(node.span, f"unbound name {name!r}")

    def reject(self, node):
        kind = type(node).__name__
        raise UnsupportedForEvaluation(node.span, _REJECTED.get(kind, kind))

    # -- statements --

    def stmt(self, s):
        return getattr(self, "s_" + type(s).__name__, self.reject)(s)

    def block(self, b):
        self.scopes.append(({}, False))
        body = _sequence([self.stmt(s) for s in b.stmts])
        self.scopes.pop()
        return body

    s_Block = block

    def s_LocalVarDecl(self, s):
        names, steps = self.scopes[-1][0], []
        for d in s.declarators:  # each initializer sees the declarators before it
            init = self.expr(d.init) if d.init is not None else (lambda f: None)
            if d.name not in names:  # a redeclaration in the same scope rebinds it
                names[d.name], self.size = self.size, self.size + 1
            steps.append((names[d.name], init))

        def run(f):
            for slot, init in steps:
                f[slot] = init(f)
        return run

    def s_ExprStmt(self, s):
        e = self.expr(s.expr)

        def run(f):
            e(f)
        return run

    def s_If(self, s):
        test, then = self.truth(s.cond), self.block(s.then)
        # The then block runs uncharged; an else branch is a charged statement.
        orelse = _sequence([self.stmt(s.orelse)]) if s.orelse is not None else (lambda f: None)
        return lambda f: then(f) if test(f) else orelse(f)

    def loop(self, body, test, update):
        """While and for: charge, test, body, update."""
        self.loops += 1
        body = self.block(body)
        self.loops -= 1

        def run(f):
            fuel = f[0]
            while True:
                fuel[0] -= 1
                if fuel[0] < 0:
                    raise _Stop()
                if test is not None and not test(f):
                    return None
                r = body(f)
                if r is not None and r is not _CONTINUE:
                    return None if r is _BREAK else r
                if update is not None:
                    update(f)
        return run

    def s_While(self, s):
        return self.loop(s.body, self.truth(s.cond), None)

    def s_For(self, s):
        self.scopes.append(({}, False))
        init = _sequence([self.stmt(s.init)]) if s.init is not None else (lambda f: None)
        test = self.truth(s.cond) if s.cond is not None else None
        loop = self.loop(s.body, test, self.expr(s.update) if s.update is not None else None)
        self.scopes.pop()
        return lambda f: init(f) or loop(f)

    def s_Switch(self, s):
        scrutinee, span = self.expr(s.scrutinee), s.span
        self.scopes.append(({}, True))
        starts: dict[object, int] = {}  # label value -> first statement of its case
        default, stmts = None, []
        for case in s.cases:
            for label in case.labels:
                if label == DEFAULT_LABEL:
                    default = len(stmts)
                elif isinstance(label, Literal):  # int or String, never equal across types
                    starts.setdefault(label.value, len(stmts))
            stmts.extend(self.stmt(c) for c in case.body)
        tails = {i: _sequence(stmts[i:]) for i in {*starts.values(), default} if i is not None}
        declared = tuple(self.scopes.pop()[0].values())

        def run(f):
            v = scrutinee(f)
            if v is None:
                raise _Stop(NULL_POINTER)
            if type(v) is not int and type(v) is not str:
                raise UnsupportedForEvaluation(span, "switch scrutinee type")
            start = starts.get(v, default)
            if start is None:
                return None
            for slot in declared:
                f[slot] = _UNSET
            r = tails[start](f)
            return None if r is _BREAK else r
        return run

    def s_Return(self, s):
        value = self.expr(s.value) if s.value is not None else (lambda f: VOID)
        return lambda f: (value(f),)

    def s_Break(self, s):
        if not (self.loops or any(in_switch for _, in_switch in self.scopes)):
            raise UnsupportedForEvaluation(s.span, "break/continue escaped the method")
        return lambda f: _BREAK

    def s_Continue(self, s):
        if not self.loops:
            raise UnsupportedForEvaluation(s.span, "break/continue escaped the method")
        return lambda f: _CONTINUE

    # -- expressions --

    def expr(self, e):
        return getattr(self, "e_" + type(e).__name__, self.reject)(e)

    def truth(self, e):
        ev, span = self.expr(e), e.span
        if isinstance(e, Binary) and e.op in _BOOL_OPS or isinstance(e, Unary) and e.op == "!":
            return ev

        def test(f):
            v = ev(f)
            if type(v) is not bool:
                raise UnsupportedForEvaluation(span, "condition is not boolean")
            return v
        return test

    def e_Literal(self, e):
        return lambda f, value=e.value: value

    def e_Name(self, e):
        slot, maybe_unset = self.resolve(e, e.id)
        if not maybe_unset:
            return lambda f: f[slot]

        def read(f):
            if f[slot] is _UNSET:
                raise UnsupportedForEvaluation(e.span, f"unbound name {e.id!r}")
            return f[slot]
        return read

    def e_Assign(self, e):
        if not isinstance(e.target, Name):
            raise UnsupportedForEvaluation(e.span, "compound assignment target")
        value = self.expr(e.value)
        slot, _ = self.resolve(e, e.target.id)

        def assign(f):
            v = value(f)
            if f[slot] is _UNSET:
                raise UnsupportedForEvaluation(e.span, f"unbound name {e.target.id!r}")
            f[slot] = v
            return v
        return assign

    def e_Unary(self, e):
        operand, span, negate = self.expr(e.operand), e.span, e.op == "!"

        def unary(f):
            v = operand(f)
            if type(v) is not (bool if negate else int):
                raise UnsupportedForEvaluation(
                    span, "! on non-boolean" if negate else "- on non-int")
            return not v if negate else _wrap32(-v)
        return unary

    def e_Ternary(self, e):
        test, a, b = self.truth(e.cond), self.expr(e.if_true), self.expr(e.if_false)
        return lambda f: a(f) if test(f) else b(f)

    def e_Binary(self, e):
        op, span = e.op, e.span
        if op in ("&&", "||"):
            left, right = self.truth(e.left), self.truth(e.right)
            if op == "&&":
                return lambda f: left(f) and right(f)
            return lambda f: left(f) or right(f)
        left, right = self.expr(e.left), self.expr(e.right)
        if op in ("==", "!="):
            want = op == "=="
            return lambda f: _values_equal(left(f), right(f), span) is want
        fn = _INT_OPS.get(op)
        if fn is None:
            raise UnsupportedForEvaluation(span, f"operator {op}")

        def binary(f):
            a, b = left(f), right(f)
            if type(a) is int and type(b) is int:
                return fn(a, b)
            if op == "+" and (isinstance(a, str) or isinstance(b, str)):
                return _bounded(_to_java_string(a) + _to_java_string(b), span)
            raise UnsupportedForEvaluation(span, f"{op} on non-int operands")
        return binary

    def e_Call(self, e):
        recv, method, span, n = e.receiver, e.method, e.span, len(e.args)
        args = tuple(self.expr(a) for a in e.args)
        if isinstance(recv, Name) and not any(recv.id in names for names, _ in self.scopes):
            if recv.id == "Math":
                if n not in MATH_BUILTINS.get(method, ()):
                    raise UnsupportedForEvaluation(span, f"Math.{method}/{n}")
                return lambda f: _math(method, span, [a(f) for a in args])
            if recv.id not in self.classes:
                raise UnsupportedForEvaluation(span, f"unknown receiver {recv.id!r}")
            recv = None
        if recv is None:
            target = self.methods.get(method)
            if target is None:
                raise UnsupportedForEvaluation(span, f"unresolved call {method!r}")
            if n != len(target.params):
                raise UnsupportedForEvaluation(target.span, "argument arity mismatch")
            callee = self.callee(target)
            return lambda f: _invoke(callee, f[0], [a(f) for a in args])
        if n not in STRING_BUILTINS.get(method, ()):
            raise UnsupportedForEvaluation(span, f"method {method!r} with {n} arguments")
        receiver = self.expr(recv)

        def call(f):
            s = receiver(f)
            if s is None:
                raise _Stop(NULL_POINTER)
            if not isinstance(s, str):
                raise UnsupportedForEvaluation(span, f"method call on {type(s).__name__}")
            return _string_method(method, span, s, [a(f) for a in args])
        return call


@contextmanager
def _stack_room():
    """Raise the recursion limit out of MAX_CALL_DEPTH's way while compiling
    or running: each interpreted call costs several Python frames."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# (id(method), id(context)) -> (method, context, _Method or the rejection),
# least recently used first; holding the keys keeps their ids from reuse.
_COMPILED: dict[tuple[int, int], tuple] = {}
_COMPILED_SIZE = 2  # a trial evaluates the original and then the variant


def _compile(m: MethodDecl, context: SourceFile | None) -> _Method:
    key = (id(m), id(context))
    entry = _COMPILED.pop(key, None)  # put back below as the most recent
    if entry is None:
        try:
            with _stack_room():
                entry = (m, context, _Compiler(context).compile(m))
        except UnsupportedForEvaluation as exc:
            entry = (m, context, exc)
        if len(_COMPILED) >= _COMPILED_SIZE:
            del _COMPILED[next(iter(_COMPILED))]
    _COMPILED[key] = entry
    return _unless_rejected(entry[2])


def _unless_rejected(result):
    """result, or a fresh copy of it raised if it is a stored rejection."""
    if isinstance(result, UnsupportedForEvaluation):
        raise UnsupportedForEvaluation(result.span, result.detail)
    return result


def ensure_supported(m: MethodDecl, context: SourceFile | None = None) -> None:
    """Raise UnsupportedForEvaluation unless the method compiles."""
    _compile(m, context)


def is_supported(m: MethodDecl, context: SourceFile | None = None) -> bool:
    try:
        ensure_supported(m, context)
        return True
    except UnsupportedForEvaluation:
        return False


def evaluate(
    m: MethodDecl,
    args: list,
    fuel: int = DEFAULT_FUEL,
    context: SourceFile | None = None,
) -> Outcome:
    """Run a method on concrete argument values; deterministic and total.
    Each distinct (fuel, typed arguments) runs once per compiled method."""
    method = _compile(m, context)
    if len(args) != len(m.params):
        raise UnsupportedForEvaluation(m.span, "argument arity mismatch")
    key = (fuel, *((type(a), a) for a in args))  # 1 == True, but x + 1 takes only 1
    if key not in method.outcomes:
        with _stack_room():
            try:
                outcome = Returned(_invoke(method, [fuel, 0], list(args)))
            except _Stop as stop:
                outcome = Threw(*stop.args) if stop.args else OutOfFuel()
            except UnsupportedForEvaluation as exc:
                outcome = exc
        method.outcomes[key] = outcome
    return _unless_rejected(method.outcomes[key])


# ---------------------------------------------------------------------------
# Differential checking
# ---------------------------------------------------------------------------

_INT_POOL = (0, 1, -1, 2, -2, 3, 5, 7, 10, -10, 100, INT_MAX, INT_MIN)
_STRING_ALPHABET = "ab/."


def _gen_value(type_name: str, rng: random.Random):
    if type_name == "int":
        if rng.random() < 0.7:
            return rng.choice(_INT_POOL)
        return rng.randint(-20, 20)
    if type_name == "boolean":
        return rng.random() < 0.5
    if type_name == "String":
        if rng.random() < 0.125:
            return None
        n = rng.randint(0, 4)
        return "".join(rng.choice(_STRING_ALPHABET) for _ in range(n))
    raise ValueError(f"no argument generator for type {type_name!r}")


def generate_args(params, seed: int, trial: int) -> list:
    rng = random.Random(seed * 1_000_003 + trial)
    return [_gen_value(p.type_name, rng) for p in params]


def check_equivalence(
    m1: MethodDecl,
    m2: MethodDecl,
    trials: int = 100,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
    context1: SourceFile | None = None,
    context2: SourceFile | None = None,
) -> EquivalenceVerdict:
    """Differentially test two methods over seeded random argument vectors.

    equivalent: all trials produced equal outcomes. diverged: first mismatch
    recorded as a counterexample. inconclusive: some trial ran out of fuel in
    either method and no mismatch was seen elsewhere. m2 is not run on a trial
    where m1 ran out of fuel, so a run-time UnsupportedForEvaluation that m2
    would raise only on such a trial does not surface.
    """
    if len(m1.params) != len(m2.params):
        raise UnsupportedForEvaluation(m1.span, "parameter arity mismatch")
    for p1, p2 in zip(m1.params, m2.params):
        if p1.type_name != p2.type_name:
            raise UnsupportedForEvaluation(p1.span, "parameter type mismatch")
    ensure_supported(m1, context1)
    ensure_supported(m2, context2)

    saw_fuel = False
    for trial in range(trials):
        args = generate_args(m1.params, seed, trial)
        o1 = evaluate(m1, args, fuel, context1)
        if isinstance(o1, OutOfFuel):  # nothing to compare m2 with
            saw_fuel = True
            continue
        o2 = evaluate(m2, args, fuel, context2)
        if isinstance(o2, OutOfFuel):
            saw_fuel = True
            continue
        if o1 != o2:
            return EquivalenceVerdict(DIVERGED, trials, Counterexample(tuple(args), o1, o2))
    return EquivalenceVerdict(INCONCLUSIVE if saw_fuel else EQUIVALENT, trials)
