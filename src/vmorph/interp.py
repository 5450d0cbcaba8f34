"""Deterministic interpreter and differential equivalence checker.

A desk-scale stand-in for running a project's test suite: evaluate a method
on concrete arguments under 32-bit Java integer semantics, then compare the
original and transformed methods over seeded random inputs.

Supported values are 32-bit ints, booleans, strings, and null. Calls are
limited to a small builtin set (string length/substring/startsWith/equals/
concat, Math.min/max/abs) plus static methods defined in the same file. The
outcome model knows exactly ArithmeticException and NullPointerException.

"Supported" means "compiles": a method and the same-file methods it calls
are compiled once into Python source, one function per method, which is the
interpreter partially evaluated on the program (Futamura, "Partial Evaluation
of Computation Process", 1971). Compiling rejects, on every path:
parameter, local and return types other than int/boolean/String (a return
type may be void), throw, new, field access (an assigned field too),
names that denote no parameter or local (static fields among them), calls
that resolve to no builtin or same-file method, unknown receivers,
break/continue outside a loop or switch, a statement that follows one that
cannot complete normally (`nodes.jumps`) in its block or case (javac's
"unreachable statement"), a non-void method whose body can (javac's
"missing return statement"), and every ill-typed expression (see below).
`C.f(...)` resolves in class C and an unqualified `f(...)` in the caller's
class, to the overload taking that many arguments; two such overloads are
rejected, never guessed between. evaluate rejects an
argument that is not of its parameter's type (SUPPORTED_PARAM_TYPES) before
anything runs. Running raises UnsupportedForEvaluation only for string index
errors, strings over MAX_STRING_LENGTH, and a read of a local that nothing
has assigned (one declared without an initializer, or a switch-case local
whose case was jumped over). Fuel is charged once per statement (an if's
then block and a loop body are not statements) and once per loop test;
exhausting it, or nesting over MAX_CALL_DEPTH calls, gives OutOfFuel.

Method k of a program becomes `def m<k>(v1, ..., F, D)`: parameters and
locals are slot variables numbered in the order the compiler meets them, F
is the fuel left and D the call depth. Each statement is preceded by
`if (F := F - 1) < 0: _oof()`, and a loop charges in its `while` test. A
counted loop, whose test is `c < b` or `c <= b` with step `c = c + 1` (or
`>`, `>=` and `c - 1`; a for's update, else the body's last statement) on
int slots that nothing else in the loop assigns, is preceded by
`if (T) * k >= F: _oof()`: T is the passes it makes at least, b - c (one
more for `<=`), and k its test plus its body's statements, what a pass
charges at least. It is written only where nothing in the body can end
the run but fuel (no jump, call that is not written in place, division
that can throw, String method, concatenation or switch, or checked read),
so a loop that lacks the fuel ends OutOfFuel at once, as it would have
after T passes, and one that has it runs as before: the outcome at every
fuel is the same. A Java call is one Python call,
`m<j>(a, b, F, D + 1)`, which checks D on entry and returns (value, F), so
200 nested calls run inside Python's default recursion limit. Wherever the
value goes, it is read by one expression,
`((F := (t := m<j>(a, b, F, D + 1))[1]) is None or t[0])`. A call of a
leaf, a method whose body is one `return e;` and whose e calls no
same-file method, is written in place instead: each argument goes into a
fresh slot, `D < 200 and (F := F - 1) >= 0` does what the leaf does on
entry, and then e runs, compiled in the leaf's scope.
A leaf that is only reached this way is not emitted as a function. If e does
not compile, the call stays a call, so the leaf rejects where it always
did. A local that redeclares a name in scope is rejected, as javac rejects
it (JLS 6.4). An operator evaluates each operand once, in Java order. An
operation that can throw is one call of its runtime helper (_div, _mod,
_length, _substring, ...), and the text holds no inline null or sign test. A
switch is a one-pass `while True:` whose cases are `if start <= i:` blocks,
so fall-through and break need nothing more; a continue that leaves a switch
sets a flag tested after it. A for loop's update is repeated before each
continue that targets it.

Compiling checks types as javac does for the subset (JLS ch. 15). Its types
are int, boolean, String, the null type and void. Every parameter and local
has its declared type, and a `var` local its initializer's. Each store,
argument, return value, condition, operand, switch label and receiver is
checked against the type its place needs, and an ill-typed method is
rejected at its first ill-typed expression, with both types named. A
well-typed program cannot reach a type confusion (Milner, "A Theory of Type
Polymorphism in Programming", JCSS 1978), so the text tests no value's type:
an operator on two ints reads each once and only a result out of range goes
to _wrap32, `+` with a String operand concatenates, and a comparison with
`null` is an identity test.

CPython compiles at most 200 nested parentheses, 100 indentation levels and
20 nested loops in one function. The compiler stays inside them by
construction: an expression or statement nested past a budget moves into a
helper defined at the top of its method, which shares the method's
variables through `nonlocal` and hands a Java return, break or continue back
to its caller as its return value.

No Java name, span or source comment enters the text. Callees are numbers,
literals the repr of an int, bool, str or None, and a switch's label table
a dict literal. Where running can reject, the text holds a site number that
indexes the program's own (node, detail) table; the node's span is read
only when a rejection is raised. So the text is a nameless key (de Bruijn's
nameless terms, used for hash-consing): a consistently renamed program,
such as a record's rename variant, gets its original's text, while a
renaming that captured a name resolves to other slots and gets another.
The two programs compiled last are kept. A text is loaded once while any
program of it is held, and its programs share one outcome memo, keyed by
fuel and by each argument's type and value, so a method run again on the
same inputs (the original of a record, against each of its variants) is not
re-executed. A run-time rejection is memoised as its site number and raised
with the spans and names of the program that asks. check_equivalence does
not run the second method on a trial where the first ran out of fuel, as
there is nothing to compare. The last four draws of trial arguments are
kept, keyed by (parameter types, seed, trials), so the checks of a record's
variants, which share the original's parameter types, share the draw that
generate_args gives. The vectors are tuples, so no caller can alter a later
check's arguments.
"""

from __future__ import annotations

import functools
import random
import weakref
from typing import NamedTuple, Optional, Union

from .errors import UnsupportedForEvaluation
from .nodes import (DEFAULT_LABEL, INT_MAX, INT_MIN, Assign, Binary, Expr, ExprStmt, For,
                    Literal, MethodDecl, Name, Return, SourceFile, Switch, While, frozen,
                    jumps, walk)

DEFAULT_TRIALS = 100
DEFAULT_FUEL = 10_000
MAX_CALL_DEPTH = 200
MAX_STRING_LENGTH = 100_000  # longer strings are outside the outcome model

# Builtin method -> the argument counts it takes, the type of each of its
# arguments, and the type of its value. Any value but void may be passed to
# equals, which takes an Object.
STRING_BUILTINS = {"length": ((0,), None, "int"), "substring": ((1, 2), "int", "String"),
                   "startsWith": ((1,), "String", "boolean"),
                   "equals": ((1,), "Object", "boolean"), "concat": ((1,), "String", "String")}
MATH_BUILTINS = {"min": ((2,), "int", "int"), "max": ((2,), "int", "int"),
                 "abs": ((1,), "int", "int")}
_NO_BUILTIN = ((), None, None)
# Supported parameter type -> the Python types of its values.
SUPPORTED_PARAM_TYPES = {"int": (int,), "boolean": (bool,), "String": (str, type(None))}

ARITHMETIC = "ArithmeticException"
NULL_POINTER = "NullPointerException"


class _Void:
    def __repr__(self):
        return "void"


VOID = _Void()


@frozen
class Returned:
    value: object  # an int, bool, str or None, or VOID


@frozen
class Threw:
    kind: str  # ArithmeticException | NullPointerException


@frozen
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


@frozen
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


@frozen
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
# What the generated code calls
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Ends an evaluation: Threw(*args), or OutOfFuel when args is empty."""


class _Reject(Exception):
    """Ends an evaluation with a run-time rejection. args: the site number and
    a detail, or None for the detail the site's table entry holds."""


_UNSET = object()  # a local that nothing has assigned yet
# What a helper returns for a Java break or continue that leaves it.
_BREAK, _CONTINUE = object(), object()


def _oof():
    raise _Stop()


def _fail(site):
    raise _Reject(site, None)


def _wrap32(v: int) -> int:
    return (v + 2**31) % 2**32 - 2**31


def _to_java_string(v) -> str:
    return ("true" if v else "false") if isinstance(v, bool) else "null" if v is None else str(v)


def _bounded(s: str, site) -> str:
    if len(s) > MAX_STRING_LENGTH:
        raise _Reject(site, f"string longer than {MAX_STRING_LENGTH}")
    return s


def _cat(a, b, site) -> str:
    """String concatenation, `+` with a String operand."""
    return _bounded(_to_java_string(a) + _to_java_string(b), site)


def _div(a: int, b: int) -> int:
    """Java's /: rounds toward zero (JLS 15.17.2); only INT_MIN / -1 leaves the int range."""
    if b == 0:
        raise _Stop(ARITHMETIC)
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    return q if q != 2**31 else INT_MIN


def _mod(a: int, b: int) -> int:
    """Java's %: the remainder takes the dividend's sign (JLS 15.17.3)."""
    if b == 0:
        raise _Stop(ARITHMETIC)
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# A builtin is a call of `_<builtin>`. The String ones take the receiver
# first and check it for null on entry, after Python has evaluated every
# argument (JLS 15.12.4); substring and concat then take a site, where they
# can reject.
_min, _max = min, max


def _abs(a: int) -> int:
    return _wrap32(abs(a))


def _deref(s: str | None) -> str:
    """s, once it is checked not to be null."""
    if s is None:
        raise _Stop(NULL_POINTER)
    return s


def _length(s: str | None) -> int:
    if s is None:
        raise _Stop(NULL_POINTER)
    return len(s)


def _substring(s: str | None, site, begin: int, *end: int) -> str:
    s = _deref(s)
    end = end[0] if end else len(s)
    if not (0 <= begin <= end <= len(s)):
        raise _Reject(site, "string index out of range")
    return s[begin:end]


def _equals(s: str | None, other) -> bool:
    s = _deref(s)
    return isinstance(other, str) and s == other


def _startsWith(s: str | None, other) -> bool:
    return _deref(s).startswith(_deref(other))


def _concat(s: str | None, site, other) -> str:
    return _bounded(_deref(s) + _deref(other), site)


# The subset's types are its declared ones (SUPPORTED_PARAM_TYPES), the type
# of `null`, and void, what a void method's call gives.
_NULL = "<null>"
_LITERAL_TYPES = {"int": "int", "boolean": "boolean", "string": "String", "null": _NULL}
_DIVISION = {"/": "_div", "%": "_mod"}
_COMPARISONS = frozenset({"<", "<=", ">", ">=", "==", "!="})
# A counted loop's test -> the operator of its step, and the passes it makes
# beyond the bound minus the counter (see _Compiler.trips).
_COUNTED = {"<": ("+", 0), "<=": ("+", 1), ">": ("-", 0), ">=": ("-", 1)}
_ONE = Literal(1, "int")
_LOGICAL = {"&&": "and", "||": "or"}
_IDENTITY = {"==": "is", "!=": "is not"}
_OPERATORS = frozenset({"+", "-", "*", *_DIVISION, *_COMPARISONS, *_LOGICAL})
_REJECTED = {"Throw": "throw statement", "New": "object allocation", "FieldAccess": "field access"}

# How deep the compiler nests one function's text before it moves the rest
# into a helper: CPython allows 200 nested parentheses, 100 indentation
# levels and 20 nested loops. An expression adds at most _EXPR_STEP
# parentheses around its operands.
_EXPR_BUDGET = 100
_EXPR_STEP = 4
_INDENT_BUDGET = 48
_LOOP_BUDGET = 16


def _assignable(want: str, found: str) -> bool:
    """Whether a value of type found may be stored where want is declared
    (JLS 5.2, for this subset)."""
    return found == want or (found == _NULL and want == "String") or (
        want == "Object" and found != "void")


def _assigned(nodes) -> set[str]:
    """The names that an assignment inside the trees `nodes` sets."""
    return {a.target.id for node in nodes for a in walk(node)
            if isinstance(a, Assign) and isinstance(a.target, Name)}


# ---------------------------------------------------------------------------
# Compilation: a method is supported when it compiles
# ---------------------------------------------------------------------------


class _Program:
    """A compiled method and the same-file methods it calls: the text and
    the (node, detail) of each rejection site the text numbers. Once
    loaded, it holds its text's _Loaded and, for a run to read at once,
    that one's top function and outcome memo, which every program of the
    same text shares."""

    def __init__(self, text: str, sites: list):
        self.text, self.sites = text, sites


class _E(NamedTuple):
    """An expression's Python text, its type, the parentheses nested in the
    text, and its value if it is a literal. Every expression, a same-file
    call's too, is written as one Python expression that gives its value."""
    text: str
    type: str
    depth: int = 0  # parentheses nested in the text
    literal: tuple = ()  # (value,) for a literal


_TRUE = _E("True", "boolean")
_ZERO = _E("0", "int", literal=(0,))


class _Target:
    """A Java loop or switch open where the compiler writes: a Python loop.
    A loop (flag None) repeats its update before a continue; a switch sets
    its flag when a continue leaves it."""

    def __init__(self, update: str | None = None, flag: str | None = None):
        self.update, self.flag, self.crossed = update, flag, False


class _Function:
    """The Python function being written: a method's, or a helper's. The
    first `base` targets of the method's stack are open outside it, so a
    jump to one of them leaves the function."""

    def __init__(self, helper: bool, base: int):
        self.helper, self.base = helper, base
        self.escapes: set[str] = set()  # "break", "continue", "return" out of a helper


class _Compiler:
    """Checks the types of a method and the same-file methods it calls, and
    compiles them into the text of one Python function each. Scopes mirror
    Java blocks and map names to slots; a local that may be read before
    anything assigns it (a switch's, or one declared without an initializer)
    is read with a check."""

    def __init__(self, context: SourceFile | None):
        types = context.types if context is not None else ()
        self.classes = {cls.name for cls in types}
        # (class name, method name) -> its overloads; id(method) -> class name
        self.methods: dict[tuple[str, str], list[MethodDecl]] = {}
        self.owner: dict[int, str] = {}
        for cls in types:
            for m in cls.methods:
                if not m.is_constructor():
                    self.methods.setdefault((cls.name, m.name), []).append(m)
                    self.owner[id(m)] = cls.name
        self.numbers: dict[int, int] = {}  # id(method) -> its number, in the order first met
        self.leaves: dict[int, Expr | None] = {}  # id(method) -> its e, if it is a leaf
        self.inlining = False  # while a leaf's e is compiled in place
        self.pending: list[tuple[MethodDecl, int]] = []
        self.texts: dict[int, str] = {}
        self.tables: list[str] = []
        self.sites: list[tuple] = []

    def callee(self, m: MethodDecl) -> int:
        """m's number; m is compiled once the caller is."""
        if id(m) not in self.numbers:
            self.numbers[id(m)] = len(self.numbers)
            self.pending.append((m, self.numbers[id(m)]))
        return self.numbers[id(m)]

    def compile(self, top: MethodDecl) -> _Program:
        self.callee(top)
        while self.pending:
            m, number = self.pending.pop()
            self.cls = self.owner.get(id(m)) or self.home(m)
            for p in m.params:
                if p.type_name not in SUPPORTED_PARAM_TYPES:
                    raise UnsupportedForEvaluation(p.span, f"parameter type {p.type_name!r}")
            self.texts[number] = self.method(m, number)
        return _Program("".join([*self.tables, *(self.texts[n] for n in sorted(self.texts))]),
                        self.sites)

    def method(self, m: MethodDecl, number: int) -> str:
        self.result = m.return_type or "void"  # a constructor returns nothing
        if self.result != "void" and self.result not in SUPPORTED_PARAM_TYPES:
            raise UnsupportedForEvaluation(m.span, f"return type {self.result!r}")
        self.scopes = [({p.name: i for i, p in enumerate(m.params, 1)}, False)]
        self.types = {i: p.type_name for i, p in enumerate(m.params, 1)}  # slot -> its type
        self.guarded: set[int] = set()  # slots read with a check that they are set
        self.size, self.temps = 1 + len(m.params), 0
        self.stops = False  # see loop()
        self.targets: list[_Target] = []  # the open loops and switches, innermost last
        self.out, self.indent, self.fn = [], 1, _Function(helper=False, base=0)
        self.helpers: list[tuple[str, list[str]]] = []
        self.block(m.body)
        if self.result != "void" and not jumps(m.body):  # javac's JLS 8.4.7 check
            brace = m.body.span._replace(start_line=m.body.span.end_line,
                                         start_col=m.body.span.end_col)
            raise UnsupportedForEvaluation(brace, "missing return statement")
        slots = [f"v{i}" for i in range(1, self.size)]
        head = [f"def m{number}({', '.join([*slots[:len(m.params)], 'F', 'D'])}):",
                f" if D > {MAX_CALL_DEPTH}: _oof()"]
        if self.helpers:  # nonlocal needs every slot bound in the method
            if len(slots) > len(m.params):
                head.append(" " + " = ".join(slots[len(m.params):]) + " = None")
            for name, body in self.helpers:
                head += [f" def {name}():", f"  nonlocal {', '.join([*slots, 'F'])}", *body]
        end = [" return VOID, F"] if self.result == "void" else []
        return "\n".join([*head, *self.out, *end]) + "\n"

    def home(self, m: MethodDecl) -> str | None:
        """The class of a method that is not itself in the context (such as
        a rewritten variant checked against its original's file): the one
        class declaring a method of its name and parameter types, if any."""
        signature = [p.type_name for p in m.params]
        homes = {cls for (cls, name), overloads in self.methods.items() if name == m.name
                 and any([p.type_name for p in o.params] == signature for o in overloads)}
        return homes.pop() if len(homes) == 1 else None

    def expect(self, x: _E, want: str, node) -> _E:
        """x, the value of node, where a value of type want is needed."""
        if not _assignable(want, x.type):
            raise UnsupportedForEvaluation(
                node.span, f"incompatible types: {x.type} cannot be converted to {want}")
        return x

    def target(self, cls: str | None, method: str, n: int, call) -> MethodDecl:
        """The method of `cls` named `method` that `call` makes with `n` arguments."""
        overloads = self.methods.get((cls, method))
        if overloads is None:
            raise UnsupportedForEvaluation(call.span, f"unresolved call {method!r}")
        fitting = [m for m in overloads if len(m.params) == n]
        if not fitting:
            raise UnsupportedForEvaluation(overloads[0].span, "argument arity mismatch")
        if len(fitting) > 1:
            raise UnsupportedForEvaluation(call.span,
                                           f"ambiguous call {method!r} with {n} arguments")
        return fitting[0]

    def resolve(self, node, name: str) -> int:
        """The slot `name` denotes here."""
        for names, _ in reversed(self.scopes):
            if name in names:
                return names[name]
        raise UnsupportedForEvaluation(node.span, f"unbound name {name!r}")

    def reject(self, node):
        kind = type(node).__name__
        raise UnsupportedForEvaluation(node.span, _REJECTED.get(kind, kind))

    def site(self, node, detail: str | None) -> int:
        """A number for a place that may reject at run time."""
        self.stops = True
        self.sites.append((node, detail))
        return len(self.sites) - 1

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def line(self, text: str) -> None:
        self.out.append(" " * self.indent + text)

    def helper(self, body: list[str]) -> str:
        """The name of a new helper of the method, with body at indent 2."""
        self.helpers.append((f"h{len(self.helpers)}", body))
        return self.helpers[-1][0]

    # -- statements --

    def stmt(self, s):
        emit = getattr(self, "s_" + type(s).__name__, None)
        if emit is None:
            self.reject(s)
        if self.indent > _INDENT_BUDGET or (
                isinstance(s, (While, For, Switch))
                and len(self.targets) - self.fn.base >= _LOOP_BUDGET):
            self.hoist(emit, s)
        else:
            emit(s)

    def hoist(self, emit, s) -> None:
        """Write s as a helper of its own, and call it here."""
        outer = self.out, self.indent, self.fn
        self.out, self.indent, self.fn = [], 2, _Function(helper=True, base=len(self.targets))
        emit(s)
        body, escapes = self.out or ["  pass"], self.fn.escapes
        self.out, self.indent, self.fn = outer
        name = self.helper(body)
        if not escapes:
            self.line(f"{name}()")
            return
        t = self.temp()
        self.line(f"if ({t} := {name}()) is not None:")
        self.indent += 1
        # A break or continue ends in a jump, so each case stands alone.
        for kind, write in (("break", self.emit_break), ("continue", self.emit_continue)):
            if kind in escapes:
                self.line(f"if {t} is _{kind.upper()}:")
                self.nested(write)
        if "return" in escapes:
            self.emit_return(f"{t}[0]")
        self.indent -= 1

    def emit_break(self) -> None:
        if len(self.targets) > self.fn.base:
            self.line("break")
        else:
            self.fn.escapes.add("break")
            self.line("return _BREAK")

    def emit_continue(self) -> None:
        if len(self.targets) == self.fn.base:
            self.fn.escapes.add("continue")
            self.line("return _CONTINUE")
            return
        target = self.targets[-1]
        if target.flag is not None:  # leave the switch, then continue after it
            target.crossed = True
            self.line(f"{target.flag} = True")
            self.line("break")
            return
        if target.update is not None:
            self.line(target.update)
        self.line("continue")

    def emit_return(self, value: str) -> None:
        if self.fn.helper:
            self.fn.escapes.add("return")
            self.line(f"return ({value},)")
        else:
            self.line(f"return {value}, F")

    def charged(self, stmts, before=None) -> None:
        """Statements in order, each charged one unit of fuel. javac rejects
        a statement that follows one that cannot complete normally as
        unreachable (JLS 14.22); `before` is the one before the first."""
        for s in stmts:
            if jumps(before):
                raise UnsupportedForEvaluation(s.span, "unreachable statement")
            self.line("if (F := F - 1) < 0: _oof()")
            self.stmt(s)
            before = s

    def nested(self, emit, *args) -> None:
        """What emit(*args) writes, one level deeper; `pass` if nothing."""
        self.indent += 1
        written = len(self.out)
        emit(*args)
        if len(self.out) == written:
            self.line("pass")
        self.indent -= 1

    def block(self, b):
        self.scopes.append(({}, False))
        self.charged(b.stmts)
        self.scopes.pop()

    s_Block = block

    def s_LocalVarDecl(self, s):
        type_name = s.type_name
        if type_name != "var" and type_name not in SUPPORTED_PARAM_TYPES:
            raise UnsupportedForEvaluation(s.span, f"local variable type {type_name!r}")
        names, in_switch = self.scopes[-1]
        for d in s.declarators:  # each initializer sees the declarators before it
            if any(d.name in bound for bound, _ in self.scopes):  # JLS 6.4
                raise UnsupportedForEvaluation(d.span, f"variable {d.name!r} is already defined")
            if d.init is None:  # read with a check until assigned (JLS ch. 16)
                init = _E("_UNSET", type_name)
            elif type_name == "var":  # JLS 14.4.1
                init = self.expr(d.init)
                if init.type in (_NULL, "void"):
                    raise UnsupportedForEvaluation(
                        d.init.span, f"cannot infer a type for {d.name!r} from {init.type}")
            else:
                init = self.expect(self.expr(d.init), type_name, d.init)
            names[d.name], self.size = self.size, self.size + 1
            self.types[names[d.name]] = init.type if type_name == "var" else type_name
            if in_switch or d.init is None:
                self.guarded.add(names[d.name])
            self.line(f"v{names[d.name]} = {init.text}")

    def s_ExprStmt(self, s):
        self.line(self.effect(s.expr))

    def effect(self, e) -> str:
        """A statement evaluating e for its effect."""
        if isinstance(e, Assign):
            slot, value = self.assignment(e)
            return f"v{slot} = {value.text}"
        return self.expr(e).text

    def condition(self, e) -> _E:
        return self.expect(self.expr(e), "boolean", e)

    def s_If(self, s):
        test = self.condition(s.cond)
        self.line(f"if {test.text}:")
        self.nested(self.block, s.then)
        # The then block runs uncharged; an else branch is a charged statement.
        if s.orelse is not None:
            self.line("else:")
            self.nested(self.charged, (s.orelse,))

    def loop(self, test: _E, body, update: str | None, passes: str | None) -> None:
        """While and for: charge, test, body, update. `passes` is the text of
        T, the passes a counted loop makes at least (see trips()), or None.
        Each pass charges k = 1 + len(body.stmts) units at least: its test
        and each statement of the body. When nothing in the body can end the
        run but fuel (self.stops stays False), a test before the loop ends
        it OutOfFuel at once if T * k >= F: the T passes and the test after
        them would charge more than the F units left, so the loop would run
        out of fuel anyway (Gupta, "Optimizing Array Bound Checks Using Flow
        Analysis", LOPLAS 2(1-4), 1993, hoists a check the same way). F is
        never negative there, so a T of 0 or less fires only at F == 0,
        where the first test runs out too."""
        at, outer, self.stops = len(self.out), self.stops, False
        self.line(f"while ((F := F - 1) >= 0 or _oof()) and {test.text}:")
        self.targets.append(_Target(update=update))
        def each_pass():
            self.block(body)
            if update is not None:
                self.line(update)
        self.nested(each_pass)
        self.targets.pop()
        if passes is not None and not self.stops:
            self.out.insert(at, f"{' ' * self.indent}if ({passes}) * {1 + len(body.stmts)} "
                            ">= F: _oof()")
        self.stops = self.stops or outer

    def trips(self, loop) -> str | None:
        """The text of T for a counted while or for loop, else None. Its step
        is a for's update, else its body's last statement, which loop()'s k
        counts as any other. A loop is counted when its test is `c < b` or
        `c <= b` and its step `c = c + 1`, or the test is `c > b` or `c >= b`
        and the step `c = c - 1`; c is an int slot, b an int literal or slot,
        neither read with a check, and no other statement of the body
        assigns either. It then passes T = b - c times (c - b counting down),
        one more for `<=` or `>=`, where c may also wrap past INT_MAX or
        INT_MIN and pass on: T is a lower bound."""
        cond, stmts = loop.cond, loop.body.stmts
        step, others = getattr(loop, "update", None), stmts  # a while has no update
        if step is None and stmts and isinstance(stmts[-1], ExprStmt):
            step, others = stmts[-1].expr, stmts[:-1]
        if not isinstance(cond, Binary) or cond.op not in _COUNTED:
            return None
        (sign, more), c, b = _COUNTED[cond.op], cond.left, cond.right
        if not (isinstance(c, Name) and isinstance(b, (Name, Literal))
                and step == Assign(c, Binary(sign, c, _ONE))):
            return None
        if {x.id for x in (c, b) if isinstance(x, Name)} & _assigned(others):
            return None
        texts = []
        for x in (c, b):
            if isinstance(x, Literal):
                texts.append(self.e_Literal(x).text)
            elif (slot := self.resolve(x, x.id)) in self.guarded:
                return None
            else:
                texts.append(f"v{slot}")
        low, high = texts if sign == "+" else reversed(texts)
        return f"{high} - {low}{' + 1' if more else ''}"

    def s_While(self, s):
        self.loop(self.condition(s.cond), s.body, None, self.trips(s))

    def s_For(self, s):
        self.scopes.append(({}, False))
        if s.init is not None:
            self.charged((s.init,))
        test = self.condition(s.cond) if s.cond is not None else _TRUE
        self.loop(test, s.body, self.effect(s.update) if s.update is not None else None,
                  self.trips(s))
        self.scopes.pop()

    def s_Switch(self, s):
        scrutinee = self.expr(s.scrutinee)
        if scrutinee.type != "String":  # JLS 14.11: the subset switches on int or String
            self.expect(scrutinee, "int", s.scrutinee)
        # label value -> the index of its case's first statement among the
        # switch's statements; where the default starts, else past the last.
        # Each statement comes with the one before it in its case, if any.
        starts: dict[object, int] = {}
        stmts, default = [], None
        for case in s.cases:
            for label in case.labels:
                if label == DEFAULT_LABEL:
                    default = len(stmts)
                else:
                    self.expect(self.expr(label), scrutinee.type, label)
                    starts.setdefault(label.value, len(stmts))
            stmts += zip((None, *case.body), case.body)
        default = len(stmts) if default is None else default
        table = f"T{len(self.tables)}"
        self.tables.append(f"{table} = {starts!r}\n")
        start, value = self.temp(), scrutinee.text
        if scrutinee.type == "String":  # a null scrutinee throws
            self.stops, value = True, f"_deref({value})"
        self.line(f"{start} = {table}.get({value}, {default})")
        # A statement runs when the switch starts at its case or an earlier
        # one: `if start <= i:` from each place a case can start.
        entries, base = {0, default, *starts.values()}, self.indent
        self.scopes.append(({}, True))
        target = _Target(flag=self.temp())
        self.targets.append(target)
        outer, self.out = self.out, []
        for i, (before, stmt) in enumerate(stmts):
            if i in entries:
                self.indent = base + 1
                self.line(f"if {start} <= {i}:")
                self.indent += 1
            self.charged((stmt,), before)
        self.indent = base + 1
        self.line("break")
        self.indent = base
        self.targets.pop()
        body, self.out = self.out, outer
        unset = [f"v{slot}" for slot in self.scopes.pop()[0].values()]
        if unset:
            self.line(" = ".join(unset) + " = _UNSET")
        if target.crossed:
            self.line(f"{target.flag} = False")
        self.line("while True:")
        self.out += body
        if target.crossed:
            self.line(f"if {target.flag}:")
            self.nested(self.emit_continue)

    def s_Return(self, s):
        self.stops = True
        if s.value is None:
            if self.result != "void":
                raise UnsupportedForEvaluation(s.span, "missing return value")
            self.emit_return("VOID")
            return
        value = self.expr(s.value)
        if self.result == "void":
            raise UnsupportedForEvaluation(s.value.span,
                                           "incompatible types: unexpected return value")
        self.expect(value, self.result, s.value)
        self.emit_return(value.text)

    def s_Break(self, s):
        self.stops = True
        if not self.targets:
            raise UnsupportedForEvaluation(s.span, "break/continue escaped the method")
        self.emit_break()

    def s_Continue(self, s):
        self.stops = True
        if all(target.flag for target in self.targets):  # no loop is open
            raise UnsupportedForEvaluation(s.span, "break/continue escaped the method")
        self.emit_continue()

    # -- expressions --

    def expr(self, e) -> _E:
        x = getattr(self, "e_" + type(e).__name__, self.reject)(e)
        if x.depth <= _EXPR_BUDGET:
            return x
        # Too deep to nest in another expression: a helper returns it.
        return _E(f"{self.helper([f'  return {x.text}'])}()", x.type, 1)

    def e_Literal(self, e):
        v = e.value
        text = f"({v})" if type(v) is int and v < 0 else repr(v)
        return _E(text, _LITERAL_TYPES[e.kind], 1, literal=(v,))

    def e_Name(self, e):
        slot = self.resolve(e, e.id)
        if slot not in self.guarded:
            return _E(f"v{slot}", self.types[slot])
        site = self.site(e, f"unbound name {e.id!r}")
        return _E(f"(v{slot} if v{slot} is not _UNSET else _fail({site}))", self.types[slot], 2)

    def assignment(self, e) -> tuple[int, _E]:
        """The slot an assignment sets, and its value. A local that may be
        unset may be assigned, as in Java (JLS 6.3, ch. 16)."""
        if not isinstance(e.target, Name):
            raise UnsupportedForEvaluation(e.span, "field access")
        value = self.expr(e.value)
        slot = self.resolve(e, e.target.id)
        return slot, self.expect(value, self.types[slot], e.value)

    def e_Assign(self, e):
        slot, value = self.assignment(e)
        return _E(f"(v{slot} := {value.text})", self.types[slot], value.depth + 2)

    def e_Unary(self, e):
        x = self.expr(e.operand)
        if e.op == "-":  # wraps as 0 - x does
            return self.binary("-", _ZERO, self.expect(x, "int", e.operand))
        self.expect(x, "boolean", e.operand)
        return _E(f"(not {x.text})", "boolean", x.depth + 1)

    def e_Ternary(self, e):
        test, a, b = self.condition(e.cond), self.expr(e.if_true), self.expr(e.if_false)
        t = a.type if _assignable(a.type, b.type) else b.type  # JLS 15.25, for the subset
        if t == "void" or not (_assignable(t, a.type) and _assignable(t, b.type)):
            raise UnsupportedForEvaluation(e.span,
                                           f"bad operand types for ?: {a.type} and {b.type}")
        return _E(f"({a.text} if {test.text} else {b.text})", t,
                  max(test.depth, a.depth, b.depth) + 1)

    def e_Binary(self, e):
        op, left, right = e.op, self.expr(e.left), self.expr(e.right)
        types = {left.type, right.type}
        if op not in _OPERATORS:
            raise UnsupportedForEvaluation(e.span, f"operator {op}")
        if types == {"int"} and op not in _LOGICAL:
            return self.binary(op, left, right)
        # Python evaluates the operands in Java order, and reads neither again.
        if op in _LOGICAL and types == {"boolean"}:
            text = f"({left.text} {_LOGICAL[op]} {right.text})"
        elif op == "+" and "String" in types and "void" not in types:  # JLS 15.18.1
            text = f"_cat({left.text}, {right.text}, {self.site(e, None)})"
        elif op in ("==", "!=") and (types == {"boolean"} or types <= {"String", _NULL}):
            # JLS 15.21: String == compares values here, as the subset has no
            # aliasing to observe; a comparison with null is an identity test,
            # except with a String literal, where CPython warns of `is`.
            identity = _NULL in types and not any(x.literal and x.type == "String"
                                                   for x in (left, right))
            text = f"({left.text} {_IDENTITY[op] if identity else op} {right.text})"
        else:
            raise UnsupportedForEvaluation(
                e.span, f"bad operand types for {op}: {left.type} and {right.type}")
        return _E(text, "String" if op == "+" else "boolean", max(left.depth, right.depth) + 1)

    def binary(self, op: str, left: _E, right: _E) -> _E:
        """An operator on two ints."""
        depth = max(left.depth, right.depth) + _EXPR_STEP
        if op in _DIVISION:
            self.stops = self.stops or _is_int(right) in (None, 0)
            return _E(f"{_DIVISION[op]}({left.text}, {right.text})", "int", depth)
        # Python evaluates the operands in Java order, and only a result past
        # the int range is left to fix: nothing is read again.
        value = f"{left.text} {op} {right.text}"
        if op in _COMPARISONS:
            return _E(f"({value})", "boolean", depth)
        r = self.temp()
        return _E(f"({r} if {_in_range(op, right, f'({r} := {value})')} else _wrap32({r}))",
                  "int", depth)

    def e_Call(self, e):
        recv, method, n = e.receiver, e.method, len(e.args)
        args = [self.expr(a) for a in e.args]
        depth = max((a.depth for a in args), default=0) + _EXPR_STEP
        cls = self.cls  # an unqualified call names a method of the caller's class
        if isinstance(recv, Name) and not any(recv.id in names for names, _ in self.scopes):
            if recv.id == "Math":
                counts, argument, value = MATH_BUILTINS.get(method, _NO_BUILTIN)
                if n not in counts:
                    raise UnsupportedForEvaluation(e.span, f"Math.{method}/{n}")
                self.arguments(args, e.args, [argument] * n)
                return _E(f"_{method}({', '.join(a.text for a in args)})", value, depth)
            if recv.id not in self.classes:
                raise UnsupportedForEvaluation(e.span, f"unknown receiver {recv.id!r}")
            cls, recv = recv.id, None
        if recv is None:
            if self.inlining:  # a leaf that calls a same-file method may recurse
                raise UnsupportedForEvaluation(e.span, "same-file call in a leaf")
            target = self.target(cls, method, n, e)
            # A parameter of another type is the callee's own rejection.
            self.arguments(args, e.args, [p.type_name if p.type_name in SUPPORTED_PARAM_TYPES
                                          else "Object" for p in target.params])
            inlined = self.inline(target, args)
            if inlined is not None:
                return inlined
            self.stops = True
            call = f"m{self.callee(target)}({''.join(a.text + ', ' for a in args)}F, D + 1)"
            t = self.temp()
            return _E(f"((F := ({t} := {call})[1]) is None or {t}[0])", target.return_type,
                      depth)
        counts, argument, value = STRING_BUILTINS.get(method, _NO_BUILTIN)
        if n not in counts:
            raise UnsupportedForEvaluation(e.span, f"method {method!r} with {n} arguments")
        self.stops = True  # a null receiver throws
        self.arguments(args, e.args, [argument] * n)
        receiver = self.expr(recv)
        if receiver.type != "String":
            raise UnsupportedForEvaluation(recv.span, f"{receiver.type} cannot be dereferenced")
        depth = max(depth, receiver.depth + _EXPR_STEP)
        at = f", {self.site(e, None)}" if method in ("substring", "concat") else ""
        return _E(f"_{method}({receiver.text}{at}{''.join(', ' + a.text for a in args)})",
                  value, depth)

    def arguments(self, args: list[_E], nodes, types: list[str]) -> None:
        for a, node, want in zip(args, nodes, types):
            self.expect(a, want, node)

    def leaf(self, m: MethodDecl) -> Expr | None:
        """The e of m's body when that body is exactly `return e;` and m takes
        only supported parameter types; else None. inline() gives up on an e
        that calls a same-file method."""
        if id(m) not in self.leaves:
            stmts = m.body.stmts
            e = stmts[0].value if len(stmts) == 1 and isinstance(stmts[0], Return) else None
            if any(p.type_name not in SUPPORTED_PARAM_TYPES for p in m.params):
                e = None
            self.leaves[id(m)] = e
        return self.leaves[id(m)]

    def inline(self, m: MethodDecl, args: list[_E]) -> _E | None:
        """A call of the leaf m written in place (Scheifler, "An Analysis of
        Inline Substitution for a Structured Programming Language", CACM
        20(9), 1977): each argument in order stored in a fresh slot, its
        parameter's, then what m does on entry (the depth test, one unit of
        fuel for its return statement), then its e, compiled in m's scope
        and class. None when m is not a leaf, or e calls a same-file method,
        does not compile or is not of m's return type: the call then runs m,
        which rejects where it did."""
        e = self.leaf(m)
        if e is None:
            return None
        before = len(self.sites), len(self.helpers), self.size, self.temps
        slots, entry = {}, []
        for p, a in zip(m.params, args):  # `is` only orders the store before the tests after it
            slots[p.name], self.size = self.size, self.size + 1
            self.types[slots[p.name]] = p.type_name
            entry.append(f"(v{slots[p.name]} := {a.text}) is v{slots[p.name]}")
        entry += [f"D < {MAX_CALL_DEPTH}", "(F := F - 1) >= 0"]
        outer = self.scopes, self.cls
        self.scopes, self.cls, self.inlining = [(slots, False)], self.owner[id(m)], True
        try:
            x = self.expr(e)
            if not _assignable(m.return_type, x.type):
                raise UnsupportedForEvaluation(e.span, "not of the return type")
        except UnsupportedForEvaluation:
            sites, helpers, self.size, self.temps = before
            del self.sites[sites:], self.helpers[helpers:]
            self.leaves[id(m)] = None
            return None
        finally:
            self.scopes, self.cls, self.inlining = *outer, False
        return _E(f"({x.text} if {' and '.join(entry)} else _oof())", m.return_type,
                  max([x.depth, *(a.depth + 1 for a in args)]) + 1)


def _is_int(x: _E) -> int | None:
    """The value of an int literal."""
    return x.literal[0] if x.literal and type(x.literal[0]) is int else None


def _in_range(op: str, right: _E, result: str) -> str:
    """A test that the result of int operands, op and right is an int: one
    side only where right is a literal that moves a sum one way."""
    low, high, c = f"{INT_MIN} <= ", f" <= {INT_MAX}", _is_int(right)
    if c is not None and op != "*":
        low, high = ("", high) if (op == "+") == (c >= 0) else (low, "")
    return f"{low}{result}{high}"


class _Loaded:
    """A loaded text: the namespace its functions live in, its top function
    and the outcome memo of its programs, which maps (fuel, (type, value)
    per argument) to an outcome or to a rejection's (site, detail). The
    text's programs hold it. The namespace holds the functions and is their
    `__globals__`, a reference cycle, so it is emptied when the last
    program goes, and the functions are freed without the cyclic
    collector."""

    def __init__(self, namespace: dict):
        self.namespace, self.top, self.outcomes = namespace, namespace["m0"], {}

    def __del__(self):
        self.namespace.clear()


# text -> its _Loaded, while a program of the text is held: a record's
# rename variant, compiled while its original is held, shares the original's.
_CODE = weakref.WeakValueDictionary()


def _load(text: str) -> _Loaded:
    """The loaded form of `text`. The text finds what it calls (VOID, _oof,
    _div, _<builtin>, ...) among this module's globals; its own names (m0,
    T0, ...) go into a copy of them."""
    namespace = dict(globals())
    exec(compile(text, "<vmorph oracle>", "exec"), namespace)
    return _Loaded(namespace)


# (id(method), id(context)) -> (method, context, _Program or the rejection),
# least recently used first; holding the keys keeps their ids from reuse.
_COMPILED: dict[tuple[int, int], tuple] = {}
_COMPILED_SIZE = 2  # a trial evaluates the original and then the variant


def _compile(m: MethodDecl, context: SourceFile | None) -> _Program:
    key = (id(m), id(context))
    entry = _COMPILED.pop(key, None)  # put back below as the most recent
    if entry is None:
        # Compiled before the oldest entry goes, so a text that entry's
        # program holds is still found: a record's both variant has the text
        # of the structure variant checked before it.
        entry = m, context, _compile_entry(m, context)
        if len(_COMPILED) >= _COMPILED_SIZE:
            del _COMPILED[next(iter(_COMPILED))]
    _COMPILED[key] = entry
    if isinstance(entry[2], UnsupportedForEvaluation):
        raise UnsupportedForEvaluation(entry[2].span, entry[2].detail)  # a fresh copy
    return entry[2]


def _compile_entry(m: MethodDecl,
                   context: SourceFile | None) -> _Program | UnsupportedForEvaluation:
    """The program of m, loaded, or the rejection."""
    try:
        program = _Compiler(context).compile(m)
    except UnsupportedForEvaluation as exc:
        return exc
    loaded = _CODE.get(program.text)
    if loaded is None:
        loaded = _CODE[program.text] = _load(program.text)
    program.loaded, program.top, program.outcomes = loaded, loaded.top, loaded.outcomes
    return program


def ensure_supported(m: MethodDecl, context: SourceFile | None = None) -> None:
    """Raise UnsupportedForEvaluation unless the method compiles."""
    _compile(m, context)


def is_supported(m: MethodDecl, context: SourceFile | None = None) -> bool:
    try:
        ensure_supported(m, context)
        return True
    except UnsupportedForEvaluation:
        return False


def _run(program: _Program, args, fuel: int):
    """One run of the program: an outcome, or a rejection's (site, detail)."""
    try:
        return Returned(program.top(*args, fuel, 1)[0])
    except _Stop as stop:
        return Threw(*stop.args) if stop.args else OutOfFuel()
    except _Reject as reject:
        return reject.args


def evaluate(
    m: MethodDecl,
    args: list,
    fuel: int = DEFAULT_FUEL,
    context: SourceFile | None = None,
) -> Outcome:
    """Run a method on concrete argument values of its declared types;
    deterministic and total. Each distinct (fuel, arguments) runs once per
    compiled text."""
    program = _compile(m, context)
    if len(args) != len(m.params):
        raise UnsupportedForEvaluation(m.span, "argument arity mismatch")
    for p, a in zip(m.params, args):
        if type(a) not in SUPPORTED_PARAM_TYPES[p.type_name]:
            raise UnsupportedForEvaluation(
                p.span, f"argument of type {type(a).__name__} for parameter type {p.type_name}")
    key = (fuel, *((type(a), a) for a in args))  # 1 == True, but an int parameter takes only 1
    outcome = program.outcomes.get(key)
    if outcome is None:
        outcome = program.outcomes[key] = _run(program, args, fuel)
    if type(outcome) is tuple:  # a rejection, raised with this program's span and names
        site, detail = outcome
        where, own = program.sites[site]
        raise UnsupportedForEvaluation(where.span, detail or own)
    return outcome

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
    return list(_draw(tuple(p.type_name for p in params), seed, trial))


def _draw(types: tuple, seed: int, trial: int) -> tuple:
    rng = random.Random(seed * 1_000_003 + trial)
    return tuple(_gen_value(t, rng) for t in types)


@functools.lru_cache(maxsize=4)
def _trial_args(types: tuple, seed: int, trials: int) -> tuple:
    """Each trial's arguments. The methods of a record share their
    parameter types, so its checks draw the arguments once."""
    return tuple(_draw(types, seed, t) for t in range(trials))


def check_equivalence(
    m1: MethodDecl,
    m2: MethodDecl,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    fuel: int = DEFAULT_FUEL,
    context1: SourceFile | None = None,
    context2: SourceFile | None = None,
) -> EquivalenceVerdict:
    """Differentially test two methods over seeded random argument vectors.

    equivalent: at least one trial, and every trial produced equal outcomes.
    diverged: first mismatch recorded as a counterexample. inconclusive: no
    trial was asked for, or some trial ran out of fuel in either method and
    no mismatch was seen elsewhere. m2 is not run on a trial
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
    for args in _trial_args(tuple(p.type_name for p in m1.params), seed, trials):
        o1 = evaluate(m1, args, fuel, context1)
        if isinstance(o1, OutOfFuel):  # nothing to compare m2 with
            saw_fuel = True
            continue
        o2 = evaluate(m2, args, fuel, context2)
        if isinstance(o2, OutOfFuel):
            saw_fuel = True
            continue
        if o1 != o2:
            return EquivalenceVerdict(DIVERGED, trials, Counterexample(args, o1, o2))
    return EquivalenceVerdict(EQUIVALENT if trials > 0 and not saw_fuel else INCONCLUSIVE, trials)
