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
of Computation Process", 1971). Compiling rejects, on every path: parameter
types other than int/boolean/String, throw, new, field access, assignment to
a non-name, names that denote no parameter or local (static fields among
them), calls that resolve to no builtin or same-file method, unknown
receivers, and break/continue outside a loop or switch. `C.f(...)` resolves
in class C and an unqualified `f(...)` in the caller's class, to the overload
taking that many arguments; two such overloads are rejected, never guessed
between. Running raises UnsupportedForEvaluation only for type confusions,
string index errors, strings over MAX_STRING_LENGTH and a read of a
switch-case local whose case was jumped over and that nothing has assigned
since. Fuel is charged once per statement (an if's then block and a loop
body are not statements) and once per loop test; exhausting it, or nesting
over MAX_CALL_DEPTH calls, gives OutOfFuel.

Method k of a program becomes `def m<k>(v1, ..., F, D)`: parameters and
locals are slot variables numbered in the order the compiler meets them, F
is the fuel left and D the call depth. Each statement is preceded by
`if (F := F - 1) < 0: _oof()`, and a loop charges in its `while` test. A Java
call is one Python call, `m<j>(a, b, F, D + 1)`, which checks D on entry and
returns (value, F), so 200 nested calls run inside Python's default
recursion limit. A call of a leaf, a method whose body is one `return e;`
and whose e calls no same-file method, is written in place instead: the
arguments go into fresh slots (a slot read that nothing assigns before e
reads it stands in for its parameter), `D < 200 and (F := F - 1) >= 0` does
what the leaf does on entry, and then e runs, compiled in the leaf's scope.
A leaf that is only reached this way is not emitted as a function. If e does
not compile, the call stays a call, so the leaf rejects where it always
did. A local that redeclares a name in scope is rejected, as javac rejects
it (JLS 6.4). An operator evaluates each operand once, in Java order,
through walrus temporaries; two ints take an inline path, and any other
operands go to a helper that concatenates strings, wraps, or rejects. A
switch is a one-pass `while True:` whose cases are `if start <= i:` blocks,
so fall-through and break need nothing more; a continue that leaves a switch
sets a flag tested after it. A for loop's update is repeated before each
continue that targets it.

A method is compiled for its declared types (Chambers and Ungar's
customization, "Customization: Optimizing Compiler Technology for SELF",
PLDI 1989). The typed program gives a kind, int or boolean, to each slot it
can prove holds one whenever it is read: an int or boolean parameter, a
local whose initializer has a kind (a switch local's guarded read too), a
leaf's argument slot, and the result of a call of a same-file int or
boolean method whose body ends in a return. A read of such a slot drops its
type test; an operator on two ints tests neither and reads neither again,
and only a result out of range goes to _wrap32. Java gives each local one
type, so no dataflow is needed: each assumption is checked where it could
break (each store into a kinded slot, each argument of a call that is not
written in place, each return of a method a call reads the result of), and
a break compiles the untyped program, every test in place, instead.
evaluate runs the typed program on arguments of the declared Python types
(SUPPORTED_PARAM_TYPES), as every drawn trial has, and compiles the untyped
program the first time an argument has another type.

CPython compiles at most 200 nested parentheses, 100 indentation levels and
20 nested loops in one function. The compiler stays inside them by
construction: an expression or statement nested past a budget moves into a
helper defined at the top of its method, which shares the method's
variables through `nonlocal` and hands a Java return, break or continue back
to its caller as its return value.

No Java name, span or comment enters the text. Callees are numbers, literals
the repr of an int, bool, str or None, and a switch's label table a dict
literal. Where running can reject, the text holds a site number that indexes
the program's own (span, detail) table. So the text is a nameless key
(de Bruijn's nameless terms, used for hash-consing): a consistently renamed
program, such as a record's rename variant, gets its original's text, while
a renaming that captured a name resolves to other slots and gets another.
Each distinct text is compiled once and kept, with the outcome memo of every
program of that text, in a small LRU cache. The memo is keyed by fuel and
by each argument's type and value, so a method run again on the same inputs
(the original of a record, against each of its variants) is not
re-executed. A run-time rejection is memoised as its site number and raised
with the spans and names of the program that asks. check_equivalence does
not run the second method on a trial where the first ran out of fuel, as
there is nothing to compare. It takes each trial's arguments from a small
module cache keyed by (parameter types, seed, trials), filled from
generate_args, so the checks of a record's variants, which share the
original's parameter types, share one draw. The vectors are tuples, so no
caller can alter a later check's arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import UnsupportedForEvaluation
from .nodes import (DEFAULT_LABEL, INT_MAX, INT_MIN, Assign, Expr, For, Literal,
                    MethodDecl, Name, Return, SourceFile, Switch, While, walk)

DEFAULT_TRIALS = 100
DEFAULT_FUEL = 10_000
MAX_CALL_DEPTH = 200
MAX_STRING_LENGTH = 100_000  # longer strings are outside the outcome model

# Builtin method -> the argument counts it takes.
STRING_BUILTINS = {"length": (0,), "substring": (1, 2), "startsWith": (1,), "equals": (1,),
                   "concat": (1,)}
MATH_BUILTINS = {"min": (2,), "max": (2,), "abs": (1,)}
# Supported parameter type -> the Python types of its values.
SUPPORTED_PARAM_TYPES = {"int": (int,), "boolean": (bool,), "String": (str, type(None))}

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
# What the generated code calls
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Ends an evaluation: Threw(*args), or OutOfFuel when args is empty."""


class _Reject(Exception):
    """Ends an evaluation with a run-time rejection. args: the site number and
    a detail, or None for the detail the site's table entry holds."""


class _Untyped(Exception):
    """Ends a typed compile at a type assumption the method breaks."""


_UNSET = object()  # a local of a switch whose declaring case was jumped over
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


def _ints(a, b, site) -> None:
    if type(a) is not int or type(b) is not int:
        raise _Reject(site, None)


def _on_ints(fn):
    """fn, once its two operands are checked to be ints."""
    def checked(a, b, site):
        _ints(a, b, site)
        return fn(a, b)
    return checked


# The paths an operator's inline code leaves for: an operand that is not an
# int, or a result outside the int range.

def _add(a, b, site):
    if type(a) is str or type(b) is str:
        return _bounded(_to_java_string(a) + _to_java_string(b), site)
    _ints(a, b, site)
    return _wrap32(a + b)


def _java_div(a: int, b: int) -> int:
    if b == 0:
        raise _Stop(ARITHMETIC)
    q = abs(a) // abs(b)
    return _wrap32(-q if (a < 0) != (b < 0) else q)


_sub = _on_ints(lambda a, b: _wrap32(a - b))
_mul = _on_ints(lambda a, b: _wrap32(a * b))
_div = _on_ints(_java_div)
_mod = _on_ints(lambda a, b: _wrap32(a - _java_div(a, b) * b))
_min, _max = _on_ints(min), _on_ints(max)


def _eq(left, right, site) -> bool:
    if left is None or right is None:
        if isinstance(left if right is None else right, (str, type(None))):
            return left is right
        raise _Reject(site, "null compared to a primitive")
    if type(left) is not type(right):
        raise _Reject(site, "comparison of unrelated types")
    # String == compares values here; the subset has no aliasing to observe.
    return left == right


def _switch(scrutinee, site):
    """Raises for a switch scrutinee that is not an int or a string."""
    if scrutinee is None:
        raise _Stop(NULL_POINTER)
    raise _Reject(site, None)


# A builtin that the compiler does not write inline runs `_<builtin>`; the
# Math ones take the site last, the string ones after the checked receiver.

def _abs(a, site):
    _ints(a, 0, site)
    return _wrap32(abs(a))


def _receiver(s, site) -> str:
    """s, once it is checked to be a string a method can be called on."""
    if type(s) is str:
        return s
    if s is None:
        raise _Stop(NULL_POINTER)
    raise _Reject(site, f"method call on {type(s).__name__}")


def _substring(s: str, site, begin, *end):
    end = end[0] if end else len(s)
    if type(begin) is not int or type(end) is not int:
        raise _Reject(site, "substring on non-int index")
    if not (0 <= begin <= end <= len(s)):
        raise _Reject(site, "string index out of range")
    return s[begin:end]


def _equals(s: str, other) -> bool:
    return isinstance(other, str) and s == other


def _string_argument(method: str, other, site) -> str:
    if not isinstance(other, str):
        if other is None:
            raise _Stop(NULL_POINTER)
        raise _Reject(site, f"{method} on non-string")
    return other


def _startsWith(s: str, site, other) -> bool:
    return s.startswith(_string_argument("startsWith", other, site))


def _concat(s: str, site, other) -> str:
    return _bounded(s + _string_argument("concat", other, site), site)


_ARITHMETIC_PATHS = {"+": "_add", "-": "_sub", "*": "_mul"}
_DIVISION_PATHS = {"/": ("//", "_div"), "%": ("%", "_mod")}
_COMPARISONS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_REJECTED = {"Throw": "throw statement", "New": "object allocation", "FieldAccess": "field access"}

# How deep the compiler nests one function's text before it moves the rest
# into a helper: CPython allows 200 nested parentheses, 100 indentation
# levels and 20 nested loops. An expression adds at most _EXPR_STEP
# parentheses around its operands.
_EXPR_BUDGET = 100
_EXPR_STEP = 4
_INDENT_BUDGET = 48
_LOOP_BUDGET = 16


# ---------------------------------------------------------------------------
# Compilation: a method is supported when it compiles
# ---------------------------------------------------------------------------


class _Program:
    """A compiled method and the same-file methods it calls: the text, the
    (span, detail) of each rejection site the text numbers and, once loaded,
    the text's top function and outcome memo, which every program of the
    same text shares. The memo maps (fuel, (type, value) per argument) to an
    outcome or to a rejection's (site, detail). A typed program runs only
    arguments of the Python types in `accepts`, one entry per parameter;
    `general` is its untyped program, once compiled."""

    def __init__(self, text: str, sites: list, accepts: tuple | None):
        self.text, self.sites, self.accepts = text, sites, accepts
        self.top, self.general = None, None
        self.outcomes: dict[tuple, object] = {}

    def runs(self, args) -> bool:
        return self.accepts is None or all(type(a) in t for a, t in zip(args, self.accepts))


class _E(NamedTuple):
    """An expression's Python text, and what its users need to know of it."""
    text: str
    depth: int = 0  # parentheses nested in the text
    pure: bool = False  # a literal, or a slot that cannot be unset: no effect, cannot raise
    writes: bool = False  # assigns a slot
    boolean: bool = False  # gives a bool or raises
    is_int: bool = False  # gives an int or raises
    literal: tuple = ()  # (value,) for a literal
    slot: int = 0  # the slot a pure slot read reads
    call: str = ""  # a same-file call, `m<j>(..., F, D + 1)`, which gives (value, F)


_TRUE = _E("True", pure=True, boolean=True, literal=(True,))
_ZERO = _E("0", pure=True, is_int=True, literal=(0,))


class _Target:
    """A Java loop or switch open in the function being written: a Python
    loop. A loop repeats its update before a continue; a switch sets its
    flag when a continue leaves it."""

    def __init__(self, update: str | None = None, flag: str | None = None):
        self.update, self.flag, self.crossed = update, flag, False


class _Function:
    """The Python function being written: a method's, or a helper's."""

    def __init__(self, helper: bool):
        self.helper = helper
        self.targets: list[_Target] = []  # innermost last
        self.escapes: set[str] = set()  # "break", "continue", "return" out of a helper


class _Compiler:
    """Compiles a method and the same-file methods it calls into the text of
    one Python function each. Scopes mirror Java blocks and map names to
    slots; a switch's locals are read with a check, as their declaring case
    may have been jumped over. A typed compile reads a slot of known kind
    without a type test, and raises _Untyped where the method breaks one of
    the assumptions that give the kinds."""

    def __init__(self, context: SourceFile | None, typed: bool = False):
        self.typed = typed
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
        # id(method) -> the kinds its returns give; -> the kind a call read its result as
        self.returned: dict[int, set] = {}
        self.relied: dict[int, str] = {}
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
        if any(self.returned[i] != {kind} for i, kind in self.relied.items()):
            raise _Untyped()  # a call read the result of a method that returns something else
        return _Program("".join(self.tables + [self.texts[n] for n in sorted(self.texts)]),
                        self.sites, tuple(SUPPORTED_PARAM_TYPES[p.type_name] for p in top.params)
                        if self.typed else None)

    def method(self, m: MethodDecl, number: int) -> str:
        self.scopes = [({p.name: i for i, p in enumerate(m.params, 1)}, False)]
        # slot -> "int" or "boolean", what it holds whenever it is read
        self.kinds = {i: self.declared(p.type_name) for i, p in enumerate(m.params, 1)}
        self.returns = self.returned.setdefault(id(m), set())
        self.size, self.loops, self.temps = 1 + len(m.params), 0, 0
        self.out, self.indent, self.fn = [], 1, _Function(helper=False)
        self.helpers: list[tuple[str, list[str]]] = []
        self.block(m.body)
        slots = [f"v{i}" for i in range(1, self.size)]
        head = [f"def m{number}({', '.join([*slots[:len(m.params)], 'F', 'D'])}):",
                f" if D > {MAX_CALL_DEPTH}: _oof()"]
        if self.helpers:  # nonlocal needs every slot bound in the method
            if len(slots) > len(m.params):
                head.append(" " + " = ".join(slots[len(m.params):]) + " = None")
            for name, body in self.helpers:
                head += [f" def {name}():", f"  nonlocal {', '.join([*slots, 'F'])}", *body]
        return "\n".join([*head, *self.out, " return VOID, F\n"])

    def home(self, m: MethodDecl) -> str | None:
        """The class of a method that is not itself in the context (such as
        a rewritten variant checked against its original's file): the one
        class declaring a method of its name and parameter types, if any."""
        signature = [p.type_name for p in m.params]
        homes = {cls for (cls, name), overloads in self.methods.items() if name == m.name
                 and any([p.type_name for p in o.params] == signature for o in overloads)}
        return homes.pop() if len(homes) == 1 else None

    def result_kind(self, m: MethodDecl) -> str | None:
        """What a call of m gives in a typed compile: an int or boolean
        method's value, when its body ends in a return, so that every path
        out of it is a return, whose kind s_Return records."""
        stmts = m.body.stmts
        return self.declared(m.return_type) if stmts and isinstance(stmts[-1], Return) else None

    def declared(self, type_name: str | None) -> str | None:
        """The kind a typed compile gives a value of a declared type."""
        return type_name if self.typed and type_name in ("int", "boolean") else None

    def holds(self, slot: int, value: _E) -> None:
        """Gives a slot that a declaration or a leaf's entry fills with value
        the kind of value; check() holds every later store to it."""
        self.kinds[slot] = _kind(value) if self.typed else None

    def check(self, kind: str | None, value: _E) -> None:
        """value where something of `kind` (None: anything) is assumed."""
        if kind is not None and kind != _kind(value):
            raise _Untyped()

    def target(self, cls: str | None, method: str, n: int, span) -> MethodDecl:
        """The method of `cls` named `method` that takes `n` arguments."""
        overloads = self.methods.get((cls, method))
        if overloads is None:
            raise UnsupportedForEvaluation(span, f"unresolved call {method!r}")
        fitting = [m for m in overloads if len(m.params) == n]
        if not fitting:
            raise UnsupportedForEvaluation(overloads[0].span, "argument arity mismatch")
        if len(fitting) > 1:
            raise UnsupportedForEvaluation(span, f"ambiguous call {method!r} with {n} arguments")
        return fitting[0]

    def resolve(self, node, name: str) -> tuple[int, bool]:
        """The slot `name` denotes here, and whether it may be unset."""
        for names, in_switch in reversed(self.scopes):
            if name in names:
                return names[name], in_switch
        raise UnsupportedForEvaluation(node.span, f"unbound name {name!r}")

    def reject(self, node):
        kind = type(node).__name__
        raise UnsupportedForEvaluation(node.span, _REJECTED.get(kind, kind))

    def site(self, span, detail: str | None) -> int:
        """A number for a place that may reject at run time."""
        self.sites.append((span, detail))
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
                isinstance(s, (While, For, Switch)) and len(self.fn.targets) >= _LOOP_BUDGET):
            self.hoist(emit, s)
        else:
            emit(s)

    def hoist(self, emit, s) -> None:
        """Write s as a helper of its own, and call it here."""
        outer = self.out, self.indent, self.fn
        self.out, self.indent, self.fn = [], 2, _Function(helper=True)
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
        if self.fn.targets:
            self.line("break")
        else:
            self.fn.escapes.add("break")
            self.line("return _BREAK")

    def emit_continue(self) -> None:
        if not self.fn.targets:
            self.fn.escapes.add("continue")
            self.line("return _CONTINUE")
            return
        target = self.fn.targets[-1]
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

    def charged(self, stmts) -> None:
        """Statements in order, each charged one unit of fuel."""
        for s in stmts:
            self.line("if (F := F - 1) < 0: _oof()")
            self.stmt(s)

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
        names = self.scopes[-1][0]
        for d in s.declarators:  # each initializer sees the declarators before it
            if any(d.name in bound for bound, _ in self.scopes):  # JLS 6.4
                raise UnsupportedForEvaluation(d.span, f"variable {d.name!r} is already defined")
            init = self.expr(d.init) if d.init is not None else _E("None")
            names[d.name], self.size = self.size, self.size + 1
            self.holds(names[d.name], init)
            self.line(self.store(names[d.name], init))

    def store(self, slot: int, value: _E) -> str:
        return f"v{slot}, F = {value.call}" if value.call else f"v{slot} = {value.text}"

    def s_ExprStmt(self, s):
        self.line(self.effect(s.expr))

    def effect(self, e) -> str:
        """A statement evaluating e for its effect."""
        if isinstance(e, Assign):
            return self.store(*self.assignment(e))
        x = self.expr(e)
        return f"F = {x.call}[1]" if x.call else x.text

    def s_If(self, s):
        test = self.truth(s.cond)
        self.line(f"if {test.text}:")
        self.nested(self.block, s.then)
        # The then block runs uncharged; an else branch is a charged statement.
        if s.orelse is not None:
            self.line("else:")
            self.nested(self.charged, (s.orelse,))

    def loop(self, test: _E, body, update: str | None) -> None:
        """While and for: charge, test, body, update."""
        charge = "(F := F - 1) >= 0 or _oof()"
        self.line(f"while {charge}:" if test.literal == (True,) else
                  f"while ({charge}) and {test.text}:")
        self.fn.targets.append(_Target(update=update))
        self.loops += 1
        def each_pass():
            self.block(body)
            if update is not None:
                self.line(update)
        self.nested(each_pass)
        self.loops -= 1
        self.fn.targets.pop()

    def s_While(self, s):
        self.loop(self.truth(s.cond), s.body, None)

    def s_For(self, s):
        self.scopes.append(({}, False))
        if s.init is not None:
            self.charged((s.init,))
        test = self.truth(s.cond) if s.cond is not None else _TRUE
        self.loop(test, s.body, self.effect(s.update) if s.update is not None else None)
        self.scopes.pop()

    def s_Switch(self, s):
        scrutinee = self.expr(s.scrutinee)
        site = self.site(s.span, "switch scrutinee type")
        # label value -> the index of its case's first statement among the
        # switch's statements; where the default starts, else past the last
        starts: dict[object, int] = {}
        stmts, default = [], None
        for case in s.cases:
            for label in case.labels:
                if label == DEFAULT_LABEL:
                    default = len(stmts)
                elif isinstance(label, Literal):  # int or String, never equal across types
                    starts.setdefault(label.value, len(stmts))
            stmts += case.body
        default = len(stmts) if default is None else default
        table = f"T{len(self.tables)}"
        self.tables.append(f"{table} = {starts!r}\n")
        start, (first, again) = self.temp(), self.operand(scrutinee)
        self.line(f"{start} = {table}.get({again}, {default}) if type({first}) is int "
                  f"or type({again}) is str else _switch({again}, {site})")
        # A statement runs when the switch starts at its case or an earlier
        # one: `if start <= i:` from each place a case can start.
        entries, base = {0, default, *starts.values()}, self.indent
        self.scopes.append(({}, True))
        target = _Target(flag=self.temp())
        self.fn.targets.append(target)
        outer, self.out = self.out, []
        for i, stmt in enumerate(stmts):
            if i in entries:
                self.indent = base + 1
                self.line(f"if {start} <= {i}:")
                self.indent += 1
            self.charged((stmt,))
        self.indent = base + 1
        self.line("break")
        self.indent = base
        self.fn.targets.pop()
        body, self.out = self.out, outer
        declared = [f"v{slot}" for slot in self.scopes.pop()[0].values()]
        if declared:
            self.line(" = ".join(declared) + " = _UNSET")
        if target.crossed:
            self.line(f"{target.flag} = False")
        self.line("while True:")
        self.out += body
        if target.crossed:
            self.line(f"if {target.flag}:")
            self.nested(self.emit_continue)

    def s_Return(self, s):
        value = self.expr(s.value) if s.value is not None else _E("VOID")
        self.returns.add(_kind(value))
        if s.value is None:
            self.emit_return("VOID")
            return
        if value.call and not self.fn.helper:
            self.line(f"return {value.call}")
        else:
            self.emit_return(value.text)

    def s_Break(self, s):
        if not (self.loops or any(in_switch for _, in_switch in self.scopes)):
            raise UnsupportedForEvaluation(s.span, "break/continue escaped the method")
        self.emit_break()

    def s_Continue(self, s):
        if not self.loops:
            raise UnsupportedForEvaluation(s.span, "break/continue escaped the method")
        self.emit_continue()

    # -- expressions --

    def expr(self, e) -> _E:
        x = getattr(self, "e_" + type(e).__name__, self.reject)(e)
        if x.depth <= _EXPR_BUDGET:
            return x
        # Too deep to nest in another expression: a helper returns it.
        return _E(f"{self.helper([f'  return {x.text}'])}()", 1, writes=x.writes,
                  boolean=x.boolean, is_int=x.is_int)

    def operand(self, x: _E, later_writes: bool = False) -> tuple[str, str]:
        """The text that evaluates x where Java does, and the text that reads
        its value afterwards. A slot read is repeated unless something
        evaluated in between may assign a slot."""
        if x.pure and (x.literal or not later_writes):
            return x.text, x.text
        t = self.temp()
        return f"({t} := {x.text})", t

    def truth(self, e) -> _E:
        x = self.expr(e)
        if x.boolean:
            return x
        site = self.site(e.span, "condition is not boolean")
        first, again = self.operand(x)
        return _E(f"({again} if type({first}) is bool else _fail({site}))", x.depth + 3,
                  writes=x.writes, boolean=True)

    def e_Literal(self, e):
        v = e.value
        text = f"({v})" if type(v) is int and v < 0 else repr(v)
        return _E(text, 1, pure=True, boolean=type(v) is bool, is_int=type(v) is int,
                  literal=(v,))

    def e_Name(self, e):
        slot, maybe_unset = self.resolve(e, e.id)
        kind = self.kinds.get(slot)  # what the slot holds once it is set
        if not maybe_unset:
            return _E(f"v{slot}", pure=True, slot=slot, boolean=kind == "boolean",
                      is_int=kind == "int")
        site = self.site(e.span, f"unbound name {e.id!r}")
        return _E(f"(v{slot} if v{slot} is not _UNSET else _fail({site}))", 1,
                  boolean=kind == "boolean", is_int=kind == "int")

    def assignment(self, e) -> tuple[int, _E]:
        """The slot an assignment sets, and its value. A switch local whose
        case was jumped over may be assigned, as in Java (JLS 6.3, ch. 16)."""
        if not isinstance(e.target, Name):
            raise UnsupportedForEvaluation(e.span, "compound assignment target")
        value = self.expr(e.value)
        slot = self.resolve(e, e.target.id)[0]
        self.check(self.kinds.get(slot), value)
        return slot, value

    def e_Assign(self, e):
        slot, value = self.assignment(e)
        return _E(f"(v{slot} := {value.text})", value.depth + 2, writes=True,
                  boolean=value.boolean, is_int=value.is_int)

    def e_Unary(self, e):
        x = self.expr(e.operand)
        if e.op == "-":  # wraps as 0 - x does
            return self.binary("-", _ZERO, x, self.site(e.span, "- on non-int"))
        if x.boolean:
            return _E(f"(not {x.text})", x.depth + 1, writes=x.writes, boolean=True)
        first, again = self.operand(x)
        site = self.site(e.span, "! on non-boolean")
        return _E(f"(not {again} if type({first}) is bool else _fail({site}))", x.depth + 3,
                  writes=x.writes, boolean=True)

    def e_Ternary(self, e):
        test, a, b = self.truth(e.cond), self.expr(e.if_true), self.expr(e.if_false)
        return _E(f"({a.text} if {test.text} else {b.text})",
                  max(test.depth, a.depth, b.depth) + 1, writes=test.writes or a.writes or b.writes,
                  boolean=a.boolean and b.boolean, is_int=a.is_int and b.is_int)

    def e_Binary(self, e):
        op = e.op
        if op in ("&&", "||"):
            left, right = self.truth(e.left), self.truth(e.right)
            return _E(f"({left.text} {'and' if op == '&&' else 'or'} {right.text})",
                      max(left.depth, right.depth) + 1, writes=left.writes or right.writes,
                      boolean=True)
        left, right = self.expr(e.left), self.expr(e.right)
        if op not in _ARITHMETIC_PATHS and op not in _DIVISION_PATHS and op not in _COMPARISONS:
            raise UnsupportedForEvaluation(e.span, f"operator {op}")
        return self.binary(op, left, right, self.site(e.span, f"{op} on non-int operands"))

    def binary(self, op: str, left: _E, right: _E, site: int) -> _E:
        writes, depth = left.writes or right.writes, max(left.depth, right.depth) + _EXPR_STEP
        if left.is_int and right.is_int and op not in _DIVISION_PATHS:
            # Python evaluates the operands in Java order, and only a result
            # past the int range is left to fix: nothing is read again.
            value = f"{left.text} {op} {right.text}"
            if op in _COMPARISONS:
                return _E(f"({value})", depth, writes=writes, boolean=True)
            r = self.temp()
            return _E(f"({r} if {_in_range(op, right, f'({r} := {value})')} else _wrap32({r}))",
                      depth, writes=writes, is_int=True)
        lf, la = self.operand(left, right.writes)
        rf, ra = self.operand(right)
        tests = [_int_test(left, lf), _int_test(right, rf)]
        if op in _ARITHMETIC_PATHS:
            r = self.temp()
            tests.append(_in_range(op, right, f"({r} := {la} {op} {ra})"))
            return _E(f"({r} if {_all(tests, left, right)} else "
                      f"{_ARITHMETIC_PATHS[op]}({la}, {ra}, {site}))", depth, writes=writes,
                      is_int=op != "+")
        if op in _DIVISION_PATHS:
            py_op, path = _DIVISION_PATHS[op]
            # Python's // and % are Java's on a dividend >= 0 and a divisor > 0.
            signs = [(left, f"{la} >= 0", 0), (right, f"{ra} > 0", 1)]
            if any(_is_int(x) is not None and _is_int(x) < low for x, _, low in signs):
                return _E(f"{path}({lf}, {rf}, {site})", depth, writes=writes, is_int=True)
            tests += [test for x, test, _ in signs if _is_int(x) is None]
            return _E(f"({la} {py_op} {ra} if {_all(tests, left, right)} else "
                      f"{path}({la}, {ra}, {site}))", depth, writes=writes, is_int=True)
        if op in ("==", "!="):  # these compare any two values
            slow = f"{'' if op == '==' else 'not '}_eq({la}, {ra}, {site})"
        else:
            slow = f"_fail({site})"
        return _E(f"({la} {op} {ra} if {_all(tests, left, right)} else {slow})", depth,
                  writes=writes, boolean=True)

    def e_Call(self, e):
        recv, method, span, n = e.receiver, e.method, e.span, len(e.args)
        args = [self.expr(a) for a in e.args]
        writes = any(a.writes for a in args)
        depth = max((a.depth for a in args), default=0) + _EXPR_STEP
        cls = self.cls  # an unqualified call names a method of the caller's class
        if isinstance(recv, Name) and not any(recv.id in names for names, _ in self.scopes):
            if recv.id == "Math":
                if n not in MATH_BUILTINS.get(method, ()):
                    raise UnsupportedForEvaluation(span, f"Math.{method}/{n}")
                site = self.site(span, "Math builtin on non-int")
                return _E(f"_{method}({', '.join(a.text for a in args)}, {site})",
                          depth, writes=writes, is_int=True)
            if recv.id not in self.classes:
                raise UnsupportedForEvaluation(span, f"unknown receiver {recv.id!r}")
            cls, recv = recv.id, None
        if recv is None:
            if self.inlining:  # a leaf that calls a same-file method may recurse
                raise UnsupportedForEvaluation(span, "same-file call in a leaf")
            target = self.target(cls, method, n, span)
            inlined = self.inline(target, args)
            if inlined is not None:
                return inlined
            for p, a in zip(target.params, args):  # what the callee assumes of its parameters
                self.check(self.declared(p.type_name), a)
            number = self.callee(target)
            call = f"m{number}({''.join(a.text + ', ' for a in args)}F, D + 1)"
            t = self.temp()
            kind = self.result_kind(target)
            if kind is not None:
                self.relied[id(target)] = kind
            return _E(f"((F := ({t} := {call})[1]) is None or {t}[0])", depth, writes=writes,
                      boolean=kind == "boolean", is_int=kind == "int", call=call)
        if n not in STRING_BUILTINS.get(method, ()):
            raise UnsupportedForEvaluation(span, f"method {method!r} with {n} arguments")
        site = self.site(span, None)
        receiver = self.expr(recv)
        depth, writes = max(depth, receiver.depth + _EXPR_STEP), writes or receiver.writes
        if method == "length":
            first, again = self.operand(receiver)
            return _E(f"(len({again}) if type({first}) is str else _receiver({again}, {site}))",
                      depth, writes=writes, is_int=True)
        checked = f"_receiver({receiver.text}, {site})"
        if method == "equals":
            return _E(f"_equals({checked}, {args[0].text})", depth, writes=writes, boolean=True)
        return _E(f"_{method}({checked}, {site}, "
                  f"{', '.join(a.text for a in args)})", depth, writes=writes,
                  boolean=method == "startsWith")

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
        20(9), 1977): the arguments in order, then what m does on entry (the
        depth test, one unit of fuel for its return statement), then its e,
        compiled in m's scope and class. A pure slot read stands in for its
        parameter when no later argument and not e assign it; any other
        argument is stored in a fresh slot. None when m is not a leaf, or e
        calls a same-file method or does not compile: the call then runs m,
        which rejects where it did."""
        e = self.leaf(m)
        if e is None:
            return None
        assigned = {a.target.id for a in walk(e) if isinstance(a, Assign)
                    and isinstance(a.target, Name)}
        before = len(self.sites), len(self.helpers), self.size, self.temps
        slots, entry = {}, []
        for i, (p, a) in enumerate(zip(m.params, args)):
            if a.slot and p.name not in assigned and not any(
                    later.writes for later in args[i + 1:]):
                slots[p.name] = a.slot
            else:  # `is` only orders the store before the tests after it
                slots[p.name], self.size = self.size, self.size + 1
                self.holds(slots[p.name], a)
                entry.append(f"(v{slots[p.name]} := {a.text}) is v{slots[p.name]}")
        entry += [f"D < {MAX_CALL_DEPTH}", "(F := F - 1) >= 0"]
        outer = self.scopes, self.cls
        self.scopes, self.cls, self.inlining = [(slots, False)], self.owner[id(m)], True
        try:
            x = self.expr(e)
        except UnsupportedForEvaluation:
            sites, helpers, self.size, self.temps = before
            del self.sites[sites:], self.helpers[helpers:]
            self.leaves[id(m)] = None
            return None
        finally:
            self.scopes, self.cls, self.inlining = *outer, False
        return _E(f"({x.text} if {' and '.join(entry)} else _oof())",
                  max([x.depth, *(a.depth + 1 for a in args)]) + 1,
                  writes=any(a.writes for a in args), boolean=x.boolean, is_int=x.is_int)


def _kind(x: _E) -> str | None:
    """The kind of a typed compile's slot that x may be stored in."""
    return "int" if x.is_int else "boolean" if x.boolean else None


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


def _int_test(x: _E, first: str) -> str:
    """A test that an operand is an int, which evaluates it where first does
    more than read it again."""
    if not x.is_int:
        return f"type({first}) is int"
    return "" if first == x.text else f"{first} is not None"


def _all(tests: list[str], left: _E, right: _E) -> str:
    """The conjunction of an operator's tests, which evaluates both operands
    in Java order even when the left one is no int. The first two test the
    left and the right operand (see _int_test)."""
    left_test, right_test, *rest = tests
    if left_test and right_test and not right.pure:
        if left.pure and not right.writes:  # the left slot reads the same after the right
            tests = [right_test, left_test, *rest]
        else:  # `&` does not short-circuit past the right operand
            tests = [f"({left_test}) & ({right_test})", *rest]
    return " and ".join(t for t in tests if t) or "True"


# text -> (its top function, the outcome memo of its programs), least
# recently used first. A record compiles two texts, as its rename variant
# has the original's and its both variant the structure variant's; a larger
# cache would hit only across records, and costs memory.
_CODE: dict[str, tuple] = {}
_CODE_SIZE = 2


def _lru(cache: dict, size: int, key, make, *args):
    """cache[key], made by make(*args) when missing; `cache` keeps the `size`
    keys used last, least recently used first."""
    entry = cache.pop(key, None)  # put back below as the most recent
    if entry is None:
        entry = make(*args)
        if len(cache) >= size:
            del cache[next(iter(cache))]
    cache[key] = entry
    return entry


def _load(text: str) -> tuple:
    """The top function `text` defines, and an empty outcome memo. The text
    finds what it calls (VOID, _oof, _add, _<builtin>, ...) among this
    module's globals; its own names (m0, T0, ...) go into a copy of them."""
    namespace = dict(globals())
    exec(compile(text, "<vmorph oracle>", "exec"), namespace)
    return namespace["m0"], {}


# (id(method), id(context)) -> (method, context, _Program or the rejection),
# least recently used first; holding the keys keeps their ids from reuse.
_COMPILED: dict[tuple[int, int], tuple] = {}
_COMPILED_SIZE = 2  # a trial evaluates the original and then the variant


def _compile(m: MethodDecl, context: SourceFile | None) -> _Program:
    entry = _lru(_COMPILED, _COMPILED_SIZE, (id(m), id(context)), _compile_entry, m, context)
    if isinstance(entry[2], UnsupportedForEvaluation):
        raise UnsupportedForEvaluation(entry[2].span, entry[2].detail)  # a fresh copy
    return entry[2]


def _compile_entry(m: MethodDecl, context: SourceFile | None) -> tuple:
    """The typed program of m, or its untyped one where m breaks a type
    assumption; or the rejection."""
    try:
        try:
            program = _Compiler(context, typed=True).compile(m)
        except _Untyped:
            program = _Compiler(context).compile(m)
    except UnsupportedForEvaluation as exc:
        return m, context, exc
    return m, context, _loaded(program)


def _loaded(program: _Program) -> _Program:
    program.top, program.outcomes = _lru(_CODE, _CODE_SIZE, program.text, _load, program.text)
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
    """Run a method on concrete argument values; deterministic and total.
    Each distinct (fuel, typed arguments) runs once per compiled text: the
    typed program's, or the untyped program's for arguments of other types
    than the parameters declare."""
    program = _compile(m, context)
    if len(args) != len(m.params):
        raise UnsupportedForEvaluation(m.span, "argument arity mismatch")
    key = (fuel, *((type(a), a) for a in args))  # 1 == True, but x + 1 takes only 1
    outcome = program.outcomes.get(key)
    if outcome is None and not program.runs(args):
        if program.general is None:
            program.general = _loaded(_Compiler(context).compile(m))
        program = program.general
        outcome = program.outcomes.get(key)
    if outcome is None:
        outcome = program.outcomes[key] = _run(program, args, fuel)
    if type(outcome) is tuple:  # a rejection, raised with this program's span and names
        site, detail = outcome
        span, own = program.sites[site]
        raise UnsupportedForEvaluation(span, detail or own)
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
    rng = random.Random(seed * 1_000_003 + trial)
    return [_gen_value(p.type_name, rng) for p in params]


# (parameter type names, seed, trials) -> each trial's arguments as a tuple,
# least recently used first. The methods of a record share their parameter
# types, so its checks draw the arguments once.
_TRIAL_ARGS: dict[tuple, tuple] = {}
_TRIAL_ARGS_SIZE = 4


def _trial_args(params, seed: int, trials: int) -> tuple:
    return _lru(_TRIAL_ARGS, _TRIAL_ARGS_SIZE, (tuple(p.type_name for p in params), seed, trials),
                _draw_args, params, seed, trials)


def _draw_args(params, seed: int, trials: int) -> tuple:
    return tuple(tuple(generate_args(params, seed, t)) for t in range(trials))


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
    for args in _trial_args(m1.params, seed, trials):
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
