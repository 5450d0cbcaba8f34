import random
from pathlib import Path

import pytest

# One line per acceptance criterion, printed after the run (see
# test_acceptance.py and pytest_terminal_summary below).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from vmorph.errors import (
    JavaSyntaxError,
    UnresolvedIdentifier,
    UnsupportedConstruct,
    UnsupportedForEvaluation,
)
from vmorph.nodes import (
    Assign,
    Binary,
    Block,
    Call,
    ExprStmt,
    If,
    Literal,
    LocalVarDecl,
    Declarator,
    Name,
    Span,
    Unary,
)
from vmorph.parser import parse

FIXTURES = Path(__file__).parent / "fixtures"
# The errors that hold a source position.
_POSITIONED_ERRORS = (JavaSyntaxError, UnsupportedConstruct, UnresolvedIdentifier,
                      UnsupportedForEvaluation)


@pytest.fixture(autouse=True)
def errors_carry_a_span(monkeypatch):
    """Every positioned error any test raises holds a real Span, not a
    node's undecoded position."""
    for cls in _POSITIONED_ERRORS:
        def checked(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            assert type(self.span) is Span, (type(self).__name__, self.span)
        monkeypatch.setattr(cls, "__init__", checked)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_files():
    """name -> parsed AST for every corpus fixture."""
    return {
        f.name: parse(f.read_text(), f.name)
        for f in sorted((FIXTURES / "corpus").glob("*.java"))
    }


@pytest.fixture(scope="session")
def all_fixture_sources():
    return {
        f.relative_to(FIXTURES).as_posix(): f.read_text()
        for f in sorted(FIXTURES.rglob("*.java"))
    }


def parse_method(body: str, params: str = "int x, int n, String s"):
    """Wrap a body in a one-method class and return the MethodDecl."""
    src = f"class Wrapper {{\n    static void run({params}) {{\n{body}\n    }}\n}}\n"
    return parse(src, "<test>").types[0].methods[0]


def parse_stmts(body: str, params: str = "int x, int n, String s"):
    return parse_method(body, params).body


# ---------------------------------------------------------------------------
# Seeded AST generators for the property suites
# ---------------------------------------------------------------------------

_NAMES = ("alpha", "beta", "gamma", "delta")
_METHODS = ("probe", "mark", "emit")
_SPAN = Span.synthetic()


def gen_condition(rng: random.Random, depth: int = 0):
    """Random boolean condition; never stacks two negations."""
    roll = rng.random()
    if roll < 0.3 or depth >= 2:
        return Binary(rng.choice(("<", "<=", ">", ">=", "==", "!=")),
                      Name(rng.choice(_NAMES), _SPAN),
                      Literal(rng.randint(-3, 3), "int", _SPAN), _SPAN)
    if roll < 0.5:
        return Name("flag", _SPAN)
    if roll < 0.7:
        inner = gen_condition(rng, depth + 1)
        if isinstance(inner, Unary):
            return inner.operand
        return Unary("!", inner, _SPAN)
    return Binary(rng.choice(("&&", "||")),
                  gen_condition(rng, depth + 1), gen_condition(rng, depth + 1), _SPAN)


def gen_simple_stmt(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return ExprStmt(Assign(Name(rng.choice(_NAMES), _SPAN),
                               Literal(rng.randint(0, 9), "int", _SPAN), _SPAN), (), _SPAN)
    return ExprStmt(Call(None, rng.choice(_METHODS),
                         (Name(rng.choice(_NAMES), _SPAN),), _SPAN), (), _SPAN)


def gen_block(rng: random.Random, max_stmts: int = 3) -> Block:
    return Block(tuple(gen_simple_stmt(rng) for _ in range(rng.randint(1, max_stmts))),
                 (), _SPAN)


def gen_if_else(rng: random.Random) -> If:
    return If(gen_condition(rng), gen_block(rng), gen_block(rng), (), _SPAN)


def gen_chain_stmt(rng: random.Random) -> Block:
    """A single-statement block holding a two-link call chain."""
    inner = Call(Name(rng.choice(_NAMES), _SPAN), rng.choice(("trim", "strip", "probe")),
                 (), _SPAN)
    outer = Call(inner, rng.choice(("length", "mark")),
                 tuple(Name(rng.choice(_NAMES), _SPAN) for _ in range(rng.randint(0, 2))),
                 _SPAN)
    stmt: object
    if rng.random() < 0.5:
        stmt = ExprStmt(outer, (), _SPAN)
    else:
        stmt = LocalVarDecl("var", (Declarator("holder", outer, _SPAN),), (), _SPAN)
    return Block((stmt,), (), _SPAN)


def gen_call_arg_stmt(rng: random.Random) -> Block:
    """A single statement passing one call result as an argument."""
    arg_call = Call(Name(rng.choice(_NAMES), _SPAN), rng.choice(("normalize", "trim", "check")),
                    tuple(Literal(rng.randint(0, 3), "int", _SPAN)
                          for _ in range(rng.randint(0, 1))), _SPAN)
    pre_args = tuple(Name(rng.choice(_NAMES), _SPAN) for _ in range(rng.randint(0, 2)))
    outer = Call(None, rng.choice(_METHODS), pre_args + (arg_call,), _SPAN)
    stmt: object
    if rng.random() < 0.5:
        stmt = ExprStmt(outer, (), _SPAN)
    else:
        stmt = LocalVarDecl("int", (Declarator("outcome", outer, _SPAN),), (), _SPAN)
    return Block((stmt,), (), _SPAN)


def gen_straightline_block(rng: random.Random) -> Block:
    stmts = []
    for i in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.4:
            stmts.append(LocalVarDecl(
                "int", (Declarator(f"v{i}", Literal(rng.randint(0, 9), "int", _SPAN), _SPAN),),
                (), _SPAN))
        elif roll < 0.7:
            stmts.append(ExprStmt(Call(None, rng.choice(_METHODS),
                                       (Name(rng.choice(_NAMES), _SPAN),), _SPAN), (), _SPAN))
        else:
            stmts.append(ExprStmt(Assign(Name(rng.choice(_NAMES), _SPAN),
                                         Binary("+", Name(rng.choice(_NAMES), _SPAN),
                                                Literal(1, "int", _SPAN), _SPAN), _SPAN),
                                  (), _SPAN))
    return Block(tuple(stmts), (), _SPAN)
