"""AST node definitions for the supported Java subset.

Every node is an immutable (frozen) dataclass carrying a source Span. Spans
are excluded from equality so that two parses of the same program compare
equal regardless of layout; `structurally_equal` is therefore plain `==`.

The node family deliberately covers only the subset documented in
docs/grammar.md: top-level classes with fields, methods, and constructors;
statement forms Block/If/While/For/Switch/LocalVarDecl/ExprStmt/Return/
Break/Continue/Throw; expression forms Name/Literal/Unary/Binary/Ternary/
Call/FieldAccess/Assign/New. Anything else is rejected at parse time.

Comments are attached to the statement or member that follows them so they
survive printing (buggy-line hint comments must round-trip).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union


@dataclass(frozen=True)
class Span:
    """Half-open-free source range, 1-based lines and columns, inclusive ends."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    SYNTHETIC_FILE = "<synthetic>"

    @classmethod
    def synthetic(cls) -> "Span":
        return cls(cls.SYNTHETIC_FILE, 0, 0, 0, 0)

    def is_synthetic(self) -> bool:
        return self.file == self.SYNTHETIC_FILE

    def contains(self, other: "Span") -> bool:
        if self.file != other.file:
            return False
        if (other.start_line, other.start_col) < (self.start_line, self.start_col):
            return False
        if (other.end_line, other.end_col) > (self.end_line, self.end_col):
            return False
        return True


def _span_field() -> Span:
    return field(default_factory=Span.synthetic, compare=False)  # type: ignore[return-value]


@dataclass(frozen=True)
class Node:
    """Base for all AST nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Name(Expr):
    id: str
    span: Span = _span_field()


@dataclass(frozen=True)
class Literal(Expr):
    """value is a Python int, bool, str, or None; kind disambiguates."""

    value: Union[int, bool, str, None]
    kind: str  # "int" | "boolean" | "string" | "null"
    span: Span = _span_field()


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!" | "-"
    operand: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / % < <= > >= == != && ||
    left: Expr
    right: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class Call(Expr):
    """receiver is None for unqualified calls; chains nest through receiver."""

    receiver: Optional[Expr]
    method: str
    args: tuple[Expr, ...]
    span: Span = _span_field()


@dataclass(frozen=True)
class FieldAccess(Expr):
    receiver: Expr
    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class Assign(Expr):
    target: Expr  # Name or FieldAccess, enforced by the parser
    value: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class New(Expr):
    type_name: str
    args: tuple[Expr, ...]
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]
    # Comments sitting at the end of the block, after the last statement.
    trailing_comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Block
    # A Block for a plain else, an If for an else-if link, or None.
    orelse: Optional[Stmt]
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Block
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class For(Stmt):
    init: Optional[Stmt]  # LocalVarDecl or ExprStmt
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Block
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class SwitchCase(Node):
    """labels holds Literal nodes and/or the DEFAULT_LABEL sentinel.

    terminated is derived at construction: the body's last statement is a
    break, return, or throw, so control cannot fall through to the next case.
    """

    labels: tuple[object, ...]
    body: tuple[Stmt, ...]
    terminated: bool
    span: Span = _span_field()


DEFAULT_LABEL = "default"


@dataclass(frozen=True)
class Switch(Stmt):
    scrutinee: Expr
    cases: tuple[SwitchCase, ...]
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class Declarator(Node):
    name: str
    init: Optional[Expr]
    span: Span = _span_field()


@dataclass(frozen=True)
class LocalVarDecl(Stmt):
    """type_name is "var" for inferred declarations.

    declarators usually has one element; `int i = 0, j = 1;` produces two.
    """

    type_name: str
    declarators: tuple[Declarator, ...]
    comments: tuple[str, ...] = ()
    span: Span = _span_field()

    @property
    def name(self) -> str:
        return self.declarators[0].name

    @property
    def init(self) -> Optional[Expr]:
        return self.declarators[0].init


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr]
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class Break(Stmt):
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class Continue(Stmt):
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class Throw(Stmt):
    expr: Expr
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param(Node):
    type_name: str
    name: str
    is_final: bool = False
    span: Span = _span_field()


@dataclass(frozen=True)
class MethodDecl(Node):
    """return_type is None for constructors, "void" for void methods."""

    name: str
    modifiers: frozenset[str]
    params: tuple[Param, ...]
    return_type: Optional[str]
    body: Block
    comments: tuple[str, ...] = ()
    span: Span = _span_field()

    def is_constructor(self) -> bool:
        return self.return_type is None


@dataclass(frozen=True)
class FieldDecl(Node):
    modifiers: frozenset[str]
    type_name: str
    declarators: tuple[Declarator, ...]
    comments: tuple[str, ...] = ()
    span: Span = _span_field()


@dataclass(frozen=True)
class ClassDecl(Node):
    name: str
    modifiers: frozenset[str]
    # Members in source order; each is a FieldDecl or MethodDecl.
    members: tuple[Node, ...]
    comments: tuple[str, ...] = ()
    span: Span = _span_field()

    @property
    def methods(self) -> tuple[MethodDecl, ...]:
        return tuple(m for m in self.members if isinstance(m, MethodDecl))

    @property
    def fields(self) -> tuple[FieldDecl, ...]:
        return tuple(m for m in self.members if isinstance(m, FieldDecl))


@dataclass(frozen=True)
class Import(Node):
    name: str  # dotted
    wildcard: bool
    span: Span = _span_field()


@dataclass(frozen=True)
class SourceFile(Node):
    package: Optional[str]
    imports: tuple[Import, ...]
    types: tuple[ClassDecl, ...]
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Tree helpers
# ---------------------------------------------------------------------------


def structurally_equal(a: Node, b: Node) -> bool:
    """True iff the trees are equal ignoring spans (and hence whitespace)."""
    return a == b


def children(node: Node) -> Iterator[Node]:
    """Yield direct child nodes, in field order."""
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Yield node and all descendants, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)
