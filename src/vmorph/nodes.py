"""AST node definitions for the supported Java subset.

Every node is an immutable (frozen) dataclass carrying a source Span. Spans
are excluded from equality so that two parses of the same program compare
equal regardless of layout; `structurally_equal` is therefore plain `==`.

Trees stay immutable but are made cheap to build and hold, since on a whole
project building them takes most of the time. Node classes are slotted (no
per-instance `__dict__`) and get an `__init__` that fills the slots without
`object.__setattr__`; assigning a field still raises FrozenInstanceError,
and `dataclasses.replace` works as before. `Span` is a NamedTuple, one small
tuple with no dict, so the collector's passes over a tree cost less; it
still counts as one tracked object, as CPython untracks only exact tuples.
Nodes without a position share one synthetic span. NODE_CLASSES lists every
node class once.

The node family deliberately covers only the subset documented in
docs/grammar.md: top-level classes with fields, methods, and constructors;
statement forms Block/If/While/For/Switch/LocalVarDecl/ExprStmt/Return/
Break/Continue/Throw; expression forms Name/Literal/Unary/Binary/Ternary/
Call/FieldAccess/Assign/New. Anything else is rejected at parse time.

Comments are attached to the statement or member that follows them so they
survive printing (buggy-line hint comments must round-trip).

Schema: each field of a node class declares, once, through its default,
what it holds: `_child()` a child node, an optional one or a tuple of them;
`_name(role, kind)` an identifier (`_type_name()` a possibly dotted type
name); `_payload()` or `_span_field()` anything else. A new node class or
field declares its children and names there and nowhere else; importing this
module fails for a field that declares nothing. `children`, `walk`,
`rebuild`, `identifier_sites` and `rename_identifiers` read only these
declarations, and identifier collection, renaming and the rewrites' tree
surgery are built on them.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, Iterator, NamedTuple, Optional, Union


class Span(NamedTuple):
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


_SYNTHETIC = Span.synthetic()  # every node's default span, shared


# Identifier roles and kinds.
DECL = "decl"
USE = "use"
VARIABLE = "variable"
FUNCTION = "function"
CLASS = "class"

# Primitive and pseudo type names: never collected, never renamed.
PRIMITIVE_TYPES = frozenset(
    {"int", "boolean", "void", "var", "long", "short", "byte", "char", "double", "float"}
)

# How an identifier field holds its name: the whole string; the last segment
# of a dotted type (a class use, unless primitive); the last segment of an
# import (not a name for a wildcard import); a method name (a class use for
# a constructor).
_PLAIN, _TYPE, _IMPORT, _METHOD = "plain", "type", "import", "method"
_SCHEMA = "schema"  # the field metadata key
_CHILD, _PAYLOAD = "child", "payload"


def _child():
    return field(metadata={_SCHEMA: _CHILD})


def _payload(default=MISSING):
    return field(default=default, metadata={_SCHEMA: _PAYLOAD})


def _name(role: str, kind: str, form: str = _PLAIN):
    return field(metadata={_SCHEMA: (role, kind, form)})


def _type_name():
    return _name(USE, CLASS, _TYPE)


def _span_field() -> Span:
    return field(default=_SYNTHETIC, compare=False, metadata={_SCHEMA: _PAYLOAD})


NODE_CLASSES: list[type] = []  # every node class, once each, in definition order


def _node(cls: type) -> type:
    """Make `cls` a frozen, slotted dataclass built by `_slot_init`, store
    its child fields and identifier fields on it, so no traversal reads the
    dataclass fields of a node, and register it in NODE_CLASSES."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    child_fields, name_fields = [], []
    for f in fields(cls):
        tag = f.metadata.get(_SCHEMA)
        if tag == _CHILD:
            child_fields.append(f.name)
        elif isinstance(tag, tuple):
            name_fields.append((f.name, *tag))
        elif tag != _PAYLOAD:
            raise TypeError(f"{cls.__name__}.{f.name} declares no schema")
    cls._child_fields = tuple(child_fields)
    cls._name_fields = tuple(name_fields)
    if fields(cls):
        cls.__init__ = _slot_init(cls)
    NODE_CLASSES.append(cls)
    return cls


def _slot_init(cls: type) -> Callable[..., None]:
    """The `__init__` a dataclass would get, but setting each slot through
    its descriptor: the dataclass's goes through `object.__setattr__` to get
    past the frozen `__setattr__`, which makes building a node about 1.7x
    slower. Assignment after `__init__` still raises FrozenInstanceError."""
    env, params, body = {}, [], []
    for f in fields(cls):
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


@_node
class Node:
    """Base for all AST nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@_node
class Expr(Node):
    pass


@_node
class Name(Expr):
    id: str = _name(USE, VARIABLE)
    span: Span = _span_field()


@_node
class Literal(Expr):
    """value is a Python int, bool, str, or None; kind disambiguates."""

    value: Union[int, bool, str, None] = _payload()
    kind: str = _payload()  # "int" | "boolean" | "string" | "null"
    span: Span = _span_field()


@_node
class Unary(Expr):
    op: str = _payload()  # "!" | "-"
    operand: Expr = _child()
    span: Span = _span_field()


@_node
class Binary(Expr):
    op: str = _payload()  # + - * / % < <= > >= == != && ||
    left: Expr = _child()
    right: Expr = _child()
    span: Span = _span_field()


@_node
class Ternary(Expr):
    cond: Expr = _child()
    if_true: Expr = _child()
    if_false: Expr = _child()
    span: Span = _span_field()


@_node
class Call(Expr):
    """receiver is None for unqualified calls; chains nest through receiver."""

    receiver: Optional[Expr] = _child()
    method: str = _name(USE, FUNCTION)
    args: tuple[Expr, ...] = _child()
    span: Span = _span_field()


@_node
class FieldAccess(Expr):
    receiver: Expr = _child()
    name: str = _name(USE, VARIABLE)
    span: Span = _span_field()


@_node
class Assign(Expr):
    target: Expr = _child()  # Name or FieldAccess, enforced by the parser
    value: Expr = _child()
    span: Span = _span_field()


@_node
class New(Expr):
    type_name: str = _type_name()
    args: tuple[Expr, ...] = _child()
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@_node
class Stmt(Node):
    pass


@_node
class Block(Stmt):
    stmts: tuple[Stmt, ...] = _child()
    # Comments sitting at the end of the block, after the last statement.
    trailing_comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class If(Stmt):
    cond: Expr = _child()
    then: Block = _child()
    # A Block for a plain else, an If for an else-if link, or None.
    orelse: Optional[Stmt] = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class While(Stmt):
    cond: Expr = _child()
    body: Block = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class For(Stmt):
    init: Optional[Stmt] = _child()  # LocalVarDecl or ExprStmt
    cond: Optional[Expr] = _child()
    update: Optional[Expr] = _child()
    body: Block = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class SwitchCase(Node):
    """labels holds Literal nodes and/or the DEFAULT_LABEL sentinel.

    terminated is derived at construction, as `ends_case(body)`.
    """

    labels: tuple[object, ...] = _child()
    body: tuple[Stmt, ...] = _child()
    terminated: bool = _payload()
    span: Span = _span_field()


def ends_case(body) -> bool:
    """Whether a case body's last statement is a break, return or throw, so
    control cannot fall through to the next case."""
    return bool(body) and isinstance(body[-1], (Break, Return, Throw))


DEFAULT_LABEL = "default"


@_node
class Switch(Stmt):
    scrutinee: Expr = _child()
    cases: tuple[SwitchCase, ...] = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class Declarator(Node):
    name: str = _name(DECL, VARIABLE)
    init: Optional[Expr] = _child()
    span: Span = _span_field()


@_node
class LocalVarDecl(Stmt):
    """type_name is "var" for inferred declarations.

    declarators usually has one element; `int i = 0, j = 1;` produces two.
    """

    type_name: str = _type_name()
    declarators: tuple[Declarator, ...] = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()

    @property
    def name(self) -> str:
        return self.declarators[0].name

    @property
    def init(self) -> Optional[Expr]:
        return self.declarators[0].init


@_node
class ExprStmt(Stmt):
    expr: Expr = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class Return(Stmt):
    value: Optional[Expr] = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class Break(Stmt):
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class Continue(Stmt):
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class Throw(Stmt):
    expr: Expr = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@_node
class Param(Node):
    type_name: str = _type_name()
    name: str = _name(DECL, VARIABLE)
    is_final: bool = _payload(False)
    span: Span = _span_field()


@_node
class MethodDecl(Node):
    """return_type is None for constructors, "void" for void methods."""

    name: str = _name(DECL, FUNCTION, _METHOD)
    modifiers: frozenset[str] = _payload()
    params: tuple[Param, ...] = _child()
    return_type: Optional[str] = _type_name()
    body: Block = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()

    def is_constructor(self) -> bool:
        return self.return_type is None


@_node
class FieldDecl(Node):
    modifiers: frozenset[str] = _payload()
    type_name: str = _type_name()
    declarators: tuple[Declarator, ...] = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()


@_node
class ClassDecl(Node):
    name: str = _name(DECL, CLASS)
    modifiers: frozenset[str] = _payload()
    # Members in source order; each is a FieldDecl or MethodDecl.
    members: tuple[Node, ...] = _child()
    comments: tuple[str, ...] = _payload(())
    span: Span = _span_field()

    @property
    def methods(self) -> tuple[MethodDecl, ...]:
        return tuple(m for m in self.members if isinstance(m, MethodDecl))

    @property
    def fields(self) -> tuple[FieldDecl, ...]:
        return tuple(m for m in self.members if isinstance(m, FieldDecl))


@_node
class Import(Node):
    name: str = _name(USE, CLASS, _IMPORT)  # dotted
    wildcard: bool = _payload()
    span: Span = _span_field()


@_node
class SourceFile(Node):
    package: Optional[str] = _payload()
    imports: tuple[Import, ...] = _child()
    types: tuple[ClassDecl, ...] = _child()
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Tree helpers
# ---------------------------------------------------------------------------


def structurally_equal(a: Node, b: Node) -> bool:
    """True iff the trees are equal ignoring spans (and hence whitespace)."""
    return a == b


def children(node: Node) -> Iterator[Node]:
    """Yield direct child nodes, in field order."""
    for name in node._child_fields:
        value = getattr(node, name)
        # SwitchCase.labels also holds the DEFAULT_LABEL string.
        for item in value if value.__class__ is tuple else (value,):
            if isinstance(item, Node):
                yield item


def _preorder(node: Node, out: list[Node]) -> None:
    # `children` inlined, and recursion, not a stack: identifier collection
    # walks every project file. The parser bounds a tree's depth well inside
    # the default recursion limit.
    out.append(node)
    for name in node._child_fields:
        value = getattr(node, name)
        if value.__class__ is tuple:
            for item in value:
                if isinstance(item, Node):
                    _preorder(item, out)
        elif value is not None:
            _preorder(value, out)


def walk(node: Node) -> Iterator[Node]:
    """Yield node and all descendants, pre-order."""
    out: list[Node] = []
    _preorder(node, out)
    return iter(out)


def rebuild(node: Node, f: Callable[[Node], Node]) -> Node:
    """`node` with each child `c` replaced by `f(c)`, or `node` itself when
    every `f(c)` is `c`; a tuple field is copied only when one of its items
    changed. `f` decides how deep to go: calling `rebuild` from `f` gives a
    whole-tree rebuild that shares every unchanged subtree."""
    changes = None
    for name in node._child_fields:
        old = getattr(node, name)
        if old.__class__ is tuple:
            new = None
            for i, item in enumerate(old):
                if isinstance(item, Node):
                    out = f(item)
                    if out is not item:
                        if new is None:
                            new = list(old)
                        new[i] = out
            if new is None:
                continue
            new = tuple(new)
        elif old is None:
            continue
        else:
            new = f(old)
            if new is old:
                continue
        if changes is None:
            changes = {}
        changes[name] = new
    return node if changes is None else replace(node, **changes)


def _site(node: Node, value: str, role: str, kind: str,
          form: str) -> tuple[str, Optional[str], str]:
    """(name, role, kind) for the string of an identifier field that is not
    plain. A dotted field's name is its last segment, and a constructor's
    name is a use of its class. A primitive type name or a wildcard import's
    tail gets role None: an occurrence, never collected, never renamed."""
    if form == _METHOD:
        return (value, USE, CLASS) if node.return_type is None else (value, role, kind)
    name = value.rpartition(".")[2]
    occurrence_only = name in PRIMITIVE_TYPES if form == _TYPE else node.wildcard
    return name, (None if occurrence_only else role), kind


def identifier_sites(node: Node) -> Iterator[tuple[str, str, str, Node]]:
    """Yield (name, role, kind, node) for every identifier site under `node`,
    pre-order: a node's own sites, in field order, before its children's."""
    for node in walk(node):
        for fname, role, kind, form in node._name_fields:
            name = getattr(node, fname)
            if name is None:  # a constructor's return type
                continue
            if form != _PLAIN:
                name, role, kind = _site(node, name, role, kind, form)
                if role is None:
                    continue
            yield name, role, kind, node


def rename_identifiers(node: Node, mapping: dict[str, str], met: set[str]) -> Node:
    """`node` with each identifier site's name renamed by `mapping`; a dotted
    field keeps its head. Every key of `mapping` that occurs under `node` is
    added to `met`, also where no name is renamed: as a primitive type name
    or a wildcard import's tail. Every unchanged subtree is shared."""
    lookup, meet = mapping.get, met.add

    def visit(node: Node) -> Node:
        if node._child_fields:
            node = rebuild(node, visit)
        changes = None
        for fname, role, kind, form in node._name_fields:
            value = name = getattr(node, fname)
            if value is None:
                continue
            if form == _TYPE or form == _IMPORT:  # a method name renames as is
                name, role, _ = _site(node, value, role, kind, form)
            new = lookup(name)
            if new is not None:
                meet(name)
                if role is not None:
                    changes = changes or {}
                    changes[fname] = value[: len(value) - len(name)] + new
        return node if changes is None else replace(node, **changes)

    return visit(node)
