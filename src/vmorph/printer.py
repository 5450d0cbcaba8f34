"""Deterministic pretty-printer for the Java subset.

One fixed style: four-space indents, braces on the opening line, a blank line
between class members, minimal parentheses derived from operator precedence.
`parse(print_source(ast))` is structurally equal to `ast`, and for files
already in printer style the round trip is byte-identical.
"""

from __future__ import annotations

import re

from .lexer import ESCAPES
from .nodes import (
    BINARY_LEVEL,
    MODIFIERS,
    Assign,
    Binary,
    Block,
    Break,
    Call,
    ClassDecl,
    Continue,
    DEFAULT_LABEL,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldDecl,
    For,
    If,
    Literal,
    LocalVarDecl,
    MethodDecl,
    Name,
    New,
    Return,
    SourceFile,
    Stmt,
    Switch,
    Ternary,
    Throw,
    Unary,
    While,
)

INDENT = "    "

# Precedence: higher binds tighter. The binary operators take the six levels
# from _OR to _MUL, in the order of nodes.BINARY_LEVELS.
_ASSIGN, _TERNARY, _OR, _AND, _EQ, _REL, _ADD, _MUL, _UNARY, _POSTFIX, _PRIMARY = range(1, 12)

_BINOP_PREC = {op: _OR + level for op, level in BINARY_LEVEL.items()}
# A node class's precedence, _PRIMARY if absent; a Binary takes its operator's.
_PREC = {Assign: _ASSIGN, Ternary: _TERNARY, Unary: _UNARY, Call: _POSTFIX, FieldAccess: _POSTFIX,
         New: _POSTFIX}

# The lexer's escapes the other way round; a ' needs none inside a string.
_STRING_ESCAPES = {char: "\\" + esc for esc, char in ESCAPES.items() if esc != "'"}


def print_source(ast: SourceFile) -> str:
    """Render a compilation unit; total on well-formed ASTs."""
    parts: list[str] = []
    if ast.package:
        parts.append(f"package {ast.package};\n\n")
    if ast.imports:
        for imp in ast.imports:
            suffix = ".*" if imp.wildcard else ""
            parts.append(f"import {imp.name}{suffix};\n")
        parts.append("\n")
    for i, cls in enumerate(ast.types):
        if i:
            parts.append("\n")
        parts.append(print_class(cls))
    return "".join(parts)


def print_class(cls: ClassDecl, indent: int = 0) -> str:
    pad = INDENT * indent
    lines: list[str] = []
    _emit_comments(lines, cls.comments, pad)
    lines.append(f"{pad}{_mods(cls.modifiers)}class {cls.name} {{\n")
    for i, member in enumerate(cls.members):
        if i:
            lines.append("\n")
        if isinstance(member, MethodDecl):
            lines.append(print_method(member, indent + 1))
        else:
            lines.append(_field(member, indent + 1))
    lines.append(f"{pad}}}\n")
    return "".join(lines)


def print_method(m: MethodDecl, indent: int = 0) -> str:
    pad = INDENT * indent
    lines: list[str] = []
    _emit_comments(lines, m.comments, pad)
    params = ", ".join(
        f"{'final ' if p.is_final else ''}{p.type_name} {p.name}" for p in m.params
    )
    ret = "" if m.return_type is None else f"{m.return_type} "
    lines.append(f"{pad}{_mods(m.modifiers)}{ret}{m.name}({params}) ")
    _emit_block(lines, m.body, indent)
    lines.append("\n")
    return "".join(lines)


def print_stmt(stmt: Stmt, indent: int = 0) -> str:
    lines: list[str] = []
    _stmt(lines, stmt, indent)
    return "".join(lines)


def print_expr(expr: Expr) -> str:
    return _expr(expr, _ASSIGN)


# ---------------------------------------------------------------------------


def _mods(modifiers: frozenset[str]) -> str:
    ordered = [m for m in MODIFIERS if m in modifiers]
    return "".join(f"{m} " for m in ordered)


def _field(f: FieldDecl, indent: int) -> str:
    pad = INDENT * indent
    lines: list[str] = []
    _emit_comments(lines, f.comments, pad)
    lines.append(f"{pad}{_mods(f.modifiers)}{f.type_name} {_declarators(f.declarators)};\n")
    return "".join(lines)


def _declarators(declarators) -> str:
    parts = []
    for d in declarators:
        if d.init is not None:
            parts.append(f"{d.name} = {_expr(d.init, _ASSIGN)}")
        else:
            parts.append(d.name)
    return ", ".join(parts)


def _emit_comments(lines: list[str], comments, pad: str) -> None:
    for comment in comments:
        lines.append(f"{pad}{comment}\n")


def _emit_block(lines: list[str], block: Block, indent: int) -> None:
    """Emit `{ ... }` with the opening brace on the current line."""
    pad = INDENT * indent
    lines.append("{\n")
    for s in block.stmts:
        _stmt(lines, s, indent + 1)
    _emit_comments(lines, block.trailing_comments, INDENT * (indent + 1))
    lines.append(f"{pad}}}")


def _stmt(lines: list[str], stmt: Stmt, indent: int) -> None:
    pad = INDENT * indent
    comments = getattr(stmt, "comments", ())
    _emit_comments(lines, comments, pad)

    if isinstance(stmt, Block):
        lines.append(pad)
        _emit_block(lines, stmt, indent)
        lines.append("\n")
    elif isinstance(stmt, If):
        lines.append(f"{pad}if ({_expr(stmt.cond, _ASSIGN)}) ")
        _emit_block(lines, stmt.then, indent)
        node = stmt.orelse
        while node is not None:
            if isinstance(node, If):
                lines.append(f" else if ({_expr(node.cond, _ASSIGN)}) ")
                _emit_block(lines, node.then, indent)
                node = node.orelse
            else:
                lines.append(" else ")
                _emit_block(lines, node, indent)  # type: ignore[arg-type]
                node = None
        lines.append("\n")
    elif isinstance(stmt, While):
        lines.append(f"{pad}while ({_expr(stmt.cond, _ASSIGN)}) ")
        _emit_block(lines, stmt.body, indent)
        lines.append("\n")
    elif isinstance(stmt, For):
        init = _for_init(stmt.init)
        cond = _expr(stmt.cond, _ASSIGN) if stmt.cond is not None else ""
        update = _expr(stmt.update, _ASSIGN) if stmt.update is not None else ""
        lines.append(f"{pad}for ({init}; {cond}; {update}) ")
        _emit_block(lines, stmt.body, indent)
        lines.append("\n")
    elif isinstance(stmt, Switch):
        lines.append(f"{pad}switch ({_expr(stmt.scrutinee, _ASSIGN)}) {{\n")
        label_pad = INDENT * (indent + 1)
        for case in stmt.cases:
            for label in case.labels:
                if label == DEFAULT_LABEL:
                    lines.append(f"{label_pad}default:\n")
                else:
                    lines.append(f"{label_pad}case {_expr(label, _ASSIGN)}:\n")
            for s in case.body:
                _stmt(lines, s, indent + 2)
        lines.append(f"{pad}}}\n")
    elif isinstance(stmt, LocalVarDecl):
        lines.append(f"{pad}{stmt.type_name} {_declarators(stmt.declarators)};\n")
    elif isinstance(stmt, ExprStmt):
        lines.append(f"{pad}{_expr(stmt.expr, _ASSIGN)};\n")
    elif isinstance(stmt, Return):
        if stmt.value is None:
            lines.append(f"{pad}return;\n")
        else:
            lines.append(f"{pad}return {_expr(stmt.value, _ASSIGN)};\n")
    elif isinstance(stmt, Break):
        lines.append(f"{pad}break;\n")
    elif isinstance(stmt, Continue):
        lines.append(f"{pad}continue;\n")
    elif isinstance(stmt, Throw):
        lines.append(f"{pad}throw {_expr(stmt.expr, _ASSIGN)};\n")
    else:
        raise TypeError(f"cannot print statement {type(stmt).__name__}")


def _for_init(init) -> str:
    if init is None:
        return ""
    if isinstance(init, LocalVarDecl):
        return f"{init.type_name} {_declarators(init.declarators)}"
    if isinstance(init, ExprStmt):
        return _expr(init.expr, _ASSIGN)
    raise TypeError(f"cannot print for-init {type(init).__name__}")


def _expr(expr: Expr, min_prec: int) -> str:
    text = _expr_inner(expr)
    prec = _BINOP_PREC[expr.op] if type(expr) is Binary else _PREC.get(type(expr), _PRIMARY)
    return f"({text})" if prec < min_prec else text


def _expr_inner(expr: Expr) -> str:
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, Literal):
        return _literal(expr)
    if isinstance(expr, Unary):
        operand = expr.operand
        # Keep `- -x` and `-(-1)` unambiguous for real Java tooling.
        if expr.op == "-" and (
            isinstance(operand, Unary) and operand.op == "-"
            or isinstance(operand, Literal) and operand.kind == "int" and operand.value < 0  # type: ignore[operator]
        ):
            return f"-({_expr(operand, _ASSIGN)})"
        return f"{expr.op}{_expr(operand, _UNARY)}"
    if isinstance(expr, Binary):
        prec = _BINOP_PREC[expr.op]
        left = _expr(expr.left, prec)
        right = _expr(expr.right, prec + 1)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Ternary):
        cond = _expr(expr.cond, _TERNARY + 1)
        if_true = _expr(expr.if_true, _ASSIGN)
        if_false = _expr(expr.if_false, _TERNARY)
        return f"{cond} ? {if_true} : {if_false}"
    if isinstance(expr, Call):
        args = ", ".join(_expr(a, _ASSIGN) for a in expr.args)
        if expr.receiver is None:
            return f"{expr.method}({args})"
        return f"{_expr(expr.receiver, _POSTFIX)}.{expr.method}({args})"
    if isinstance(expr, FieldAccess):
        return f"{_expr(expr.receiver, _POSTFIX)}.{expr.name}"
    if isinstance(expr, Assign):
        return f"{_expr(expr.target, _POSTFIX)} = {_expr(expr.value, _ASSIGN)}"
    if isinstance(expr, New):
        args = ", ".join(_expr(a, _ASSIGN) for a in expr.args)
        return f"new {expr.type_name}({args})"
    raise TypeError(f"cannot print expression {type(expr).__name__}")


def _literal(lit: Literal) -> str:
    if lit.kind == "int":
        return str(lit.value)
    if lit.kind == "boolean":
        return "true" if lit.value else "false"
    if lit.kind == "null":
        return "null"
    if lit.kind == "string":
        if "\0" in lit.value and re.search(r"\x00[0-7]", lit.value):  # type: ignore[operator]
            # Java reads `\0` and an octal digit as one octal escape, which the lexer rejects.
            raise ValueError(f"cannot print string {lit.value!r}: NUL before an octal digit")
        escaped = "".join(_STRING_ESCAPES.get(c, c) for c in lit.value)  # type: ignore[union-attr]
        return f'"{escaped}"'
    raise TypeError(f"unknown literal kind {lit.kind!r}")
