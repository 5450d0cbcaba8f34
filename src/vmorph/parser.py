"""Recursive-descent parser for the Java subset.

Grammar in docs/grammar.md. Design points:

- The cursor is a flat token list (comments removed, two extra EOF tokens
  at the end so lookahead needs no bound check) and a parallel list of keys:
  the text of an operator or keyword token, None for every other token.
  `at()` and `expect()` are one list lookup.
- Binary operators are parsed by precedence climbing over one table of
  levels (`_BINARY_LEVEL`), left-associative; a Binary's span starts at the
  first token of its leftmost operand.
- Bodies of if/while/for must be braced blocks; else accepts a block or a
  chained if. Unbraced bodies are a syntax error, which keeps the printer's
  output re-parseable token for token.
- Statements starting with an identifier are disambiguated between a local
  declaration and an expression by backtracking.
- Constructs that are recognizably Java but outside the subset (lambdas,
  generics, anonymous/inner classes, labeled statements, annotations, char
  literals...) raise UnsupportedConstruct rather than a generic syntax error.
- Comments are attached to the statement, member, or class that follows
  them; comments before a closing brace attach to the block as trailing.
"""

from __future__ import annotations

from .errors import JavaSyntaxError, UnsupportedConstruct
from .lexer import COMMENT, EOF, IDENT, INT, KEYWORD, OP, STRING, Token, tokenize
from .nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    ClassDecl,
    Continue,
    Declarator,
    DEFAULT_LABEL,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldDecl,
    For,
    If,
    Import,
    Literal,
    LocalVarDecl,
    MethodDecl,
    Name,
    New,
    Param,
    Return,
    SourceFile,
    Span,
    Stmt,
    Switch,
    SwitchCase,
    Ternary,
    Throw,
    Unary,
    While,
    children,
    ends_case,
)

MODIFIERS = ("public", "private", "protected", "static", "final")

# Primitive type names lex as identifiers (they only matter in type
# position) but can never stand alone in an expression.
PRIMITIVE_NAMES = frozenset(
    {"int", "boolean", "long", "short", "byte", "char", "double", "float"}
)

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1
# Deeper expressions are rejected: printing and tree walks recurse per level.
MAX_EXPR_DEPTH = 256
# The parser itself recurses too: up to 14 Python frames per level of
# parentheses or call arguments, 4 per nested statement or else-if link.
# Input nested deeper than this is rejected well inside Python's default
# recursion limit (1,000).
MAX_NESTING = 50


# Binary operators by precedence, loosest first; all are left-associative.
_BINARY_LEVELS = [
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
]
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


def parse(text: str, file: str = "<input>") -> SourceFile:
    """Parse a compilation unit; see module docstring for error behavior."""
    return _Parser(tokenize(text, file), file).source_file()


def _depth(node) -> int:
    depth, level = 0, [node]
    while level:  # level by level: the tree may be too deep to recurse over
        depth, level = depth + 1, [c for n in level for c in children(n)]
    return depth


class _Parser:
    def __init__(self, raw_tokens: list[Token], file: str):
        self.file = file
        self.toks: list[Token] = []
        # Comments between the previous retained token and toks[i].
        self.comments_before: dict[int, tuple[str, ...]] = {}
        pending: list[str] = []
        for tok in raw_tokens:
            if tok.kind == COMMENT:
                pending.append(tok.text)
            else:
                if pending:
                    self.comments_before[len(self.toks)] = tuple(pending)
                    pending = []
                self.toks.append(tok)
        self.eof = len(self.toks) - 1  # next() stops here
        # Two copies of EOF past the end let peek(k) index without a bound.
        self.toks += [self.toks[-1]] * 2
        # The cursor's keys: the text of an operator or keyword, else None.
        self.keys = [tok.text if tok.kind in (OP, KEYWORD) else None for tok in self.toks]
        self.pos = 0
        self.depth = 0  # nesting levels the parser is inside, see nested()

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def at(self, text: str, k: int = 0) -> bool:
        return self.keys[self.pos + k] == text

    def at_kind(self, kind: str, k: int = 0) -> bool:
        return self.toks[self.pos + k].kind == kind

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if self.pos < self.eof:
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.toks[self.pos]
        if self.keys[self.pos] != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}" if tok.kind != EOF
                             else f"expected {text!r}, found end of input")
        self.pos += 1  # a token with a key is never EOF
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            raise self.error(f"expected {what}, found {tok.text!r}")
        return self.next()

    def error(self, message: str) -> JavaSyntaxError:
        return JavaSyntaxError(self.peek().span(self.file), message)

    def unsupported(self, construct: str, tok: Token | None = None) -> UnsupportedConstruct:
        return UnsupportedConstruct((tok or self.peek()).span(self.file), construct)

    def nested(self, parse_step):
        """parse_step() one nesting level deeper, rejecting input that would
        take the parser past MAX_NESTING levels. An exception abandons the
        whole parse, so the count needs no unwinding."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.unsupported(f"nesting deeper than {MAX_NESTING}")
        node = parse_step()
        self.depth -= 1
        return node

    def take_comments(self) -> tuple[str, ...]:
        return self.comments_before.get(self.pos, ())

    def span_from(self, start: Token) -> Span:
        last = self.toks[self.pos - 1] if self.pos > 0 else start
        return Span(self.file, start.line, start.col, last.end_line, last.end_col)

    # -- compilation unit ---------------------------------------------------

    def source_file(self) -> SourceFile:
        start = self.peek()
        package = None
        if self.at("package"):
            self.next()
            package = self.dotted_name()
            self.expect(";")
        imports = []
        while self.at("import"):
            tok = self.next()
            name = self.expect_ident().text
            wildcard = False
            while self.at("."):
                self.next()
                if self.at("*"):
                    self.next()
                    wildcard = True
                    break
                name += "." + self.expect_ident().text
            self.expect(";")
            imports.append(Import(name, wildcard, self.span_from(tok)))
        types = []
        while not self.at_kind(EOF):
            types.append(self.class_decl())
        span = Span(self.file, start.line, start.col,
                    self.peek().end_line, self.peek().end_col)
        return SourceFile(package, tuple(imports), tuple(types), span)

    def dotted_name(self) -> str:
        name = self.expect_ident().text
        while self.at("."):
            self.next()
            name += "." + self.expect_ident().text
        return name

    def modifiers(self) -> frozenset[str]:
        mods: set[str] = set()
        while True:
            if self.at("@"):
                raise self.unsupported("annotation")
            tok = self.peek()
            if tok.kind == KEYWORD and tok.text in MODIFIERS:
                if tok.text in mods:
                    raise self.error(f"duplicate modifier {tok.text!r}")
                mods.add(self.next().text)
            else:
                return frozenset(mods)

    def class_decl(self, nested: bool = False) -> ClassDecl:
        comments = self.take_comments()
        start = self.peek()
        mods = self.modifiers()
        if not self.at("class"):
            if self.peek().text in ("interface", "enum"):
                raise self.unsupported(f"{self.peek().text} declaration")
            raise self.error(f"expected 'class', found {self.peek().text!r}")
        self.next()
        name = self.expect_ident("class name").text
        if self.at("<"):
            raise self.unsupported("generic type declaration")
        if self.peek().text in ("extends", "implements"):
            raise self.unsupported(f"'{self.peek().text}' clause")
        self.expect("{")
        members = []
        while not self.at("}"):
            if self.at_kind(EOF):
                raise self.error("unterminated class body")
            members.append(self.member(name))
        self.expect("}")
        return ClassDecl(name, mods, tuple(members), comments, self.span_from(start))

    def member(self, class_name: str):
        comments = self.take_comments()
        start = self.peek()
        mods = self.modifiers()
        if self.at("class"):
            raise self.unsupported("inner class")
        # Constructor: the class name followed directly by a parameter list.
        if self.at_kind(IDENT) and self.peek().text == class_name and self.at("(", 1):
            name = self.next().text
            params = self.param_list()
            body = self.block()
            return MethodDecl(name, mods, params, None, body, comments,
                              self.span_from(start))
        return_type = self.type_ref(allow_void=True)
        name = self.expect_ident("member name").text
        if self.at("("):
            params = self.param_list()
            body = self.block()
            return MethodDecl(name, mods, params, return_type, body, comments,
                              self.span_from(start))
        if return_type == "void":
            raise self.error("field cannot have type void")
        declarators = self.declarators(name)
        self.expect(";")
        return FieldDecl(mods, return_type, declarators, comments, self.span_from(start))

    def type_ref(self, allow_void: bool = False) -> str:
        if self.at("void"):
            if not allow_void:
                raise self.error("'void' is only valid as a return type")
            self.next()
            return "void"
        if self.at("var"):
            raise self.error("'var' is only valid for initialized local variables")
        name = self.dotted_name()
        if self.at("<"):
            raise self.unsupported("generic type")
        return name

    def param_list(self) -> tuple[Param, ...]:
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                start = self.peek()
                is_final = False
                if self.at("final"):
                    self.next()
                    is_final = True
                type_name = self.type_ref()
                pname = self.expect_ident("parameter name").text
                params.append(Param(type_name, pname, is_final, self.span_from(start)))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        seen: set[str] = set()
        for p in params:
            if p.name in seen:
                raise JavaSyntaxError(p.span, f"duplicate parameter {p.name!r}")
            seen.add(p.name)
        return tuple(params)

    def declarators(self, first_name: str) -> tuple[Declarator, ...]:
        """Parse `= init (, name = init)*`, first identifier already consumed."""
        start = self.toks[self.pos - 1]
        out = []
        name = first_name
        while True:
            init = None
            if self.at("="):
                self.next()
                init = self.expression()
            out.append(Declarator(name, init, self.span_from(start)))
            if self.at(","):
                self.next()
                start = self.peek()
                name = self.expect_ident("variable name").text
                continue
            return tuple(out)

    # -- statements ----------------------------------------------------------

    def block(self) -> Block:
        start = self.peek()
        if not self.at("{"):
            raise self.error("expected '{' (bodies must be braced in the subset)")
        self.next()
        stmts = []
        while not self.at("}"):
            if self.at_kind(EOF):
                raise self.error("unterminated block")
            stmts.append(self.nested(self.statement))
        trailing = self.take_comments()
        self.expect("}")
        return Block(tuple(stmts), trailing, self.span_from(start))

    def statement(self) -> Stmt:
        comments = self.take_comments()
        start = self.peek()
        key = self.keys[self.pos]

        if key == "{":
            blk = self.block()
            # A free-standing block keeps its own comments on itself via the
            # first inner statement; leading comments belong to the block's
            # first statement already, so just return it.
            return blk
        if key == "if":
            return self.if_stmt(comments)
        if key == "while":
            self.next()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            body = self.block()
            return While(cond, body, comments, self.span_from(start))
        if key == "for":
            return self.for_stmt(comments)
        if key == "switch":
            return self.switch_stmt(comments)
        if key == "return":
            self.next()
            value = None if self.at(";") else self.expression()
            self.expect(";")
            return Return(value, comments, self.span_from(start))
        if key == "break":
            self.next()
            self.expect(";")
            return Break(comments, self.span_from(start))
        if key == "continue":
            self.next()
            self.expect(";")
            return Continue(comments, self.span_from(start))
        if key == "throw":
            self.next()
            expr = self.expression()
            self.expect(";")
            return Throw(expr, comments, self.span_from(start))
        if key == "@":
            raise self.unsupported("annotation")
        if self.at_kind(IDENT) and self.at(":", 1):
            raise self.unsupported("labeled statement", self.peek())

        decl = self.local_decl()
        if decl is not None:
            self.expect(";")
            return LocalVarDecl(*decl, comments, self.span_from(start))
        expr = self.expression()
        self.expect(";")
        return ExprStmt(expr, comments, self.span_from(start))

    def local_decl(self) -> tuple[str, tuple[Declarator, ...]] | None:
        """The type and declarators of a local declaration, up to its `;`;
        None, with the cursor back where it was, when none starts here."""
        if self.keys[self.pos] == "var":
            self.next()
            name = self.expect_ident("variable name").text
            if not self.at("="):
                raise self.error("'var' declarations require an initializer")
            declarators = self.declarators(name)
            for d in declarators:
                if d.init is None:
                    raise self.error("'var' declarations require an initializer")
            return "var", declarators
        saved = self.pos
        if self.toks[saved].kind != IDENT:
            return None
        type_name = self.dotted_name()
        if self.at("<") and self._looks_like_generic_decl():
            raise self.unsupported("generic type", self.toks[saved])
        if not self.at_kind(IDENT):
            self.pos = saved
            return None
        return type_name, self.declarators(self.next().text)

    def _looks_like_generic_decl(self) -> bool:
        """Scan past a balanced <...> of type-ish tokens followed by a name."""
        j = self.pos  # at '<'
        depth = 0
        while j < len(self.toks):
            t = self.toks[j]
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    nxt = self.toks[j + 1] if j + 1 < len(self.toks) else None
                    return nxt is not None and nxt.kind == IDENT
            elif t.kind == IDENT or t.text in (".", ",", "?"):
                pass
            else:
                return False
            j += 1
        return False

    def if_stmt(self, comments) -> If:
        start = self.expect("if")
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        then = self.block()
        orelse: Stmt | None = None
        if self.at("else"):
            self.next()
            if self.at("if"):
                # Each link of an else-if chain nests one level deeper.
                orelse = self.nested(lambda: self.if_stmt(()))
            else:
                orelse = self.block()
        return If(cond, then, orelse, comments, self.span_from(start))

    def for_stmt(self, comments) -> For:
        start = self.expect("for")
        self.expect("(")
        init: Stmt | None = None
        if not self.at(";"):
            init_start = self.peek()
            init = self.for_init(init_start)
        self.expect(";")
        cond = None if self.at(";") else self.expression()
        self.expect(";")
        update = None if self.at(")") else self.expression()
        self.expect(")")
        body = self.block()
        return For(init, cond, update, body, comments, self.span_from(start))

    def for_init(self, start: Token) -> Stmt:
        decl = self.local_decl()
        if decl is not None:
            return LocalVarDecl(*decl, (), self.span_from(start))
        expr = self.expression()
        return ExprStmt(expr, (), self.span_from(start))

    def switch_stmt(self, comments) -> Switch:
        start = self.expect("switch")
        self.expect("(")
        scrutinee = self.expression()
        self.expect(")")
        self.expect("{")
        cases: list[SwitchCase] = []
        seen_labels: set[object] = set()
        while not self.at("}"):
            if self.at_kind(EOF):
                raise self.error("unterminated switch")
            case_start = self.peek()
            labels: list[object] = []
            while self.at("case") or self.at("default"):
                if self.at("default"):
                    self.next()
                    self.expect(":")
                    if DEFAULT_LABEL in seen_labels:
                        raise self.error("duplicate default label")
                    seen_labels.add(DEFAULT_LABEL)
                    labels.append(DEFAULT_LABEL)
                else:
                    self.next()
                    lit = self.case_label()
                    key = (lit.kind, lit.value)
                    if key in seen_labels:
                        raise self.error(f"duplicate case label {lit.value!r}")
                    seen_labels.add(key)
                    self.expect(":")
                    labels.append(lit)
            if not labels:
                raise self.error("expected 'case' or 'default'")
            body: list[Stmt] = []
            while not (self.at("case") or self.at("default") or self.at("}")):
                if self.at_kind(EOF):
                    raise self.error("unterminated switch")
                body.append(self.nested(self.statement))
            cases.append(SwitchCase(tuple(labels), tuple(body), ends_case(body),
                                    self.span_from(case_start)))
        self.expect("}")
        return Switch(scrutinee, tuple(cases), comments, self.span_from(start))

    def case_label(self) -> Literal:
        tok = self.peek()
        if self.at("-") and self.peek(1).kind == INT:
            self.next()
            lit = self.next()
            value = -int(lit.value)  # type: ignore[arg-type]
            self._check_int_range(value, lit)
            return Literal(value, "int", self.span_from(tok))
        if tok.kind == INT:
            self.next()
            self._check_int_range(int(tok.value), tok)  # type: ignore[arg-type]
            return Literal(int(tok.value), "int", tok.span(self.file))  # type: ignore[arg-type]
        if tok.kind == STRING:
            self.next()
            return Literal(tok.value, "string", tok.span(self.file))
        raise self.error("case labels must be integer or string literals")

    # -- expressions ---------------------------------------------------------

    def expression(self) -> Expr:
        start = self.pos
        expr = self.nested(self.assignment)
        # Every node owns a token, so only a long expression can be too deep.
        if self.pos - start > MAX_EXPR_DEPTH and _depth(expr) > MAX_EXPR_DEPTH:
            raise self.unsupported(f"expression nested deeper than {MAX_EXPR_DEPTH}",
                                   self.toks[start])
        return expr

    def assignment(self) -> Expr:
        start = self.peek()
        left = self.ternary()
        if self.at("="):
            if not isinstance(left, (Name, FieldAccess)):
                raise self.error("invalid assignment target")
            self.next()
            value = self.nested(self.assignment)
            return Assign(left, value, self.span_from(start))
        return left

    def ternary(self) -> Expr:
        start = self.peek()
        cond = self.binary()
        if self.at("?"):
            self.next()
            if_true = self.expression()
            self.expect(":")
            if_false = self.nested(self.ternary)
            return Ternary(cond, if_true, if_false, self.span_from(start))
        return cond

    def binary(self, min_level: int = 0) -> Expr:
        """Precedence climbing: a left-associative chain of operators of
        _BINARY_LEVELS level min_level or tighter."""
        start = self.peek()
        left = self.unary()
        while True:
            op = self.keys[self.pos]
            level = _BINARY_LEVEL.get(op, -1)
            if level < min_level:
                return left
            self.pos += 1
            right = self.binary(level + 1)
            left = Binary(op, left, right, self.span_from(start))

    def unary(self) -> Expr:
        start = self.peek()
        if self.at("!"):
            self.next()
            return Unary("!", self.nested(self.unary), self.span_from(start))
        if self.at("-"):
            # Fold `-literal` eagerly: the raw-token path admits -2147483648,
            # and folding parenthesized forms keeps print/parse a fixpoint.
            if self.peek(1).kind == INT:
                self.next()
                lit = self.next()
                value = -int(lit.value)  # type: ignore[arg-type]
                self._check_int_range(value, lit)
                return Literal(value, "int", self.span_from(start))
            self.next()
            operand = self.nested(self.unary)
            if isinstance(operand, Literal) and operand.kind == "int":
                value = -operand.value  # type: ignore[operator]
                self._check_int_range(value, start)
                return Literal(value, "int", self.span_from(start))
            return Unary("-", operand, self.span_from(start))
        return self.postfix()

    def _check_int_range(self, value: int, tok: Token) -> None:
        if not (INT_MIN <= value <= INT_MAX):
            raise JavaSyntaxError(tok.span(self.file),
                                  f"integer literal out of 32-bit range: {value}")

    def postfix(self) -> Expr:
        start = self.peek()
        expr = self.primary()
        while True:
            key = self.keys[self.pos]
            if key == "->":
                raise self.unsupported("lambda expression")
            if key == ".":
                if self.peek(1).text == "class":
                    raise self.unsupported("class literal", self.peek(1))
                self.next()
                name = self.expect_ident("member name").text
                if self.at("("):
                    args = self.arguments()
                    expr = Call(expr, name, args, self.span_from(start))
                else:
                    expr = FieldAccess(expr, name, self.span_from(start))
                continue
            return expr

    def primary(self) -> Expr:
        start = self.peek()
        key = self.keys[self.pos]
        if start.kind == IDENT:
            if start.text in PRIMITIVE_NAMES:
                raise self.error(f"type name {start.text!r} cannot be used as an expression")
            self.next()
            if self.at("->"):
                raise self.unsupported("lambda expression")
            if self.at("("):
                args = self.arguments()
                return Call(None, start.text, args, self.span_from(start))
            return Name(start.text, start.span(self.file))
        if key == "(":
            self.next()
            expr = self.expression()
            self.expect(")")
            return expr
        if start.kind == INT:
            self.next()
            self._check_int_range(int(start.value), start)  # type: ignore[arg-type]
            return Literal(int(start.value), "int", start.span(self.file))  # type: ignore[arg-type]
        if start.kind == STRING:
            self.next()
            return Literal(start.value, "string", start.span(self.file))
        if key == "true" or key == "false":
            self.next()
            return Literal(key == "true", "boolean", start.span(self.file))
        if key == "null":
            self.next()
            return Literal(None, "null", start.span(self.file))
        if key == "new":
            self.next()
            type_name = self.dotted_name()
            if self.at("<"):
                raise self.unsupported("generic type")
            args = self.arguments()
            if self.at("{"):
                raise self.unsupported("anonymous class")
            return New(type_name, args, self.span_from(start))
        if key == "@":
            raise self.unsupported("annotation")
        raise self.error(f"unexpected token {start.text!r}")

    def arguments(self) -> tuple[Expr, ...]:
        self.expect("(")
        args = []
        if not self.at(")"):
            while True:
                args.append(self.expression())
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return tuple(args)
