"""Recursive-descent parser for the Java subset.

Grammar in docs/grammar.md. Design points:

- The cursor is an index into the lexer's arrays of code tokens (kinds,
  texts, start offsets; the lexer has already set comments apart), with two
  extra EOF entries at the end so lookahead needs no bound check. No
  identifier, literal or EOF has the text of an operator or keyword, so
  `at()` and `expect()` compare texts alone: one list lookup.
- Line and column are computed only when a Span is built, by bisecting the
  file's line-start offsets; a code token never spans lines.
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

from bisect import bisect_right

from .errors import JavaSyntaxError, UnsupportedConstruct
from .lexer import EOF, IDENT, INT, STRING, Tokens, position, tokenize
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


# Span(...) without the argument handling of its __new__.
_new_span = tuple.__new__


def parse(text: str, file: str = "<input>") -> SourceFile:
    """Parse a compilation unit; see module docstring for error behavior."""
    return _Parser(tokenize(text, file), file).source_file()


def _depth(node) -> int:
    depth, level = 0, [node]
    while level:  # level by level: the tree may be too deep to recurse over
        depth, level = depth + 1, [c for n in level for c in children(n)]
    return depth


class _Parser:
    def __init__(self, tokens: Tokens, file: str):
        self.file = file
        # Two copies of EOF past the end let lookahead index without a bound.
        self.kinds = tokens.kinds + [EOF] * 2
        self.texts = tokens.texts + [""] * 2
        self.starts = tokens.starts
        self.values = tokens.values
        # A sentinel past the text: the line after any token's line starts.
        self.line_starts = tokens.line_starts + [tokens.starts[-1] + 1]
        self.eof = len(tokens.kinds) - 1  # next() stops here
        # Comments between the previous code token and token i.
        self.comments_before: dict[int, tuple[str, ...]] = {}
        for i, _, text in tokens.comments:
            self.comments_before[i] = self.comments_before.get(i, ()) + (text,)
        self.pos = 0
        self.depth = 0  # nesting levels the parser is inside, see nested()

    # -- token plumbing ----------------------------------------------------

    def at(self, text: str, k: int = 0) -> bool:
        return self.texts[self.pos + k] == text

    def at_kind(self, kind: str, k: int = 0) -> bool:
        return self.kinds[self.pos + k] == kind

    def next(self) -> int:
        """Consume the current token, unless it is EOF; its index."""
        i = self.pos
        if i < self.eof:
            self.pos = i + 1
        return i

    def found(self) -> str:
        """The current token as an error message names it."""
        if self.kinds[self.pos] == EOF:
            return "end of input"
        return repr(self.texts[self.pos])

    def expect(self, text: str) -> int:
        i = self.pos
        if self.texts[i] != text:
            raise self.error(f"expected {text!r}, found {self.found()}")
        self.pos = i + 1  # a token with that text is never EOF
        return i

    def expect_ident(self, what: str = "identifier") -> str:
        i = self.pos
        if self.kinds[i] != IDENT:
            raise self.error(f"expected {what}, found {self.found()}")
        self.pos = i + 1
        return self.texts[i]

    def error(self, message: str) -> JavaSyntaxError:
        return JavaSyntaxError(self.token_span(self.pos), message)

    def unsupported(self, construct: str, i: int | None = None) -> UnsupportedConstruct:
        return UnsupportedConstruct(self.token_span(self.pos if i is None else i), construct)

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

    def token_span(self, i: int) -> Span:
        """Token i's span. A code token lies on one line; EOF is empty."""
        line, col = position(self.line_starts, self.starts[i])
        end_col = col + (len(self.texts[i]) or 1) - 1
        return _new_span(Span, (self.file, line, col, line, end_col))

    def span_from(self, start: int) -> Span:
        """From token `start` to the last token consumed, which is not EOF."""
        line_starts = self.line_starts
        begin = self.starts[start]
        line = bisect_right(line_starts, begin)
        last = self.pos - 1
        end = self.starts[last] + len(self.texts[last]) - 1
        end_line = line if end < line_starts[line] else bisect_right(line_starts, end)
        return _new_span(Span, (self.file, line, begin - line_starts[line - 1] + 1,
                                end_line, end - line_starts[end_line - 1] + 1))

    # -- compilation unit ---------------------------------------------------

    def source_file(self) -> SourceFile:
        package = None
        if self.at("package"):
            self.next()
            package = self.dotted_name()
            self.expect(";")
        imports = []
        while self.at("import"):
            start = self.next()
            name = self.expect_ident()
            wildcard = False
            while self.at("."):
                self.next()
                if self.at("*"):
                    self.next()
                    wildcard = True
                    break
                name += "." + self.expect_ident()
            self.expect(";")
            imports.append(Import(name, wildcard, self.span_from(start)))
        types = []
        while not self.at_kind(EOF):
            types.append(self.class_decl())
        first, eof = self.token_span(0), self.token_span(self.pos)
        span = Span(self.file, first.start_line, first.start_col, eof.end_line, eof.end_col)
        return SourceFile(package, tuple(imports), tuple(types), span)

    def dotted_name(self) -> str:
        name = self.expect_ident()
        while self.texts[self.pos] == ".":
            self.next()
            name += "." + self.expect_ident()
        return name

    def modifiers(self) -> frozenset[str]:
        mods: set[str] = set()
        while True:
            if self.at("@"):
                raise self.unsupported("annotation")
            text = self.texts[self.pos]
            if text in MODIFIERS:  # only a keyword has such a text
                if text in mods:
                    raise self.error(f"duplicate modifier {text!r}")
                mods.add(text)
                self.next()
            else:
                return frozenset(mods)

    def class_decl(self, nested: bool = False) -> ClassDecl:
        comments = self.take_comments()
        start = self.pos
        mods = self.modifiers()
        text = self.texts[self.pos]
        if text != "class":
            if text in ("interface", "enum"):
                raise self.unsupported(f"{text} declaration")
            raise self.error(f"expected 'class', found {self.found()}")
        self.next()
        name = self.expect_ident("class name")
        if self.at("<"):
            raise self.unsupported("generic type declaration")
        if self.texts[self.pos] in ("extends", "implements"):
            raise self.unsupported(f"'{self.texts[self.pos]}' clause")
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
        start = self.pos
        mods = self.modifiers()
        if self.at("class"):
            raise self.unsupported("inner class")
        # Constructor: the class name followed directly by a parameter list.
        if self.at_kind(IDENT) and self.at(class_name) and self.at("(", 1):
            self.next()
            params = self.param_list()
            body = self.block()
            return MethodDecl(class_name, mods, params, None, body, comments,
                              self.span_from(start))
        return_type = self.type_ref(allow_void=True)
        name = self.expect_ident("member name")
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
                start = self.pos
                is_final = False
                if self.at("final"):
                    self.next()
                    is_final = True
                type_name = self.type_ref()
                pname = self.expect_ident("parameter name")
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
        start = self.pos - 1
        out = []
        name = first_name
        while True:
            init = None
            if self.texts[self.pos] == "=":
                self.next()
                init = self.expression()
            out.append(Declarator(name, init, self.span_from(start)))
            if self.texts[self.pos] == ",":
                self.next()
                start = self.pos
                name = self.expect_ident("variable name")
                continue
            return tuple(out)

    # -- statements ----------------------------------------------------------

    def block(self) -> Block:
        start = self.pos
        if not self.at("{"):
            raise self.error("expected '{' (bodies must be braced in the subset)")
        self.next()
        stmts = []
        while self.texts[self.pos] != "}":
            if self.at_kind(EOF):
                raise self.error("unterminated block")
            stmts.append(self.nested(self.statement))
        trailing = self.take_comments()
        self.expect("}")
        return Block(tuple(stmts), trailing, self.span_from(start))

    def statement(self) -> Stmt:
        comments = self.take_comments()
        start = self.pos
        key = self.texts[start]

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
            raise self.unsupported("labeled statement")

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
        if self.at("var"):
            self.next()
            name = self.expect_ident("variable name")
            if not self.at("="):
                raise self.error("'var' declarations require an initializer")
            declarators = self.declarators(name)
            for d in declarators:
                if d.init is None:
                    raise self.error("'var' declarations require an initializer")
            return "var", declarators
        saved = self.pos
        if self.kinds[saved] != IDENT:
            return None
        type_name = self.dotted_name()
        if self.at("<") and self._looks_like_generic_decl():
            raise self.unsupported("generic type", saved)
        if not self.at_kind(IDENT):
            self.pos = saved
            return None
        return type_name, self.declarators(self.expect_ident())

    def _looks_like_generic_decl(self) -> bool:
        """Scan past a balanced <...> of type-ish tokens followed by a name."""
        depth = 0
        for j in range(self.pos, self.eof + 1):  # from the '<'
            text = self.texts[j]
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
                if depth == 0:
                    return self.kinds[j + 1] == IDENT
            elif not (self.kinds[j] == IDENT or text in (".", ",", "?")):
                return False
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
            init = self.for_init()
        self.expect(";")
        cond = None if self.at(";") else self.expression()
        self.expect(";")
        update = None if self.at(")") else self.expression()
        self.expect(")")
        body = self.block()
        return For(init, cond, update, body, comments, self.span_from(start))

    def for_init(self) -> Stmt:
        start = self.pos
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
            case_start = self.pos
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
        start = self.pos
        if self.at("-") and self.at_kind(INT, 1):
            return self.negative_literal()
        if self.at_kind(INT):
            return self.int_literal()
        if self.at_kind(STRING):
            self.next()
            return Literal(self.values[start], "string", self.token_span(start))
        raise self.error("case labels must be integer or string literals")

    # -- expressions ---------------------------------------------------------

    def expression(self) -> Expr:
        start = self.pos
        expr = self.nested(self.assignment)
        # Every node owns a token, so only a long expression can be too deep.
        if self.pos - start > MAX_EXPR_DEPTH and _depth(expr) > MAX_EXPR_DEPTH:
            raise self.unsupported(f"expression nested deeper than {MAX_EXPR_DEPTH}", start)
        return expr

    def assignment(self) -> Expr:
        start = self.pos
        left = self.ternary()
        if self.texts[self.pos] == "=":
            if not isinstance(left, (Name, FieldAccess)):
                raise self.error("invalid assignment target")
            self.next()
            value = self.nested(self.assignment)
            return Assign(left, value, self.span_from(start))
        return left

    def ternary(self) -> Expr:
        start = self.pos
        cond = self.binary()
        if self.texts[self.pos] == "?":
            self.next()
            if_true = self.expression()
            self.expect(":")
            if_false = self.nested(self.ternary)
            return Ternary(cond, if_true, if_false, self.span_from(start))
        return cond

    def binary(self, min_level: int = 0) -> Expr:
        """Precedence climbing: a left-associative chain of operators of
        _BINARY_LEVELS level min_level or tighter."""
        start = self.pos
        left = self.unary()
        while True:
            op = self.texts[self.pos]
            level = _BINARY_LEVEL.get(op, -1)
            if level < min_level:
                return left
            self.pos += 1
            right = self.binary(level + 1)
            left = Binary(op, left, right, self.span_from(start))

    def unary(self) -> Expr:
        start = self.pos
        key = self.texts[start]
        if key == "!":
            self.next()
            return Unary("!", self.nested(self.unary), self.span_from(start))
        if key == "-":
            # Fold `-literal` eagerly: the raw-token path admits -2147483648,
            # and folding parenthesized forms keeps print/parse a fixpoint.
            if self.at_kind(INT, 1):
                return self.negative_literal()
            self.next()
            operand = self.nested(self.unary)
            if isinstance(operand, Literal) and operand.kind == "int":
                value = -operand.value  # type: ignore[operator]
                self._check_int_range(value, start)
                return Literal(value, "int", self.span_from(start))
            return Unary("-", operand, self.span_from(start))
        return self.postfix()

    def int_literal(self) -> Literal:
        i = self.next()
        value = self.values[i]
        self._check_int_range(value, i)  # type: ignore[arg-type]
        return Literal(value, "int", self.token_span(i))

    def negative_literal(self) -> Literal:
        """`-` and an INT token: one negative literal."""
        start = self.next()
        lit = self.next()
        value = -self.values[lit]  # type: ignore[operator]
        self._check_int_range(value, lit)
        return Literal(value, "int", self.span_from(start))

    def _check_int_range(self, value: int, i: int) -> None:
        if not (INT_MIN <= value <= INT_MAX):
            raise JavaSyntaxError(self.token_span(i),
                                  f"integer literal out of 32-bit range: {value}")

    def postfix(self) -> Expr:
        start = self.pos
        expr = self.primary()
        while True:
            key = self.texts[self.pos]
            if key == "->":
                raise self.unsupported("lambda expression")
            if key == ".":
                if self.at("class", 1):
                    raise self.unsupported("class literal", self.pos + 1)
                self.next()
                name = self.expect_ident("member name")
                if self.at("("):
                    args = self.arguments()
                    expr = Call(expr, name, args, self.span_from(start))
                else:
                    expr = FieldAccess(expr, name, self.span_from(start))
                continue
            return expr

    def primary(self) -> Expr:
        start = self.pos
        kind = self.kinds[start]
        key = self.texts[start]
        if kind == IDENT:
            if key in PRIMITIVE_NAMES:
                raise self.error(f"type name {key!r} cannot be used as an expression")
            self.pos = start + 1  # not EOF
            after = self.texts[start + 1]
            if after == "->":
                raise self.unsupported("lambda expression")
            if after == "(":
                args = self.arguments()
                return Call(None, key, args, self.span_from(start))
            return Name(key, self.token_span(start))
        if key == "(":
            self.next()
            expr = self.expression()
            self.expect(")")
            return expr
        if kind == INT:
            return self.int_literal()
        if kind == STRING:
            self.next()
            return Literal(self.values[start], "string", self.token_span(start))
        if key == "true" or key == "false":
            self.next()
            return Literal(key == "true", "boolean", self.token_span(start))
        if key == "null":
            self.next()
            return Literal(None, "null", self.token_span(start))
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
        if kind == EOF:
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected token {key!r}")

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
