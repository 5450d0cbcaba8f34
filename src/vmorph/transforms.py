"""The six semantics-preserving structural rewrites and their driver.

Rules: if-condition flipping, for/while conversion, conditional-statement
conversion (ternary/if-else and switch/if-chain), function-chain split/merge,
argument-pass extract/inline, and adjacent-statement reordering.

Every rule is total over its precondition and raises NotApplicable otherwise.
`_run_rule` applies a rule through its site function, `stmt -> (statements,
detail) | None`: None means `stmt` is not a site, NotApplicable refuses it.
One shell there writes every applied and skipped report entry. The order a
rule visits its sites in decides the order of report entries and of fresh
names: IfFlip goes outer-first (a statement, then the blocks inside what it
became), LoopConvert and CondConvert inner-first, and FunctionChain,
ArgumentPass and CodeOrder block by block (every statement of a block, then
the blocks nested in the results).

`nodes.jumps` says whether a statement can complete normally (a switch
case that can falls through, and only it gets a `break`), and
`nodes.has_free` whether a break or continue leaves one.

Code motion goes through two primitives. `_hoist` moves nodes of a statement
into locals declared before it (split and extract), and `_sink` moves a
declaration's initializer into its single use (merge and inline); each rule
only picks what moves. Reordering, hoisting and sinking ask one question:
may these two pieces of code change order? One evaluation-order walk, in
the field order of the node schema, summarizes code as the locations it
reads and writes and whether it may throw; `conflicts` answers the
question for two summaries. Locations are local names and one HEAP location for all fields. Two sides conflict when
one writes a location the other reads or writes (Bernstein's conditions),
when both may throw (calls, allocations, `/`, `%`, and field access through
a receiver other than `this`), or when one may throw and the other writes
HEAP. The heap rule: a call outside the purity whitelist, or to a method
name that the project declares in any file (`context`, or the names
`apply_all` is given), or an allocation, may read and write any field, so
it conflicts with any code that touches the heap. The heap is
every FieldAccess, plus every bare name that `context` declares as a field
and that no parameter shadows; a field name that the method also declares as
a local may denote either, so it touches both. Without `context`, every free
name is a local.
"""

from __future__ import annotations

import enum
from dataclasses import field
from functools import partial
from operator import is_

from .errors import NotApplicable, data_lines
from .identifiers import CAMEL, SNAKE, tokenize_identifier
from .nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Continue,
    Declarator,
    DEFAULT_LABEL,
    Expr,
    ExprStmt,
    FieldAccess,
    For,
    If,
    Literal,
    LocalVarDecl,
    MethodDecl,
    Name,
    New,
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
    ends_case,
    evolve,
    frozen,
    has_free,
    mutable,
    names_in,
    rebuild,
    walk,
)
from .rename import RESERVED_WORDS, assemble_identifier, fresh_name

MERGE = "merge"
SPLIT = "split"
INLINE = "inline"
EXTRACT = "extract"


_Site = tuple[list[Stmt], str] | None  # a site function's result


class TransformRule(enum.Enum):
    """The six rewrites, in the order apply_all applies them."""
    IF_FLIP = "IfFlip"
    LOOP_CONVERT = "LoopConvert"
    COND_CONVERT = "CondConvert"
    FUNCTION_CHAIN = "FunctionChain"
    ARGUMENT_PASS = "ArgumentPass"
    CODE_ORDER = "CodeOrder"


@mutable
class TransformReport:
    applied: list[tuple[TransformRule, Span, str]] = field(default_factory=list)
    skipped: list[tuple[TransformRule, Span, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        def row(items):
            return [{"rule": rule.value, "span": span._asdict(), "detail": detail}
                    for rule, span, detail in items]

        return {"applied": row(self.applied), "skipped": row(self.skipped),
                "notes": list(self.notes)}


# Return types of well-known library methods, used to type the locals that
# split/extract introduce; anything else gets an inferred `var`.
KNOWN_RETURN_TYPES = {
    "getClass": "Class",
    "substring": "String",
    "concat": "String",
    "trim": "String",
    "strip": "String",
    "toString": "String",
    "toLowerCase": "String",
    "toUpperCase": "String",
    "intern": "String",
    "valueOf": "String",
    "repeat": "String",
    "length": "int",
    "indexOf": "int",
    "lastIndexOf": "int",
    "hashCode": "int",
    "compareTo": "int",
    "startsWith": "boolean",
    "endsWith": "boolean",
    "equals": "boolean",
    "contains": "boolean",
    "isEmpty": "boolean",
    "isBlank": "boolean",
}

# Past participles for extract-variable naming (normalize -> normalizedFoo).
PARTICIPLES = {
    "normalize": "normalized",
    "trim": "trimmed",
    "strip": "stripped",
    "parse": "parsed",
    "validate": "validated",
    "verify": "verified",
    "sanitize": "sanitized",
    "escape": "escaped",
    "encode": "encoded",
    "decode": "decoded",
    "resolve": "resolved",
    "check": "checked",
    "compute": "computed",
    "filter": "filtered",
    "format": "formatted",
    "merge": "merged",
    "load": "loaded",
    "convert": "converted",
    "concat": "concatenated",
    "copy": "copied",
    "clean": "cleaned",
    "sort": "sorted",
    "transform": "transformed",
    "process": "processed",
}


def load_purity_whitelist() -> frozenset[str]:
    """Load pure-method names; entries are qualified, matching is by suffix."""
    return frozenset(line.rsplit(".", 1)[-1] for _, line in data_lines("purity_whitelist.txt"))


_PURE_METHODS = load_purity_whitelist()


# ---------------------------------------------------------------------------
# Rule 1: if-condition flipping
# ---------------------------------------------------------------------------


def negate(cond: Expr) -> Expr:
    """Logical negation with double-negation elimination; no De Morgan."""
    if isinstance(cond, Unary) and cond.op == "!":
        return cond.operand
    return Unary("!", cond, cond.span)


def flip_if(s: If) -> If:
    """Negate the condition and swap the branches. Needs a non-empty else block."""
    if s.orelse is None:
        raise NotApplicable("no-else")
    if isinstance(s.orelse, If):
        raise NotApplicable("else-if-chain")
    if not s.orelse.stmts:
        raise NotApplicable("no-else")
    return evolve(s, cond=negate(s.cond), then=s.orelse, orelse=s.then)


def _flip_site(stmt: Stmt) -> _Site:
    if not isinstance(stmt, If):
        return None
    return [flip_if(stmt)], "condition negated, branches swapped"


# ---------------------------------------------------------------------------
# Rule 2: loop conversion
# ---------------------------------------------------------------------------


def convert_loop(s: Stmt) -> Stmt:
    """for -> { init; while (cond) { body; update; } } and while -> for (; c; )."""
    if isinstance(s, While):
        return For(None, s.cond, None, s.body, s.comments, s.span)
    if not isinstance(s, For):
        raise TypeError(f"convert_loop expects a loop, got {type(s).__name__}")
    if has_free(s.body, Continue):
        # A continue would skip the relocated update expression.
        raise NotApplicable("continue-in-body")
    if isinstance(s.init, LocalVarDecl) and len(s.init.declarators) > 1:
        raise NotApplicable("multi-declaration-init")
    cond = s.cond if s.cond is not None else Literal(True, "boolean", s.span)
    stmts = s.body.stmts
    if s.update is not None:
        stmts = stmts + (ExprStmt(s.update, (), s.update.span),)
    body = evolve(s.body, stmts=stmts)
    if s.init is None:
        return While(cond, body, s.comments, s.span)
    init = evolve(s.init, comments=s.comments)
    loop = While(cond, body, (), s.span)
    return Block((init, loop), (), s.span)


def _loop_site(stmt: Stmt) -> _Site:
    if not isinstance(stmt, (For, While)):
        return None
    return [convert_loop(stmt)], "for-to-while" if isinstance(stmt, For) else "while-to-for"


# ---------------------------------------------------------------------------
# Rule 3: conditional-statement conversion
# ---------------------------------------------------------------------------


def convert_conditional(stmt: Stmt) -> list[Stmt]:
    """Rewrite one conditional site; may return several statements.

    Handles: `v = c ? a : b;` and `T v = c ? a : b;` to if-else, switch to an
    if/else-if chain, and an equality-guarded if/else-if chain to a switch.
    """
    if isinstance(stmt, If):  # refused with its reason even where it starts no chain
        return [_if_chain_to_switch(stmt)]
    site = _cond_site(stmt)
    if site is None:
        raise NotApplicable("not-a-conditional-site")
    return site[0]


def _cond_site(stmt: Stmt) -> _Site:
    """CondConvert's site function; the detail is the direction. An if
    statement is a site when it has an else-if link and an equality-on-literal
    first condition."""
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assign) \
            and isinstance(stmt.expr.value, Ternary):
        return ([_if_else(stmt.expr.target, stmt.expr.value, stmt.comments, stmt.span)],
                "ternary-to-if-else")

    if isinstance(stmt, LocalVarDecl) and len(stmt.declarators) == 1 \
            and isinstance(stmt.declarators[0].init, Ternary):
        if stmt.type_name == "var":
            raise NotApplicable("var-requires-initializer")
        d = stmt.declarators[0]
        decl = evolve(stmt, declarators=(Declarator(d.name, None, d.span),))
        return [decl, _if_else(Name(d.name, d.span), d.init, (), stmt.span)], "ternary-to-if-else"

    if isinstance(stmt, Switch):
        return [_switch_to_if_chain(stmt)], "switch-to-if-chain"

    if isinstance(stmt, If) and isinstance(stmt.orelse, If) \
            and _equality_labels(stmt.cond, []) is not None:
        return [_if_chain_to_switch(stmt)], "if-chain-to-switch"

    return None


def _if_else(target: Expr, t: Ternary, comments: tuple[str, ...], span: Span) -> If:
    """`target = t;` as an if-else that assigns `target` in each branch."""
    def branch(value: Expr) -> Block:
        return Block((ExprStmt(Assign(target, value, t.span), (), value.span),), (), value.span)
    return If(t.cond, branch(t.if_true), branch(t.if_false), comments, span)


def _record_misplaced_ternaries(stmt: Stmt, skip, reported: dict[int, Ternary]) -> None:
    """Ternaries anywhere but as a whole initializer are skipped (a whole
    assignment's is always converted), each once: statements are visited
    inner-first, so `reported` (id -> node, which keeps the id from reuse)
    holds those the statements inside `stmt` already reported."""
    holder_exempt: set[int] = set()
    if isinstance(stmt, LocalVarDecl):
        for d in stmt.declarators:
            if isinstance(d.init, Ternary):
                holder_exempt.add(id(d.init))
    for n in walk(stmt):
        if isinstance(n, Ternary) and id(n) not in holder_exempt and id(n) not in reported:
            reported[id(n)] = n
            skip(n.span, "nested-ternary-position")


def _effect_free_scrutinee(expr: Expr) -> bool:
    if isinstance(expr, (Name, Literal)):
        return True
    if isinstance(expr, FieldAccess):
        return _effect_free_scrutinee(expr.receiver)
    return False


def _check_branches(bodies: list[Block]) -> None:
    """Refuse to turn these switch cases into if branches, or back, when a
    break would leave another statement or when they share a local."""
    if any(has_free(body, Break) for body in bodies):
        raise NotApplicable("inner-break")
    if _shares_a_local([body.stmts for body in bodies]):
        raise NotApplicable("case-scoped-local")


def _switch_to_if_chain(stmt: Switch) -> Stmt:
    if not stmt.cases:
        raise NotApplicable("empty-switch")
    if not _effect_free_scrutinee(stmt.scrutinee):
        raise NotApplicable("effectful-scrutinee")

    label_kinds: set[str] = set()
    default_case: SwitchCase | None = None
    value_cases: list[SwitchCase] = []
    for case in stmt.cases:
        has_default = any(l == DEFAULT_LABEL for l in case.labels)
        has_values = any(l != DEFAULT_LABEL for l in case.labels)
        if has_default and has_values:
            raise NotApplicable("mixed-default-labels")
        if has_default:
            default_case = case
        else:
            value_cases.append(case)
            for l in case.labels:
                assert isinstance(l, Literal)
                label_kinds.add(l.kind)
    if len(label_kinds) > 1:
        raise NotApplicable("mixed-label-types")

    def case_block(case: SwitchCase) -> Block:
        body = case.body
        if body and isinstance(body[-1], Break):
            body = body[:-1]
        return Block(tuple(body), (), case.span)

    if not all(ends_case(case.body) for case in stmt.cases[:-1]):
        raise NotApplicable("fallthrough")
    _check_branches([case_block(case) for case in stmt.cases])

    def case_cond(case: SwitchCase) -> Expr:
        conds: list[Expr] = []
        for label in case.labels:
            assert isinstance(label, Literal)
            if label.kind == "string":
                conds.append(Call(stmt.scrutinee, "equals", (label,), label.span))
            else:
                conds.append(Binary("==", stmt.scrutinee, label, label.span))
        out = conds[0]
        for c in conds[1:]:
            out = Binary("||", out, c, c.span)
        return out

    chain: Stmt | None = case_block(default_case) if default_case is not None else None
    if chain is not None and not chain.stmts:  # type: ignore[union-attr]
        chain = None
    for case in reversed(value_cases):
        chain = If(case_cond(case), case_block(case), chain, (), case.span)
    if not isinstance(chain, If):
        raise NotApplicable("no-value-cases")
    return evolve(chain, comments=stmt.comments, span=stmt.span)


def _if_chain_to_switch(stmt: If) -> Stmt:
    """if (k == 1) ... else if (k == 2) ... else ...  ->  switch (k)."""
    links: list[tuple[list, Block]] = []  # labels and body of each case
    scrutinee: Name | None = None
    node: Stmt | None = stmt
    while isinstance(node, If):
        labels: list[Literal] = []
        sc = _equality_labels(node.cond, labels)
        if sc is None:
            raise NotApplicable("non-literal-guards")
        if scrutinee is None:
            scrutinee = sc
        elif scrutinee.id != sc.id:
            raise NotApplicable("non-literal-guards")
        links.append((labels, node.then))
        node = node.orelse
    if len(links) < 2:
        raise NotApplicable("no-chain")

    seen: set[object] = set()
    for labels, _ in links:
        for l in labels:
            if l.value in seen:
                raise NotApplicable("duplicate-labels")
            seen.add(l.value)
    if node is not None:  # the final else
        links.append(([DEFAULT_LABEL], node))
    _check_branches([body for _, body in links])

    cases: list[SwitchCase] = []
    for labels, body in links:
        stmts = body.stmts
        if labels[0] != DEFAULT_LABEL and not ends_case(stmts):
            stmts += (Break((), body.span),)
        cases.append(SwitchCase(tuple(labels), stmts, body.span))
    assert scrutinee is not None
    return Switch(scrutinee, tuple(cases), stmt.comments, stmt.span)


def _shares_a_local(bodies: list[tuple[Stmt, ...]]) -> bool:
    """Whether a name declared at the top level of one body occurs in another:
    a switch block is one scope and each if branch its own, so converting
    would redeclare the name in one scope or leave a use undeclared."""
    for i, body in enumerate(bodies):
        declared = {d.name for s in body if isinstance(s, LocalVarDecl) for d in s.declarators}
        if declared and any((n.id if isinstance(n, Name) else n.name) in declared
                            for j, other in enumerate(bodies) if j != i
                            for s in other for n in walk(s) if isinstance(n, (Name, Declarator))):
            return True
    return False


def _equality_labels(cond: Expr, out: list[Literal]) -> Name | None:
    """Match `name == literal` or an || chain of those; return the scrutinee."""
    if isinstance(cond, Binary) and cond.op == "||":
        left = _equality_labels(cond.left, out)
        right = _equality_labels(cond.right, out)
        if left is None or right is None or left.id != right.id:
            return None
        return left
    if isinstance(cond, Binary) and cond.op == "==":
        a, b = cond.left, cond.right
        if isinstance(a, Name) and isinstance(b, Literal) and b.kind == "int":
            out.append(b)
            return a
        if isinstance(b, Name) and isinstance(a, Literal) and a.kind == "int":
            out.append(a)
            return b
    return None


# ---------------------------------------------------------------------------
# Effect analysis: the one answer to "may these two pieces of code change
# order?", shared by reordering, hoisting (split/extract) and sinking
# (merge/inline)
# ---------------------------------------------------------------------------

# The one location that stands for every field. Not a Java identifier, so it
# never meets a local name.
HEAP = "<heap>"


@frozen
class Effects:
    """The locations some code may read and write, and whether it may throw.

    A location is a local name or HEAP.
    """

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    throws: bool = False

    def __or__(self, other: Effects) -> Effects:
        return Effects(self.reads | other.reads, self.writes | other.writes,
                       self.throws or other.throws)


_NO_EFFECTS = Effects()
_THROWS = Effects(throws=True)
_HEAP = frozenset({HEAP})
# A call outside the purity whitelist, or an allocation, may read and write
# any field.
_IMPURE = Effects(_HEAP, _HEAP, True)


def _union(items) -> Effects:
    out = _NO_EFFECTS
    for e in items:
        out = out | e
    return out


def conflicts(a: Effects, b: Effects) -> str | None:
    """Why `a` and `b` may not change order, or None when they may.

    Bernstein's conditions: neither side writes a location that the other
    reads or writes. Two sides that may both throw conflict as well, because
    the order would decide which exception escapes. So do a side that may
    throw and a side that writes HEAP: a field write stays visible after the
    exception leaves the method, a local write does not (the subset has no
    `try`). A conflict through HEAP alone is named apart
    ("heap-interference"); everything else is "interference".
    """
    shared = (a.writes & (b.reads | b.writes)) | (b.writes & a.reads)
    if shared - {HEAP} or (a.throws and b.throws):
        return "interference"
    if shared or (a.throws and HEAP in b.writes) or (b.throws and HEAP in a.writes):
        return "heap-interference"
    return None


def _evaluation_order(node, conditional: bool = False):
    """Yield (node, conditional) for `node`, an expression, local
    declaration or expression statement, and every expression and
    declarator under it, in the order Java evaluates them: children in
    field order, then the step that uses them (a Declarator is the write of
    its name). `conditional` marks positions that may not run: each operand
    after the first of `?:`, `&&` and `||`. Of an assignment's target only
    a field's receiver is yielded; the Assign step is the write."""
    if isinstance(node, Assign):
        if isinstance(node.target, FieldAccess):
            yield from _evaluation_order(node.target.receiver, conditional)
        yield from _evaluation_order(node.value, conditional)
    else:
        operand = conditional  # the first operand runs whenever `node` does
        later = conditional or isinstance(node, Ternary) or (
            isinstance(node, Binary) and node.op in ("&&", "||"))
        for name in node._child_fields:
            value = getattr(node, name)
            for item in value if value.__class__ is tuple else (value,):
                if item is not None:
                    yield from _evaluation_order(item, operand)
                    operand = later
    if not isinstance(node, Stmt):
        yield node, conditional


def _may_be_null(receiver: Expr) -> bool:
    """Whether a field access through `receiver` may throw NullPointerException."""
    return not (isinstance(receiver, Name) and receiver.id == "this")


@frozen
class _Scope:
    """How the names of one method map to effects."""

    # The locations each bare field name may denote: HEAP, plus the name
    # itself when a local of that name is declared somewhere in the method.
    fields: dict[str, frozenset[str]]
    # The method names taken for pure library methods.
    pure: frozenset[str] = _PURE_METHODS

    def bare(self, name: str) -> frozenset[str]:
        return self.fields.get(name) or frozenset({name})

    def effect(self, node) -> Effects:
        """The effect of `node`'s own step, without its operands."""
        if isinstance(node, Name):
            return Effects(reads=self.bare(node.id))
        if isinstance(node, FieldAccess):
            return Effects(reads=_HEAP, throws=_may_be_null(node.receiver))
        if isinstance(node, Assign):
            target = node.target
            if isinstance(target, Name):
                return Effects(writes=self.bare(target.id))
            return Effects(writes=_HEAP, throws=_may_be_null(target.receiver))
        if isinstance(node, Declarator):
            return Effects(writes=frozenset({node.name}))
        if isinstance(node, Call) and node.method in self.pure:
            return _THROWS
        if isinstance(node, (Call, New)):
            return _IMPURE
        if isinstance(node, Binary) and node.op in ("/", "%"):
            return _THROWS
        return _NO_EFFECTS

    def summary(self, node) -> Effects:
        """The effects of evaluating all of `node`."""
        return _union(self.effect(n) for n, _ in _evaluation_order(node))

    def before(self, holder, target, moved=frozenset()) -> tuple[Effects, bool]:
        """The effects of everything `holder` evaluates before `target`'s
        first operand, apart from the nodes whose ids are in `moved`, and
        whether `target` sits in a conditional position. Code hoisted out of
        `holder` takes its operands along, so only this code stays behind it.
        Each caller's target is under `holder` and is no assignment's
        target, so the walk of `holder` meets `first`."""
        first = next(_evaluation_order(target))[0]
        prefix = _NO_EFFECTS
        for node, conditional in _evaluation_order(holder):
            if node is first:
                break
            if id(node) not in moved:
                prefix = prefix | self.effect(node)
        return prefix, conditional


def _scope_for(m: MethodDecl, context: SourceFile | None,
               project_methods: frozenset[str]) -> _Scope:
    """Fields are the names `context` declares as fields that no parameter
    of `m` shadows; without `context` every free name is local. A local
    shadows a field only from its declaration on, so a bare name that is
    both may denote either. A whitelisted method name that `context` or
    another project file (`project_methods`) also declares may name that
    method, so it is not taken for pure."""
    fields: dict[str, frozenset[str]] = {}
    pure = _PURE_METHODS - project_methods
    if context is not None:
        params = {p.name for p in m.params}
        locals_ = {n.name for n in walk(m.body) if isinstance(n, Declarator)}
        fields = {d.name: _HEAP | ({d.name} & locals_)
                  for cls in context.types for f in cls.fields for d in f.declarators
                  if d.name not in params}
        pure = pure - {d.name for cls in context.types for d in cls.methods}
    return _Scope(fields, pure)


_DEFAULT_SCOPE = _Scope({})


def _decl_type_for(call_or_new: Expr) -> str:
    if isinstance(call_or_new, New):
        return call_or_new.type_name
    assert isinstance(call_or_new, Call)
    return KNOWN_RETURN_TYPES.get(call_or_new.method, "var")


def _receiver_tokens(call: Call) -> list[str]:
    if isinstance(call.receiver, Name):
        return tokenize_identifier(call.receiver.id)
    if isinstance(call.receiver, FieldAccess):
        return tokenize_identifier(call.receiver.name)
    return []


def _split_base_name(inner: Call) -> str:
    meth_tokens = tokenize_identifier(inner.method)
    if len(meth_tokens) > 1 and meth_tokens[0] in ("get", "to"):
        meth_tokens = meth_tokens[1:]
    tokens = _receiver_tokens(inner) + meth_tokens
    return assemble_identifier(tokens, SNAKE) if tokens else "tmp"


def _extract_base_name(arg: Expr) -> str | None:
    """Paper-style name for an extracted argument, or None to fall back to tmpN."""
    if isinstance(arg, New):
        return assemble_identifier(tokenize_identifier(arg.type_name.rsplit(".", 1)[-1]), CAMEL)
    assert isinstance(arg, Call)
    meth_tokens = tokenize_identifier(arg.method)
    if meth_tokens[0] not in PARTICIPLES:
        return None
    return assemble_identifier([PARTICIPLES[meth_tokens[0]]] + meth_tokens[1:]
                               + _receiver_tokens(arg), CAMEL)


# ---------------------------------------------------------------------------
# Rule 4: function chaining
# ---------------------------------------------------------------------------


def chain_functions(block: Block, direction: str) -> Block:
    """Split one chain link per statement, or merge single-use receiver decls."""
    if direction == SPLIT:
        return _each_site(block, lambda s, names: _split_site(s, names, _DEFAULT_SCOPE))
    if direction == MERGE:
        return _sink_block(block, _DEFAULT_SCOPE, _try_merge)
    raise ValueError(f"unknown direction {direction!r}")


def _find_chain_link(expr: Expr) -> Call | None:
    """The call at the bottom of a chain: its receiver is a call, whose own
    receiver is not."""
    for node in walk(expr):
        if (
            isinstance(node, Call)
            and isinstance(node.receiver, Call)
            and not isinstance(node.receiver.receiver, Call)
        ):
            return node
    return None


def _split_site(stmt: Stmt, taken: set[str], scope: _Scope) -> _Site:
    """Hoist the call at the bottom of the statement's chain into a local.

    The hoisted link must not conflict with anything the statement evaluates
    before its first operand.
    """
    if not isinstance(stmt, (ExprStmt, LocalVarDecl)):
        return None
    holder = _stmt_expr(stmt)
    if holder is None:
        return None

    link = _find_chain_link(holder)
    if link is None:
        return None
    inner = link.receiver
    assert isinstance(inner, Call)
    prefix, conditional = scope.before(holder, inner)
    reason = "interference" if conditional else conflicts(prefix, scope.summary(inner))
    if reason:
        raise NotApplicable(reason)
    return (_hoist(stmt, [(inner, _claim(_split_base_name(inner), taken))]),
            "chain link hoisted into local")


def _claim(base: str, taken: set[str]) -> str:
    """A fresh name from `base`, added to `taken`."""
    name = fresh_name(base, taken)
    taken.add(name)
    return name


def _hoist(stmt: Stmt, hoisted: list[tuple[Expr, str]]) -> list[Stmt]:
    """`stmt` after each (node, name) of `hoisted`, in order, was hoisted
    into a local of that name declared before it: a later node that holds an
    earlier one reads that one's local, and the statement's comments move to
    the first declaration."""
    subst: dict[int, Expr] = {}
    decls: list[Stmt] = []
    for node, name in hoisted:
        decls.append(LocalVarDecl(_decl_type_for(node),
                                  (Declarator(name, _substitute(node, subst), node.span),),
                                  (), node.span))
        subst[id(node)] = Name(name, node.span)
    decls[0] = evolve(decls[0], comments=stmt.comments)
    return decls + [evolve(_substitute(stmt, subst), comments=())]


def _substitute(node, subst: dict[int, Expr]):
    """Rebuild `node` with each node whose id is a key of `subst` replaced."""
    if id(node) in subst:
        return subst[id(node)]
    return rebuild(node, partial(_substitute, subst=subst))


def _count_name_uses(stmts, name: str) -> int:
    count = 0
    for s in stmts:
        for n in walk(s):
            if isinstance(n, Name) and n.id == name:
                count += 1
    return count


def _sink_block(block: Block, scope: _Scope, sink) -> Block:
    """`block` after `sink(stmts, i, scope)` at each `stmts[i]` that declares
    one initialized local whose name the statements after it use once; a
    sink that rewrote `stmts` in place returns True and is tried again at
    the same index."""
    stmts = list(block.stmts)
    i = 0
    while i < len(stmts):
        decl = stmts[i]
        if not (isinstance(decl, LocalVarDecl) and len(decl.declarators) == 1
                and decl.init is not None
                and _count_name_uses(stmts[i + 1 :], decl.name) == 1
                and sink(stmts, i, scope)):
            i += 1
    return _with_stmts(block, stmts)


def _sink(stmts: list[Stmt], i: int, j: int, scope: _Scope, find_use) -> bool:
    """Move the initializer of `stmts[i]` into its single use in `stmts[j]`,
    the node `find_use(holder)` gives for the expression `stmts[j]` holds,
    and delete the declaration, whose comments go along. Only when there is
    such a use, it runs unconditionally, and neither the statements between
    nor what the holder evaluates before the use conflicts with the
    initializer."""
    decl, holder = stmts[i], _stmt_expr(stmts[j])
    use = find_use(holder) if holder is not None else None
    if use is None:
        return False
    moved = scope.summary(decl.init)
    passed = [scope.summary(s) for s in stmts[i + 1 : j]]
    prefix, conditional = scope.before(holder, use)
    if conditional or any(conflicts(moved, e) for e in passed + [prefix]):
        return False
    rewritten = _substitute(stmts[j], {id(use): decl.init})
    stmts[j] = evolve(rewritten, comments=decl.comments + rewritten.comments)
    del stmts[i]
    return True


def _try_merge(stmts: list[Stmt], i: int, scope: _Scope) -> bool:
    """Sink a declaration's call into the next statement, where the local is
    a call's receiver."""
    decl = stmts[i]
    if not isinstance(decl.init, Call):
        return False
    return _sink(stmts, i, i + 1, scope, lambda holder: next(
        (n.receiver for n in walk(holder) if isinstance(n, Call)
         and isinstance(n.receiver, Name) and n.receiver.id == decl.name), None))


def _stmt_expr(stmt: Stmt) -> Expr | None:
    if isinstance(stmt, ExprStmt):
        return stmt.expr
    if isinstance(stmt, LocalVarDecl) and len(stmt.declarators) == 1:
        return stmt.declarators[0].init
    if isinstance(stmt, Return):
        return stmt.value
    if isinstance(stmt, Throw):
        return stmt.expr
    return None


# ---------------------------------------------------------------------------
# Rule 5: argument passing
# ---------------------------------------------------------------------------


def argument_pass(block: Block, direction: str) -> Block:
    """Extract call/new arguments into locals, or inline single-use locals back."""
    if direction == EXTRACT:
        return _each_site(block, lambda s, names: _extract_site(
            s, names, _DEFAULT_SCOPE, lambda *_: None))
    if direction == INLINE:
        return _sink_block(block, _DEFAULT_SCOPE, _try_inline)
    raise ValueError(f"unknown direction {direction!r}")


def _extract_site(stmt: Stmt, taken: set[str], scope: _Scope, skip) -> _Site:
    """Hoist every safely extractable argument of one statement into a local;
    `skip(span, reason)` is told of each argument left in place.

    Arguments are taken in evaluation order, so the hoisted declarations
    keep their order. One is hoisted when it runs unconditionally and does
    not conflict with anything that stays in place and is evaluated before
    its first operand.
    """
    holder = _stmt_expr(stmt)
    if holder is None:
        return None

    events = [n for n, _ in _evaluation_order(holder)]
    args = {id(a) for n in events if isinstance(n, (Call, New)) for a in n.args}
    moved: set[int] = set()  # the nodes of hoisted arguments
    hoisted: list[tuple[Expr, str]] = []
    for node in events:
        if not (isinstance(node, (Call, New)) and id(node) in args):
            continue
        prefix, conditional = scope.before(holder, node, moved)
        reason = "conditional-context" if conditional else conflicts(prefix, scope.summary(node))
        if reason is not None:
            skip(node.span, reason)
            continue
        moved.update(map(id, walk(node)))
        hoisted.append((node, _claim(_extract_base_name(node) or "tmp", taken)))

    if not hoisted:
        return None
    return _hoist(stmt, hoisted), f"{len(hoisted)} argument(s) extracted into locals"


_STRAIGHT_LINE = (LocalVarDecl, ExprStmt)


def _try_inline(stmts: list[Stmt], i: int, scope: _Scope) -> bool:
    """Sink a declaration's initializer into its single use, which must be a
    whole argument; the initializer may pass only straight-line statements."""
    decl = stmts[i]
    j = i + 1
    while _count_name_uses([stmts[j]], decl.name) == 0:
        if not isinstance(stmts[j], _STRAIGHT_LINE):
            return False
        j += 1
    return _sink(stmts, i, j, scope, lambda holder: next(
        (a for n in walk(holder) if isinstance(n, (Call, New))
         for a in n.args if isinstance(a, Name) and a.id == decl.name), None))


# ---------------------------------------------------------------------------
# Rule 6: statement reordering
# ---------------------------------------------------------------------------


def reorder_statements(block: Block) -> Block:
    """Swap independent adjacent statement pairs; identity when none qualify.

    A pair swaps only when both are declarations or expression statements
    (control flow never moves) and the two do not conflict (see
    `conflicts`); no name is a field here.
    """
    return _reorder(block, _DEFAULT_SCOPE, TransformReport())


def _reorder(block: Block, scope: _Scope, report: TransformReport) -> Block:
    stmts = block.stmts
    effects = [scope.summary(s) if isinstance(s, _STRAIGHT_LINE) else None for s in stmts]
    out: list[Stmt] = []
    i = 0
    while i < len(stmts):
        if i + 1 < len(stmts) and effects[i] is not None and effects[i + 1] is not None:
            reason = conflicts(effects[i], effects[i + 1])
            if reason is None:
                out += [stmts[i + 1], stmts[i]]
                report.applied.append((TransformRule.CODE_ORDER, stmts[i].span,
                                       "independent adjacent statements swapped"))
                i += 2
                continue
            # Pairs that depend through locals are the common case and go
            # unreported. A pair held in order by the heap alone is reported:
            # the oracle does not model fields, so it cannot confirm that.
            if reason == "heap-interference":
                report.skipped.append((TransformRule.CODE_ORDER, stmts[i].span, reason))
        out.append(stmts[i])
        i += 1
    return _with_stmts(block, out)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


APPLY_ORDER = tuple(TransformRule)

# Site functions without fresh names or scope; CodeOrder works on pairs (_reorder).
_SITES = {
    TransformRule.IF_FLIP: _flip_site,
    TransformRule.LOOP_CONVERT: _loop_site,
    TransformRule.COND_CONVERT: _cond_site,
    TransformRule.CODE_ORDER: None,
}


def apply_all(
    m: MethodDecl,
    context: SourceFile | None = None,
    project_methods: frozenset[str] = frozenset(),
) -> tuple[MethodDecl, TransformReport]:
    """Apply every applicable rule once, in the fixed order
    IfFlip, LoopConvert, CondConvert, FunctionChain(split),
    ArgumentPass(extract), CodeOrder. `project_methods` holds the method
    names the project declares in its other files (it may hold the
    context's too); a call by such a name is never taken for pure.
    """
    return _apply(m, APPLY_ORDER, context, project_methods)


def apply_rule(
    m: MethodDecl,
    rule: TransformRule,
    context: SourceFile | None = None,
) -> tuple[MethodDecl, TransformReport]:
    """Apply a single rule across a whole method, as apply_all would."""
    return _apply(m, (rule,), context, frozenset())


def _apply(m: MethodDecl, rules, context: SourceFile | None,
           project_methods: frozenset[str]) -> tuple[MethodDecl, TransformReport]:
    report = TransformReport()
    taken = names_in(context if context is not None else m) | RESERVED_WORDS
    scope = _scope_for(m, context, project_methods)
    body = m.body
    for rule in rules:
        body = _run_rule(body, rule, taken, scope, report)
    return evolve(m, body=body), report


def _run_rule(
    body: Block,
    rule: TransformRule,
    taken: set[str],
    scope: _Scope,
    report: TransformReport,
) -> Block:
    """`rule` at every site of `body`, in the rule's traversal order."""
    def skip(span: Span, reason: str) -> None:
        report.skipped.append((rule, span, reason))

    ternaries: dict[int, Ternary] = {}

    if rule is TransformRule.FUNCTION_CHAIN:
        site = lambda stmt: _split_site(stmt, taken, scope)  # noqa: E731
    elif rule is TransformRule.ARGUMENT_PASS:
        site = lambda stmt: _extract_site(stmt, taken, scope, skip)  # noqa: E731
    else:
        site = _SITES[rule]

    def at_site(stmt: Stmt):
        """The one shell: writes `stmt`'s report entries, returns what replaces it."""
        try:
            done = site(stmt)
        except NotApplicable as e:
            skip(stmt.span, e.reason)
            done = None
        if done is None:
            out = (stmt,)
        else:
            out, detail = done
            report.applied.append((rule, stmt.span, detail))
        if site is _cond_site:
            for out_stmt in out:
                _record_misplaced_ternaries(out_stmt, skip, ternaries)
        return out

    if site is _flip_site:  # outer-first
        return _each_block(body, lambda b, nested: _with_stmts(
            b, [nested(out) for s in b.stmts for out in at_site(s)]))
    if site is _loop_site or site is _cond_site:  # inner-first
        return _each_block(body, lambda b, nested: _with_stmts(
            b, [out for s in b.stmts for out in at_site(nested(s))]))

    def block_by_block(b: Block, nested) -> Block:
        if site is None:
            b = _reorder(b, scope, report)
        else:
            b = _with_stmts(b, [out for s in b.stmts for out in at_site(s)])
        return _with_stmts(b, map(nested, b.stmts))

    return _each_block(body, block_by_block)


def _each_site(block: Block, site) -> Block:
    """`block` with each statement that `site(stmt, taken)` rewrites replaced;
    `taken` holds the block's names, the reserved words and each claimed name."""
    taken = names_in(block) | RESERVED_WORDS
    stmts: list[Stmt] = []
    for stmt in block.stmts:
        done = site(stmt, taken)
        stmts.extend(done[0] if done is not None else (stmt,))
    return _with_stmts(block, stmts)


def _with_stmts(block: Block, stmts) -> Block:
    """`block` holding `stmts`: `block` itself when they are its own."""
    stmts = tuple(stmts)
    if len(stmts) == len(block.stmts) and all(map(is_, stmts, block.stmts)):
        return block
    return evolve(block, stmts=stmts)


def _each_block(block: Block, rewrite) -> Block:
    """`rewrite(block, nested)`, where `nested(stmt)` is `stmt` with every
    block directly inside it passed through `_each_block` in turn: branches
    (else-if links' too), loop bodies, and switch-case bodies. A rewrite
    that changes a statement before calling `nested` on it works
    outer-first; one that calls `nested` first works inner-first. `nested`
    is a partial, not a closure that calls itself: such a closure is a
    reference cycle, which only the cyclic collector frees, and it would
    keep the rule's state alive until then."""
    return rewrite(block, partial(_nested, rewrite))


def _nested(rewrite, node):
    if isinstance(node, Block):
        return _each_block(node, rewrite)
    if isinstance(node, If):
        # The else branch first: the order of fresh names and of report
        # entries depends on it.
        orelse = _nested(rewrite, node.orelse) if node.orelse is not None else None
        then = _each_block(node.then, rewrite)
        if then is node.then and orelse is node.orelse:
            return node
        return evolve(node, then=then, orelse=orelse)
    if isinstance(node, SwitchCase):
        # The wrapping Block's span is never read: only its stmts are kept.
        body = _each_block(Block(node.body), rewrite).stmts
        if body is node.body:
            return node
        return evolve(node, body=body)
    return rebuild(node, partial(_nested, rewrite)) if isinstance(node, Stmt) else node
