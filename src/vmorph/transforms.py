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

Reordering, split/extract (hoisting code before the statement) and
merge/inline (sinking a declaration into its use) ask one question: may these
two pieces of code change order? One evaluation-order walk summarizes code as
the locations it reads and writes and whether it may throw; `conflicts`
answers the question for two summaries. Locations are local names and one
HEAP location for all fields. Two sides conflict when one writes a location
the other reads or writes (Bernstein's conditions), when both may throw
(calls, allocations, `/`, `%`, and field access through a receiver other
than `this`), or when one may throw and the other writes HEAP. The heap
rule: a call outside the purity whitelist, or an allocation, may read and
write any field, so it conflicts with any code that touches the heap. The
heap is every FieldAccess, plus every bare name that `context` declares as a
field and that no parameter shadows; a field name that the method also
declares as a local may denote either, so it touches both. Without
`context`, every free name is a local.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from importlib import resources

from .errors import NotApplicable
from .identifiers import tokenize_identifier
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
    identifier_sites,
    rebuild,
    walk,
)
from .rename import RESERVED_WORDS

MERGE = "merge"
SPLIT = "split"
INLINE = "inline"
EXTRACT = "extract"


_Site = tuple[list[Stmt], str] | None  # a site function's result


class TransformRule(enum.Enum):
    IF_FLIP = "IfFlip"
    LOOP_CONVERT = "LoopConvert"
    COND_CONVERT = "CondConvert"
    FUNCTION_CHAIN = "FunctionChain"
    ARGUMENT_PASS = "ArgumentPass"
    CODE_ORDER = "CodeOrder"


@dataclass
class TransformReport:
    applied: list[tuple[TransformRule, Span, str]] = field(default_factory=list)
    skipped: list[tuple[TransformRule, Span, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        def row(items):
            return [
                {
                    "rule": rule.value,
                    "span": {"file": s.file, "start_line": s.start_line,
                             "start_col": s.start_col, "end_line": s.end_line,
                             "end_col": s.end_col},
                    "detail": detail,
                }
                for rule, s, detail in items
            ]

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
    text = resources.files("vmorph.data").joinpath("purity_whitelist.txt").read_text("utf-8")
    names = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.add(line.rsplit(".", 1)[-1])
    return frozenset(names)


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
    return replace(s, cond=negate(s.cond), then=s.orelse, orelse=s.then)


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
    if any(isinstance(n, Continue) for n in walk(s.body)):
        # A continue would skip the relocated update expression.
        raise NotApplicable("continue-in-body")
    if isinstance(s.init, LocalVarDecl) and len(s.init.declarators) > 1:
        raise NotApplicable("multi-declaration-init")
    cond = s.cond if s.cond is not None else Literal(True, "boolean", s.span)
    stmts = s.body.stmts
    if s.update is not None:
        stmts = stmts + (ExprStmt(s.update, (), s.update.span),)
    body = replace(s.body, stmts=stmts)
    if s.init is None:
        return While(cond, body, s.comments, s.span)
    init = replace(s.init, comments=s.comments)
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
        decl = replace(stmt, declarators=(Declarator(d.name, None, d.span),))
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


def _record_misplaced_ternaries(stmt: Stmt, skip) -> None:
    """Ternaries anywhere but as a whole assignment/initializer RHS are skipped."""
    holder_exempt: set[int] = set()
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Assign) \
            and isinstance(stmt.expr.value, Ternary):
        holder_exempt.add(id(stmt.expr.value))
    if isinstance(stmt, LocalVarDecl):
        for d in stmt.declarators:
            if isinstance(d.init, Ternary):
                holder_exempt.add(id(d.init))
    for n in walk(stmt):
        if isinstance(n, Ternary) and id(n) not in holder_exempt:
            skip(n.span, "nested-ternary-position")


def _effect_free_scrutinee(expr: Expr) -> bool:
    if isinstance(expr, (Name, Literal)):
        return True
    if isinstance(expr, FieldAccess):
        return _effect_free_scrutinee(expr.receiver)
    return False


def _free_breaks(stmts: tuple[Stmt, ...]) -> list[Break]:
    """Breaks that would bind to the enclosing switch (not to a nested loop/switch)."""
    found: list[Break] = []

    def visit(s: Stmt) -> None:
        if isinstance(s, (While, For, Switch)):
            return
        if isinstance(s, Break):
            found.append(s)
            return
        if isinstance(s, Block):
            for inner in s.stmts:
                visit(inner)
        elif isinstance(s, If):
            visit(s.then)
            if s.orelse is not None:
                visit(s.orelse)

    for s in stmts:
        visit(s)
    return found


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
    if label_kinds - {"int", "string"}:
        raise NotApplicable("non-literal-guards")
    if len(label_kinds) > 1:
        raise NotApplicable("mixed-label-types")

    def case_block(case: SwitchCase) -> Block:
        body = case.body
        if body and isinstance(body[-1], Break):
            body = body[:-1]
        return Block(tuple(body), (), case.span)

    for i, case in enumerate(stmt.cases):
        is_last = i == len(stmt.cases) - 1
        if not is_last and not case.terminated:
            raise NotApplicable("fallthrough")
        if _free_breaks(case_block(case).stmts):
            raise NotApplicable("inner-break")
    if _shares_a_local([case.body for case in stmt.cases]):
        raise NotApplicable("case-scoped-local")

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
    return replace(chain, comments=stmt.comments, span=stmt.span)


def _if_chain_to_switch(stmt: If) -> Stmt:
    """if (k == 1) ... else if (k == 2) ... else ...  ->  switch (k)."""
    links: list[tuple[list[Literal], Block]] = []
    scrutinee: Name | None = None
    node: Stmt | None = stmt
    final_else: Block | None = None
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
    if node is not None:
        assert isinstance(node, Block)
        final_else = node
    if len(links) < 2:
        raise NotApplicable("no-chain")

    seen: set[object] = set()
    for labels, body in links:
        for l in labels:
            if l.value in seen:
                raise NotApplicable("duplicate-labels")
            seen.add(l.value)
        if _free_breaks(body.stmts):
            raise NotApplicable("inner-break")
    if final_else is not None and _free_breaks(final_else.stmts):
        raise NotApplicable("inner-break")
    bodies = [body.stmts for _, body in links]
    if _shares_a_local(bodies + ([final_else.stmts] if final_else is not None else [])):
        raise NotApplicable("case-scoped-local")

    cases: list[SwitchCase] = []
    for labels, body in links:
        stmts = body.stmts if ends_case(body.stmts) else body.stmts + (Break((), body.span),)
        cases.append(SwitchCase(tuple(labels), stmts, True, body.span))
    if final_else is not None:
        cases.append(SwitchCase((DEFAULT_LABEL,), final_else.stmts,
                                ends_case(final_else.stmts), final_else.span))
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


@dataclass(frozen=True)
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
    """Yield (node, conditional) for `node` and every node under it, in the
    order Java evaluates them: operands before the step that uses them.

    `conditional` marks positions that may not run: ternary branches and the
    right side of `&&` and `||`. An assignment's target is not yielded as a
    read (the Assign step is the write), and a Declarator follows its
    initializer as the write of the declared name. `node` is an expression,
    a local declaration or an expression statement.
    """
    if isinstance(node, LocalVarDecl):
        for d in node.declarators:
            if d.init is not None:
                yield from _evaluation_order(d.init, conditional)
            yield d, conditional
        return
    if isinstance(node, ExprStmt):
        yield from _evaluation_order(node.expr, conditional)
        return
    if isinstance(node, FieldAccess):
        yield from _evaluation_order(node.receiver, conditional)
    elif isinstance(node, Unary):
        yield from _evaluation_order(node.operand, conditional)
    elif isinstance(node, Binary):
        yield from _evaluation_order(node.left, conditional)
        yield from _evaluation_order(node.right, conditional or node.op in ("&&", "||"))
    elif isinstance(node, Ternary):
        yield from _evaluation_order(node.cond, conditional)
        yield from _evaluation_order(node.if_true, True)
        yield from _evaluation_order(node.if_false, True)
    elif isinstance(node, Call):
        if node.receiver is not None:
            yield from _evaluation_order(node.receiver, conditional)
        for a in node.args:
            yield from _evaluation_order(a, conditional)
    elif isinstance(node, New):
        for a in node.args:
            yield from _evaluation_order(a, conditional)
    elif isinstance(node, Assign):
        if isinstance(node.target, FieldAccess):
            yield from _evaluation_order(node.target.receiver, conditional)
        yield from _evaluation_order(node.value, conditional)
    elif not isinstance(node, (Name, Literal)):
        raise TypeError(f"unknown node {type(node).__name__}")
    yield node, conditional


def _may_be_null(receiver: Expr) -> bool:
    """Whether a field access through `receiver` may throw NullPointerException."""
    return not (isinstance(receiver, Name) and receiver.id == "this")


@dataclass(frozen=True)
class _Scope:
    """How the names of one method map to effects."""

    # The locations each bare field name may denote: HEAP, plus the name
    # itself when a local of that name is declared somewhere in the method.
    fields: dict[str, frozenset[str]]

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
        if isinstance(node, Call) and node.method in _PURE_METHODS:
            return _THROWS
        if isinstance(node, (Call, New)):
            return _IMPURE
        if isinstance(node, Binary) and node.op in ("/", "%"):
            return _THROWS
        return _NO_EFFECTS

    def summary(self, node) -> Effects:
        """The effects of evaluating all of `node`."""
        return _union(self.effect(n) for n, _ in _evaluation_order(node))

    def before(self, holder, target) -> tuple[Effects, bool]:
        """The effects of everything `holder` evaluates before `target`'s own
        step (so including `target`'s operands), and whether `target` sits in
        a conditional position."""
        prefix = _NO_EFFECTS
        for node, conditional in _evaluation_order(holder):
            if node is target:
                return prefix, conditional
            prefix = prefix | self.effect(node)
        raise ValueError("target is not evaluated by holder")


def _scope_for(m: MethodDecl, context: SourceFile | None) -> _Scope:
    """Fields are the names `context` declares as fields that no parameter
    of `m` shadows; without `context` every free name is local. A local
    shadows a field only from its declaration on, so a bare name that is
    both may denote either."""
    fields: dict[str, frozenset[str]] = {}
    if context is not None:
        params = {p.name for p in m.params}
        locals_ = {n.name for n in walk(m.body) if isinstance(n, Declarator)}
        fields = {d.name: _HEAP | ({d.name} & locals_)
                  for cls in context.types for f in cls.fields for d in f.declarators
                  if d.name not in params}
    return _Scope(fields)


_DEFAULT_SCOPE = _Scope({})


class _FreshNames:
    def __init__(self, taken: set[str]):
        self.taken = set(taken) | RESERVED_WORDS

    def claim(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        i = 2
        while f"{base}{i}" in self.taken:
            i += 1
        name = f"{base}{i}"
        self.taken.add(name)
        return name


def _names_in(node) -> set[str]:
    """Every identifier visible anywhere under `node` (fresh names must avoid all)."""
    return {site[0] for site in identifier_sites(node)}


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
    return "_".join(tokens) if tokens else "tmp"


def _extract_base_name(arg: Expr) -> str | None:
    """Paper-style name for an extracted argument, or None to fall back to tmpN."""
    if isinstance(arg, New):
        tokens = tokenize_identifier(arg.type_name.rsplit(".", 1)[-1])
        return tokens[0] + "".join(t.capitalize() for t in tokens[1:])
    assert isinstance(arg, Call)
    meth_tokens = tokenize_identifier(arg.method)
    if meth_tokens[0] not in PARTICIPLES:
        return None
    tokens = [PARTICIPLES[meth_tokens[0]]] + meth_tokens[1:] + _receiver_tokens(arg)
    return tokens[0] + "".join(t.capitalize() for t in tokens[1:])


# ---------------------------------------------------------------------------
# Rule 4: function chaining
# ---------------------------------------------------------------------------


def chain_functions(block: Block, direction: str, taken: set[str] | None = None) -> Block:
    """Split one chain link per statement, or merge single-use receiver decls."""
    if direction == SPLIT:
        return _each_site(block, taken, lambda s, fresh: _split_site(s, fresh, _DEFAULT_SCOPE))
    if direction == MERGE:
        return _merge_block(block, _DEFAULT_SCOPE)
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


def _split_site(stmt: Stmt, fresh: _FreshNames, scope: _Scope) -> _Site:
    """Hoist the call at the bottom of the statement's chain into a local.

    The hoisted link must not conflict with anything the statement evaluates
    before it, its own operands included.
    """
    if isinstance(stmt, ExprStmt):
        holder = stmt.expr
    elif isinstance(stmt, LocalVarDecl) and len(stmt.declarators) == 1 \
            and stmt.declarators[0].init is not None:
        holder = stmt.declarators[0].init
    else:
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

    var_name = fresh.claim(_split_base_name(inner))
    decl = LocalVarDecl(
        _decl_type_for(inner),
        (Declarator(var_name, inner, inner.span),),
        stmt.comments if hasattr(stmt, "comments") else (),
        inner.span,
    )
    rewritten = _substitute(stmt, {id(inner): Name(var_name, inner.span)})
    rewritten = replace(rewritten, comments=())
    return [decl, rewritten], "chain link hoisted into local"


def _substitute(node, subst: dict[int, Expr]):
    """Rebuild `node` with each node whose id is a key of `subst` replaced."""
    def visit(n):
        return subst[id(n)] if id(n) in subst else rebuild(n, visit)
    return visit(node)


def _count_name_uses(stmts, name: str) -> int:
    count = 0
    for s in stmts:
        for n in walk(s):
            if isinstance(n, Name) and n.id == name:
                count += 1
    return count


def _merge_block(block: Block, scope: _Scope) -> Block:
    stmts = list(block.stmts)
    i = 0
    while i + 1 < len(stmts):
        merged = _try_merge(stmts, i, scope)
        if merged is not None:
            stmts[i : i + 2] = [merged]
        else:
            i += 1
    return replace(block, stmts=tuple(stmts))


def _try_merge(stmts: list[Stmt], i: int, scope: _Scope) -> Stmt | None:
    """Sink a declaration's call into the receiver of its single use, which
    must run unconditionally and after nothing that conflicts with the call."""
    decl = stmts[i]
    if not (isinstance(decl, LocalVarDecl) and len(decl.declarators) == 1
            and isinstance(decl.declarators[0].init, Call)):
        return None
    name = decl.declarators[0].name
    if _count_name_uses(stmts[i + 1 :], name) != 1:
        return None
    use_stmt = stmts[i + 1]
    holder = _stmt_expr(use_stmt)
    if holder is None:
        return None
    target: Call | None = None
    for n in walk(holder):
        if isinstance(n, Call) and isinstance(n.receiver, Name) and n.receiver.id == name:
            target = n
            break
    if target is None:
        return None
    if _count_name_uses([use_stmt], name) != 1:
        return None
    init = decl.declarators[0].init
    prefix, conditional = scope.before(holder, target.receiver)
    if conditional or conflicts(prefix, scope.summary(init)):
        return None
    rewritten = _substitute(use_stmt, {id(target): replace(target, receiver=init)})
    return replace(rewritten, comments=decl.comments + rewritten.comments)


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


def argument_pass(block: Block, direction: str, taken: set[str] | None = None) -> Block:
    """Extract call/new arguments into locals, or inline single-use locals back."""
    if direction == EXTRACT:
        return _each_site(block, taken, lambda s, fresh: _extract_site(
            s, fresh, _DEFAULT_SCOPE, lambda span, reason: None))
    if direction == INLINE:
        return _inline_block(block, _DEFAULT_SCOPE)
    raise ValueError(f"unknown direction {direction!r}")


def _extract_site(stmt: Stmt, fresh: _FreshNames, scope: _Scope, skip) -> _Site:
    """Hoist every safely extractable argument of one statement into a local;
    `skip(span, reason)` is told of each argument left in place.

    Arguments are taken in evaluation order, so the hoisted declarations
    keep their order. One is hoisted when it runs unconditionally and does
    not conflict with anything that stays in place and is evaluated before
    it, its own operands included.
    """
    holder = _stmt_expr(stmt)
    if holder is None:
        return None

    events = list(_evaluation_order(holder))
    args = {id(a) for n, _ in events if isinstance(n, (Call, New)) for a in n.args}
    kept: list[tuple[object, Effects]] = []  # evaluated so far and staying in place
    hoisted: dict[int, Expr] = {}
    decls: list[Stmt] = []
    for node, conditional in events:
        if isinstance(node, (Call, New)) and id(node) in args:
            reason = "conditional-context" if conditional else conflicts(
                _union(e for _, e in kept), scope.summary(node))
            if reason is None:
                inside = {id(n) for n in walk(node)}
                kept = [k for k in kept if id(k[0]) not in inside]
                var_name = fresh.claim(_extract_base_name(node) or "tmp")
                decls.append(LocalVarDecl(
                    _decl_type_for(node),
                    (Declarator(var_name, _substitute(node, hoisted), node.span),),
                    (), node.span))
                hoisted[id(node)] = Name(var_name, node.span)
                continue
            skip(node.span, reason)
        kept.append((node, scope.effect(node)))

    if not decls:
        return None
    rewritten = _substitute(stmt, hoisted)
    if getattr(stmt, "comments", ()):
        decls[0] = replace(decls[0], comments=stmt.comments)
        rewritten = replace(rewritten, comments=())
    return decls + [rewritten], f"{len(decls)} argument(s) extracted into locals"


_STRAIGHT_LINE = (LocalVarDecl, ExprStmt)


def _inline_block(block: Block, scope: _Scope) -> Block:
    stmts = list(block.stmts)
    i = 0
    while i < len(stmts):
        performed = _try_inline(stmts, i, scope)
        if not performed:
            i += 1
    return replace(block, stmts=tuple(stmts))


def _try_inline(stmts: list[Stmt], i: int, scope: _Scope) -> bool:
    """Sink a declaration's initializer into its single use, which must be a
    whole argument that runs unconditionally. The initializer may pass only
    straight-line statements and code that do not conflict with it."""
    decl = stmts[i]
    if not (isinstance(decl, LocalVarDecl) and len(decl.declarators) == 1
            and decl.declarators[0].init is not None):
        return False
    name = decl.declarators[0].name
    init = decl.declarators[0].init
    total_uses = _count_name_uses(stmts[i + 1 :], name)
    if total_uses != 1:
        return False

    moved = scope.summary(init)
    j = i + 1
    while j < len(stmts) and _count_name_uses([stmts[j]], name) == 0:
        s = stmts[j]
        if not isinstance(s, _STRAIGHT_LINE) or conflicts(moved, scope.summary(s)):
            return False
        j += 1
    if j >= len(stmts):
        return False
    use_stmt = stmts[j]
    holder = _stmt_expr(use_stmt)
    if holder is None:
        return False
    use = next((a for n in walk(holder) if isinstance(n, (Call, New))
                for a in n.args if isinstance(a, Name) and a.id == name), None)
    if use is None:
        return False
    prefix, conditional = scope.before(holder, use)
    if conditional or conflicts(prefix, moved):
        return False

    rewritten = _substitute(use_stmt, {id(use): init})
    if decl.comments:
        rewritten = replace(rewritten, comments=decl.comments + rewritten.comments)
    stmts[j] = rewritten
    del stmts[i]
    return True


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
    return replace(block, stmts=tuple(out))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


APPLY_ORDER = (
    TransformRule.IF_FLIP,
    TransformRule.LOOP_CONVERT,
    TransformRule.COND_CONVERT,
    TransformRule.FUNCTION_CHAIN,
    TransformRule.ARGUMENT_PASS,
    TransformRule.CODE_ORDER,
)

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
) -> tuple[MethodDecl, TransformReport]:
    """Apply every applicable rule once, in the fixed order
    IfFlip, LoopConvert, CondConvert, FunctionChain(split),
    ArgumentPass(extract), CodeOrder.
    """
    return _apply(m, APPLY_ORDER, context)


def apply_rule(
    m: MethodDecl,
    rule: TransformRule,
    context: SourceFile | None = None,
) -> tuple[MethodDecl, TransformReport]:
    """Apply a single rule across a whole method, as apply_all would."""
    return _apply(m, (rule,), context)


def _apply(m: MethodDecl, rules, context: SourceFile | None) -> tuple[MethodDecl, TransformReport]:
    report = TransformReport()
    fresh = _FreshNames(_names_in(context) if context is not None else _names_in(m))
    scope = _scope_for(m, context)
    body = m.body
    for rule in rules:
        body = _run_rule(body, rule, fresh, scope, report)
    return replace(m, body=body), report


def _run_rule(
    body: Block,
    rule: TransformRule,
    fresh: _FreshNames,
    scope: _Scope,
    report: TransformReport,
) -> Block:
    """`rule` at every site of `body`, in the rule's traversal order."""
    def skip(span: Span, reason: str) -> None:
        report.skipped.append((rule, span, reason))

    if rule is TransformRule.FUNCTION_CHAIN:
        site = lambda stmt: _split_site(stmt, fresh, scope)  # noqa: E731
    elif rule is TransformRule.ARGUMENT_PASS:
        site = lambda stmt: _extract_site(stmt, fresh, scope, skip)  # noqa: E731
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
                _record_misplaced_ternaries(out_stmt, skip)
        return out

    if site is _flip_site:  # outer-first
        return _each_block(body, lambda b, nested: replace(
            b, stmts=tuple([nested(out) for s in b.stmts for out in at_site(s)])))
    if site is _loop_site or site is _cond_site:  # inner-first
        return _each_block(body, lambda b, nested: replace(
            b, stmts=tuple([out for s in b.stmts for out in at_site(nested(s))])))

    def block_by_block(b: Block, nested) -> Block:
        if site is None:
            b = _reorder(b, scope, report)
        else:
            b = replace(b, stmts=tuple([out for s in b.stmts for out in at_site(s)]))
        return replace(b, stmts=tuple(map(nested, b.stmts)))

    return _each_block(body, block_by_block)


def _each_site(block: Block, taken: set[str] | None, site) -> Block:
    """`block` with each statement that `site(stmt, fresh)` rewrites replaced."""
    fresh = _FreshNames(taken if taken is not None else _names_in(block))
    stmts: list[Stmt] = []
    for stmt in block.stmts:
        done = site(stmt, fresh)
        stmts.extend(done[0] if done is not None else (stmt,))
    return replace(block, stmts=tuple(stmts))


def _each_block(block: Block, rewrite) -> Block:
    """`rewrite(block, nested)`, where `nested(stmt)` is `stmt` with every
    block directly inside it passed through `_each_block` in turn: branches
    (else-if links' too), loop bodies, and switch-case bodies, whose
    `terminated` is recomputed. A rewrite that changes a statement before
    calling `nested` on it works outer-first; one that calls `nested` first
    works inner-first."""
    def nested(node):
        if isinstance(node, Block):
            return _each_block(node, rewrite)
        if isinstance(node, If):
            # The else branch first: the order of fresh names and of report
            # entries depends on it.
            orelse = nested(node.orelse) if node.orelse is not None else None
            return replace(node, then=_each_block(node.then, rewrite), orelse=orelse)
        if isinstance(node, SwitchCase):
            body = _each_block(Block(node.body, (), node.span), rewrite).stmts
            return replace(node, body=body, terminated=ends_case(body))
        return rebuild(node, nested) if isinstance(node, Stmt) else node

    return rewrite(block, nested)
