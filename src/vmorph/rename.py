"""Project-wide synonym renaming and token-level patch recovery.

A rename plan maps every project-declared identifier to a synonym-assembled
replacement, recorded in a bidirectional dictionary that is persisted as JSON
so patches written against the renamed code can be translated back. External
(library) names are never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from operator import is_
from typing import Callable, Optional

from .errors import ExhaustedCandidates, StaleDictionary
from .identifiers import (
    EXTERNAL,
    IdentifierTable,
    PRIMITIVE_TYPES,
    convention,
    tokenize_identifier,
)
from .lexer import IDENT, tokenize
from .nodes import (
    Assign,
    Binary,
    Block,
    Call,
    ClassDecl,
    Declarator,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldDecl,
    For,
    If,
    Import,
    LocalVarDecl,
    MethodDecl,
    Name,
    New,
    Param,
    Return,
    SourceFile,
    Stmt,
    Switch,
    SwitchCase,
    Ternary,
    Throw,
    Unary,
    While,
)

RESERVED_WORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null var
    record yield sealed permits""".split()
)

CAMEL = "camel"
SNAKE = "snake"
PASCAL = "pascal"


@dataclass(frozen=True)
class SynonymLexicon:
    """word -> ranked synonym candidates, all lowercase, best first."""

    words: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for word, candidates in self.words.items():
            if word != word.lower():
                raise ValueError(f"lexicon word {word!r} is not lowercase")
            if not candidates:
                raise ValueError(f"lexicon word {word!r} has no candidates")
            if candidates[0] == word:
                raise ValueError(f"lexicon word {word!r} maps to itself first")
            for c in candidates:
                if c != c.lower():
                    raise ValueError(f"candidate {c!r} for {word!r} is not lowercase")

    @classmethod
    def load(cls, path: str | None = None) -> "SynonymLexicon":
        """Load a TSV lexicon (word<TAB>syn,syn,...); bundled file by default."""
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = resources.files("vmorph.data").joinpath("synonyms.tsv").read_text("utf-8")
        words: dict[str, tuple[str, ...]] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.rstrip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ValueError(f"lexicon line {lineno}: expected word<TAB>synonyms")
            word, _, raw = line.partition("\t")
            candidates = tuple(s.strip() for s in raw.split(",") if s.strip())
            words[word.strip()] = candidates
        return cls(words)


def propose_synonyms(tokens: list[str], lexicon: SynonymLexicon) -> list[list[str]]:
    """One ranked candidate list per token; unknown tokens pass through."""
    return [list(lexicon.words.get(tok, (tok,))) for tok in tokens]


def assemble_identifier(tokens: list[str], convention: str) -> str:
    if not tokens:
        raise ValueError("cannot assemble an identifier from no tokens")
    if convention == SNAKE:
        return "_".join(tokens)
    if convention == CAMEL:
        return tokens[0] + "".join(t.capitalize() for t in tokens[1:])
    if convention == PASCAL:
        return "".join(t.capitalize() for t in tokens)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class RenameDictionary:
    forward: dict[str, str]
    backward: dict[str, str]
    kinds: dict[str, str]

    @classmethod
    def build(cls, forward: dict[str, str], kinds: dict[str, str]) -> "RenameDictionary":
        backward: dict[str, str] = {}
        for orig, new in forward.items():
            if new in RESERVED_WORDS:
                raise ValueError(f"new identifier {new!r} is a reserved word")
            if new in backward:
                raise ValueError(f"forward map is not injective at {new!r}")
            backward[new] = orig
        return cls(dict(forward), backward, dict(kinds))

    def to_json_dict(self) -> dict:
        return {
            "forward": dict(sorted(self.forward.items())),
            "kinds": dict(sorted(self.kinds.items())),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "RenameDictionary":
        data = json.loads(text)
        return cls.build(data["forward"], data.get("kinds", {}))

    def inverted(self) -> "RenameDictionary":
        kinds = {new: self.kinds.get(orig, "variable") for orig, new in self.forward.items()}
        return RenameDictionary(dict(self.backward), dict(self.forward), kinds)


ReviewHook = Callable[[str, str], Optional[str]]


def build_rename_plan(
    table: IdentifierTable,
    lexicon: SynonymLexicon,
    review: ReviewHook | None = None,
) -> RenameDictionary:
    """Assign a fresh synonym-derived name to every project-origin entry.

    Collisions (against every name in the table, reserved words, and names
    already assigned) are resolved by advancing to the next-ranked synonym of
    the last token, then by numeric suffixing. A review hook may accept, edit,
    or skip each proposal.
    """
    taken: set[str] = set(table.entries) | set(RESERVED_WORDS)
    forward: dict[str, str] = {}
    kinds: dict[str, str] = {}

    for name in table.project_names():
        entry = table.entries[name]
        tokens = tokenize_identifier(name)
        conv = convention(name)
        candidates = propose_synonyms(tokens, lexicon)

        attempts: list[list[str]] = []
        first_choice = [c[0] for c in candidates]
        attempts.append(first_choice)
        for alt in candidates[-1][1:]:
            attempts.append(first_choice[:-1] + [alt])

        chosen: str | None = None
        for words in attempts:
            candidate = assemble_identifier(words, conv)
            if candidate not in taken:
                chosen = candidate
                break
        if chosen is None:
            base = assemble_identifier(first_choice, conv)
            chosen = _suffixed(base, taken, name)

        if review is not None:
            decision = review(name, chosen)
            if decision is None:
                continue
            if decision != chosen:
                chosen = decision if decision not in taken else _suffixed(decision, taken, name)

        forward[name] = chosen
        kinds[name] = entry.kind
        taken.add(chosen)

    return RenameDictionary.build(forward, kinds)


def _suffixed(base: str, taken: set[str], original: str) -> str:
    for i in range(2, 10_000):
        candidate = f"{base}{i}"
        if candidate not in taken:
            return candidate
    raise ExhaustedCandidates(original)


# ---------------------------------------------------------------------------
# Applying a dictionary
# ---------------------------------------------------------------------------


def apply_rename(project: list[SourceFile], dct: RenameDictionary) -> list[SourceFile]:
    """Replace every occurrence of each forward-mapped identifier project-wide.

    The tree shape is untouched; only identifier payloads change. A subtree
    with no mapped name in it is shared, not copied: a file that holds none
    comes back as the same object. Raises StaleDictionary if a key occurs
    nowhere in the project (a wildcard-import tail or a primitive type name
    counts as an occurrence, though neither is renamed).
    """
    renamer = _Renamer(dct.forward)
    renamed = [renamer.file(src) for src in project]
    for key in sorted(dct.forward):
        if key not in renamer.hit:
            raise StaleDictionary(key)
    return renamed


def _shared(new: list, old: tuple) -> tuple:
    """`old` if each element of `new` is the object at its place in `old`,
    else `new` as a tuple."""
    return old if all(map(is_, new, old)) else tuple(new)


class _Renamer:
    """One walk over a project: each method returns its node itself when no
    name under it is mapped, and records in `hit` every key it met."""

    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping
        self.hit: set[str] = set()

    def name(self, name: str) -> str:
        new = self.mapping.get(name)
        if new is None:
            return name
        self.hit.add(name)
        return new

    def type_name(self, type_name: str) -> str:
        """Rename the class position (last segment) of a possibly dotted type."""
        head, dot, tail = type_name.rpartition(".")
        new = self.name(tail)
        if new is tail or tail in PRIMITIVE_TYPES:
            return type_name
        return head + dot + new

    def file(self, src: SourceFile) -> SourceFile:
        imports = _shared([self.import_(imp) for imp in src.imports], src.imports)
        types = _shared([self.class_(cls) for cls in src.types], src.types)
        if imports is src.imports and types is src.types:
            return src
        return replace(src, imports=imports, types=types)

    def import_(self, imp: Import) -> Import:
        head, dot, tail = imp.name.rpartition(".")
        new = self.name(tail)
        if new is tail or imp.wildcard:
            return imp
        return replace(imp, name=head + dot + new)

    def class_(self, cls: ClassDecl) -> ClassDecl:
        name = self.name(cls.name)
        members = _shared([self.method(m) if isinstance(m, MethodDecl) else self.field(m)
                           for m in cls.members], cls.members)
        if name is cls.name and members is cls.members:
            return cls
        return replace(cls, name=name, members=members)

    def field(self, f: FieldDecl) -> FieldDecl:
        type_name = self.type_name(f.type_name)
        declarators = self.declarators(f.declarators)
        if type_name is f.type_name and declarators is f.declarators:
            return f
        return replace(f, type_name=type_name, declarators=declarators)

    def declarators(self, ds: tuple[Declarator, ...]) -> tuple[Declarator, ...]:
        out = []
        for d in ds:
            name = self.name(d.name)
            init = self.expr(d.init) if d.init is not None else None
            out.append(d if name is d.name and init is d.init
                       else replace(d, name=name, init=init))
        return _shared(out, ds)

    def param(self, p: Param) -> Param:
        type_name, name = self.type_name(p.type_name), self.name(p.name)
        if type_name is p.type_name and name is p.name:
            return p
        return replace(p, type_name=type_name, name=name)

    def method(self, m: MethodDecl) -> MethodDecl:
        name = self.name(m.name)
        params = _shared([self.param(p) for p in m.params], m.params)
        return_type = self.type_name(m.return_type) if m.return_type else m.return_type
        body = self.block(m.body)
        if name is m.name and params is m.params and return_type is m.return_type \
                and body is m.body:
            return m
        return replace(m, name=name, params=params, return_type=return_type, body=body)

    def block(self, b: Block) -> Block:
        stmts = self.stmts(b.stmts)
        return b if stmts is b.stmts else replace(b, stmts=stmts)

    def stmts(self, stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
        return _shared([self.stmt(s) for s in stmts], stmts)

    def stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, ExprStmt):
            expr = self.expr(stmt.expr)
            return stmt if expr is stmt.expr else replace(stmt, expr=expr)
        if isinstance(stmt, LocalVarDecl):
            type_name = self.type_name(stmt.type_name)
            declarators = self.declarators(stmt.declarators)
            if type_name is stmt.type_name and declarators is stmt.declarators:
                return stmt
            return replace(stmt, type_name=type_name, declarators=declarators)
        if isinstance(stmt, Return):
            value = self.expr(stmt.value) if stmt.value is not None else None
            return stmt if value is stmt.value else replace(stmt, value=value)
        if isinstance(stmt, If):
            cond, then = self.expr(stmt.cond), self.block(stmt.then)
            orelse = self.stmt(stmt.orelse) if stmt.orelse is not None else None
            if cond is stmt.cond and then is stmt.then and orelse is stmt.orelse:
                return stmt
            return replace(stmt, cond=cond, then=then, orelse=orelse)
        if isinstance(stmt, Block):
            return self.block(stmt)
        if isinstance(stmt, While):
            cond, body = self.expr(stmt.cond), self.block(stmt.body)
            if cond is stmt.cond and body is stmt.body:
                return stmt
            return replace(stmt, cond=cond, body=body)
        if isinstance(stmt, For):
            init = self.stmt(stmt.init) if stmt.init is not None else None
            cond = self.expr(stmt.cond) if stmt.cond is not None else None
            update = self.expr(stmt.update) if stmt.update is not None else None
            body = self.block(stmt.body)
            if init is stmt.init and cond is stmt.cond and update is stmt.update \
                    and body is stmt.body:
                return stmt
            return replace(stmt, init=init, cond=cond, update=update, body=body)
        if isinstance(stmt, Switch):
            scrutinee = self.expr(stmt.scrutinee)
            cases = []
            for c in stmt.cases:
                body = self.stmts(c.body)
                cases.append(c if body is c.body else replace(c, body=body))
            cases = _shared(cases, stmt.cases)
            if scrutinee is stmt.scrutinee and cases is stmt.cases:
                return stmt
            return replace(stmt, scrutinee=scrutinee, cases=cases)
        if isinstance(stmt, Throw):
            expr = self.expr(stmt.expr)
            return stmt if expr is stmt.expr else replace(stmt, expr=expr)
        return stmt  # Break / Continue

    def exprs(self, exprs: tuple[Expr, ...]) -> tuple[Expr, ...]:
        return _shared([self.expr(e) for e in exprs], exprs)

    def expr(self, expr: Expr) -> Expr:
        if isinstance(expr, Name):
            name = self.name(expr.id)
            return expr if name is expr.id else replace(expr, id=name)
        if isinstance(expr, Call):
            receiver = self.expr(expr.receiver) if expr.receiver else None
            method, args = self.name(expr.method), self.exprs(expr.args)
            if receiver is expr.receiver and method is expr.method and args is expr.args:
                return expr
            return replace(expr, receiver=receiver, method=method, args=args)
        if isinstance(expr, Binary):
            left, right = self.expr(expr.left), self.expr(expr.right)
            if left is expr.left and right is expr.right:
                return expr
            return replace(expr, left=left, right=right)
        if isinstance(expr, FieldAccess):
            receiver, name = self.expr(expr.receiver), self.name(expr.name)
            if receiver is expr.receiver and name is expr.name:
                return expr
            return replace(expr, receiver=receiver, name=name)
        if isinstance(expr, Assign):
            target, value = self.expr(expr.target), self.expr(expr.value)
            if target is expr.target and value is expr.value:
                return expr
            return replace(expr, target=target, value=value)
        if isinstance(expr, Unary):
            operand = self.expr(expr.operand)
            return expr if operand is expr.operand else replace(expr, operand=operand)
        if isinstance(expr, Ternary):
            cond = self.expr(expr.cond)
            if_true, if_false = self.expr(expr.if_true), self.expr(expr.if_false)
            if cond is expr.cond and if_true is expr.if_true and if_false is expr.if_false:
                return expr
            return replace(expr, cond=cond, if_true=if_true, if_false=if_false)
        if isinstance(expr, New):
            type_name, args = self.type_name(expr.type_name), self.exprs(expr.args)
            if type_name is expr.type_name and args is expr.args:
                return expr
            return replace(expr, type_name=type_name, args=args)
        return expr  # Literal


# ---------------------------------------------------------------------------
# Patch recovery
# ---------------------------------------------------------------------------


def recover_patch(patch_text: str, dct: RenameDictionary) -> str:
    """Translate a patch written against renamed code back to original names.

    Token-level: identifier tokens found in the backward map are substituted,
    everything else (keywords, literals, comments, layout) is preserved
    byte-for-byte. The text must lex as subset tokens but need not parse.
    """
    out: list[str] = []
    last = 0
    for tok in tokenize(patch_text, "<patch>"):
        if tok.kind == IDENT and tok.text in dct.backward:
            out.append(patch_text[last : tok.start_off])
            out.append(dct.backward[tok.text])
            last = tok.end_off
    out.append(patch_text[last:])
    return "".join(out)
