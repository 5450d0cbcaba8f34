"""Identifier collection, origin classification, and tokenization.

The renamer needs to know what may be renamed (names declared inside the
project), what must stay intact (standard-library and imported names), and
which names a new name must not take. One walk over every project file gives
all three: the entries, each with its declaration and use sites in every
file, and the set of every identifier in the project, which a rename plan
checks its new names against. An entry's origin follows from its sites
alone; `classify_origin` reports the undeclared names that neither the
stdlib index nor an import explains.

Resolution is name-based: a use is attributed to the project entry of the
same name regardless of scope, which is exactly the granularity the rename
dictionary operates at. Multiple declarations of one name (shadowing,
cross-file helpers) accumulate on a single entry.
"""

from __future__ import annotations

import os
import re
from dataclasses import replace
from functools import cache

from .errors import UnresolvedIdentifier, data_lines
from .nodes import (
    DECL,
    MethodDecl,
    Node,
    SourceFile,
    Span,
    frozen,
    identifier_sites,
    names_in,
)

PROJECT = "project"
EXTERNAL = "external"
# The overridable methods of java.lang.Object.
OBJECT_METHODS = frozenset({"equals", "hashCode", "toString", "clone", "finalize"})


@frozen
class IdentifierEntry:
    name: str
    kind: str  # variable | function | class
    # The node of each declaration and use site; a site's span is decoded
    # only when `decl_sites` or `use_sites` is read.
    decl_nodes: tuple[Node, ...]
    use_nodes: tuple[Node, ...]
    files: frozenset[str]  # the files that hold a site

    @property
    def decl_sites(self) -> tuple[Span, ...]:
        return tuple(node.span for node in self.decl_nodes)

    @property
    def use_sites(self) -> tuple[Span, ...]:
        return tuple(node.span for node in self.use_nodes)

    @property
    def origin(self) -> str:
        """project when the project declares the name, else external. A name
        of an Object method is external: a project method of that name may
        override it and be called by that name from outside the project, as
        string concatenation calls toString."""
        return PROJECT if self.decl_nodes and self.name not in OBJECT_METHODS else EXTERNAL


@frozen
class IdentifierTable:
    entries: dict[str, IdentifierEntry]
    names: frozenset[str]  # every identifier in the project, not only the entries'
    diagnostics: tuple[UnresolvedIdentifier, ...] = ()

    def project_names(self) -> list[str]:
        return sorted(n for n, e in self.entries.items() if e.origin == PROJECT)


def collect_identifiers(
    project: list[SourceFile], focus: MethodDecl | None = None
) -> IdentifierTable:
    """Build the identifier table for a parsed project.

    With `focus`, the entries are restricted to names occurring in that
    method, but decl/use sites are still resolved project-wide, and `names`
    still holds every identifier of the project.
    """
    wanted = None if focus is None else names_in(focus)
    names: set[str] = set()
    kinds: dict[str, str] = {}
    decl_nodes: dict[str, list[Node]] = {}
    use_nodes: dict[str, list[Node]] = {}
    files: dict[str, set[str]] = {}
    uses: list[tuple[str, str, Node]] = []
    for src in project:
        file = src.span.file
        for name, role, kind, node in identifier_sites(src):
            names.add(name)
            if wanted is None or name in wanted:
                files.setdefault(name, set()).add(file)
                if role == DECL:
                    kinds.setdefault(name, kind)
                    decl_nodes.setdefault(name, []).append(node)
                else:
                    uses.append((name, kind, node))
    for name, kind, node in uses:  # a kind is the first declaration's, else the first use's
        kinds.setdefault(name, kind)
        use_nodes.setdefault(name, []).append(node)
    entries = {name: IdentifierEntry(name, kind, tuple(decl_nodes.get(name, ())),
                                     tuple(use_nodes.get(name, ())), frozenset(files[name]))
               for name, kind in kinds.items()}
    return IdentifierTable(entries, frozenset(names))


def classify_origin(
    table: IdentifierTable, imports: list[str], stdlib_index: frozenset[str]
) -> IdentifierTable:
    """`table` with a diagnostic for each name it uses but the project does
    not declare, unless the stdlib index or an import explains it. The
    diagnostics change no output. Idempotent.
    """
    import_tails = {imp.rstrip(".*").rsplit(".", 1)[-1] for imp in imports}
    diagnostics = tuple(
        UnresolvedIdentifier(name, entry.use_nodes[0].span)
        for name, entry in table.entries.items()
        if entry.use_nodes and not entry.decl_nodes
        and name not in stdlib_index and name not in import_tails)
    return replace(table, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Z]{2,}(?=[A-Z][a-z]|[^A-Za-z]|$)|[A-Z][a-z0-9]*|[a-z0-9]+")

CAMEL = "camel"
SNAKE = "snake"
PASCAL = "pascal"


def tokenize_identifier(name: str) -> list[str]:
    """Split a camelCase or snake_case identifier into lowercase words.

    Acronym runs (two or more consecutive capitals) stay one token:
    parseXMLHeader -> [parse, xml, header].
    """
    words: list[str] = []
    for part in name.split("_"):
        words.extend(m.group(0).lower() for m in _WORD_RE.finditer(part))
    return words or [name.lower()]


def convention(name: str) -> str:
    """The identifier's casing convention, used to reassemble after renaming."""
    if "_" in name:
        return SNAKE
    if name[:1].isupper():
        return PASCAL
    return CAMEL


# ---------------------------------------------------------------------------
# Bundled standard-library index
# ---------------------------------------------------------------------------


def load_stdlib_index() -> frozenset[str]:
    """Load the stdlib name list: one name per line, `#` comments allowed.

    The file VMORPH_STDLIB_INDEX names, read on every call; else the bundled
    list, read once per process.
    """
    path = os.environ.get("VMORPH_STDLIB_INDEX")
    return _read_stdlib_index(path) if path is not None else _bundled_stdlib_index()


def _read_stdlib_index(path: str | None) -> frozenset[str]:
    return frozenset(line for _, line in data_lines("stdlib_index.txt", path))


@cache
def _bundled_stdlib_index() -> frozenset[str]:
    return _read_stdlib_index(None)


def project_imports(project: list[SourceFile]) -> list[str]:
    """Flatten a project's import declarations for classify_origin."""
    out = []
    for src in project:
        for imp in src.imports:
            out.append(imp.name + (".*" if imp.wildcard else ""))
    return out

